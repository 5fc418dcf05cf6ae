"""Combinatorial oracles for every regularity notion checked spectrally.

The checks in ``theorems`` read the predistance polynomials and the
eigenvectors; these oracles read neither (this module imports nothing from
``poly`` or ``spectral``).

Pseudo-distance-regularity around u (weighted): for v in Gamma_i(u),

    c*_i(v) = (1/alpha_v) sum of alpha_w over neighbors w of v in Gamma_{i-1}(u)
    a*_i(v) = same with Gamma_i(u),   b*_i(v) = same with Gamma_{i+1}(u)

and the graph is pseudo-distance-regular around u when each triple is
constant over the sphere.  With alpha = all-ones this reduces to classical
distance-regularity around u.  (Every neighbor of v lies in one of the three
spheres, so c*_i(v) + a*_i(v) + b*_i(v) is the average weighted degree
lambda_0 -- a useful sanity check.)

One sweep of one kernel, ``_pair_counts``, answers every counting
question.  It gathers, for every (root u, vertex v), the distances to u of
v's neighbours through a padded (Delta x n) neighbour array, in O(n^2
Delta) with no product by A; grouped reductions over the pairs ordered by
(root, radius) then give every sphere's spread and means, with no loop
over radii.  Regularity is read from the degrees.  On a regular graph the
Perron vector is exactly all-ones (``spectral.perron_weights``), so the
weighted counts are the classical intersection numbers, exact integers:
their constancy tests, per root for pseudo-distance-regularity and over
all pairs for distance-regularity and the partial distance-regularity
level, are exact comparisons.  A nonregular graph is not distance-regular
and has level 0, so only the per-root question is asked of it.  The
per-root answers stay arrays over the roots (``Classification.is_pdr``).
``classify_graph`` is that sweep; ``Classification.is_distance_regular``
is read from the intersection array, not stored.

A distance-polynomial graph (each A_i a polynomial in A) is regular, as
J = sum A_i commutes with A; a regular graph at level >= D - 1 is one, as
A_D = J - sum_{i<D} p_i(A) and J is Hoffman's polynomial in A.  Only the
other regular graphs reach ``is_distance_polynomial``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import CACHE_BLOCK_BYTES, SWEEP_BLOCK_BYTES, readonly as _readonly
from .errors import ConvergenceError
from .graphs import DistanceData

DEFAULT_ORACLE_TOL = 1e-7
_PRIMES = (1048573, 1048571)  # below 2^20: products of residues stay below 2^40


def _pair_counts(dist: np.ndarray, alpha: np.ndarray):
    """Weighted neighbour counts of every (root u, vertex v) pair, the roots
    in blocks of at most ``SWEEP_BLOCK_BYTES`` of gathered distances, masks
    and float counts (those of the sweep's reordering included).
    A neighbour of v is one step nearer to u than v, as far, or one step
    farther; padding slots point at v itself with weight 0.  ``dist`` is
    the distance table in a small unsigned type.  Yields (roots, x):
    ``x[:, r, v]`` is (c, a, b) of v around root ``roots[r]``, sums of
    alpha_w in ascending w divided by alpha_v.
    """
    n = len(dist)
    rows, cols = (dist == 1).nonzero()
    degrees = np.bincount(rows, minlength=n)
    nbr = np.arange(n)[None].repeat(degrees.max(), axis=0)
    nbr[np.arange(rows.size) - (degrees.cumsum() - degrees).repeat(degrees), rows] = cols
    weight = np.where(nbr != np.arange(n), alpha[nbr], 0.0)
    step = max(1, SWEEP_BLOCK_BYTES // (n * (len(nbr) * (dist.itemsize + 3) + 72)))
    for start in range(0, n, step):
        roots = slice(start, start + step)
        here = dist[roots, None, :]
        near = dist[roots][:, nbr]  # near[r, k, v]: distance to root r of v's k-th neighbour
        x = np.empty((3, len(here), n))
        for side, out in zip((near < here, near == here, near > here), x):
            np.einsum("rkv,kv->rv", side, weight, out=out)
        yield roots, x / alpha


@dataclass(frozen=True)
class Classification:
    """Bundle of every combinatorial verdict for one graph.

    Around a root u with ``is_pdr[u]``, ``pdr_numbers[u, :, :ecc(u) + 1]``
    are c*, a*, b* (c*_0 = b*_ecc = 0); ``pdr_violations`` holds, as columns
    over the other roots in order, their first offending (radius, v, w,
    value_v, value_w, which).  ``is_distance_polynomial`` is T38's oracle.
    """

    is_regular: bool
    intersection_array: dict | None
    is_pdr: np.ndarray
    pdr_numbers: np.ndarray
    pdr_violations: dict
    partial_dr_level: int
    is_distance_polynomial: bool

    @property
    def is_distance_regular(self) -> bool:
        return self.intersection_array is not None


def classify_graph(dd: DistanceData, alpha: np.ndarray,
                   tol: float = DEFAULT_ORACLE_TOL) -> Classification:
    """Pseudo-distance-regularity around every root and, on a regular graph,
    distance-regularity and the partial distance-regularity level, from one
    pass of ``_pair_counts``.

    Ordered by (root, radius, vertex), each sphere Gamma_i(u) is a run of
    pairs with one minimum, maximum and sum.  Per root u, a triple is
    constant over a sphere when its spread is at most tol * max(1, max
    |value|).  A root's violation is its first failing radius, checking c
    before a before b; v and w are the lowest-numbered vertices attaining
    the minimum and the maximum (on a regular graph the counts are exact,
    so no rounding breaks a tie).

    Over all pairs, for v in Gamma_i(u), c_i, a_i and b_i count the
    neighbours of v in Gamma_{i-1}(u), Gamma_i(u) and Gamma_{i+1}(u); a
    count is constant at radius i when its minimum over the roots with
    ecc(u) >= i equals its maximum.  (A root that failed at an earlier
    radius varied there, so the level is fixed by then.)

    ``partial_dr_level`` is the largest m <= D with p_i(A) = A_i for all
    i <= m.  A nonregular graph, told by its degrees, has p_1(A) = (lambda_0
    / mean degree) A != A and gets level 0.  For a regular graph, p_i(A) =
    A_i for all i <= m iff c_1..c_m and a_1..a_{m-1} are constant:

    * if they are, so are b_i = k - a_i - c_i, and the entries of A A_i give
      A A_i = b_{i-1} A_{i-1} + a_i A_i + c_{i+1} A_{i+1} for i < m, so
      A_i = r_i(A) with deg r_i = i.  Under <M, N> = tr(MN)/n the A_i are
      orthogonal with ||A_i||^2 = k_i = r_i(lambda_0) (A_i 1 = r_i(k) 1),
      and that normalization fixes the orthogonal family: r_i = p_i;
    * conversely the three-term recurrence of the p_i turns p_i(A) = A_i
      into that relation, whose entries at distance i + 1 and i are c_{i+1}
      and a_i.

    So the level is fixed at the first radius i where a count varies: i - 1
    if c varies there and i if only a or b does.  When nothing varies the
    graph is distance-regular, with level D (= d), and root 0's numbers give
    the intersection array {b_0..b_{D-1}; c_1..c_D} plus the a_i row.
    """
    n, width = dd.n, dd.diameter + 1
    dist = dd.dist.astype(np.min_scalar_type(dd.diameter))  # only compared
    sizes = np.bincount((np.arange(n)[:, None] * width + dist).ravel(),
                        minlength=n * width).reshape(n, width)
    is_regular = bool(np.ptp(sizes[:, min(1, dd.diameter)]) == 0)  # the degrees
    present = sizes > 0
    ends = np.zeros((2, 3, n, width))  # each run's minimum and maximum
    numbers = np.zeros((n, 3, width))
    first, at = np.full(n, -1), np.zeros((2, n), dtype=np.int64)
    for roots, x in _pair_counts(dist, alpha):
        here, block = dist[roots], present[roots]
        runs = sizes[roots][block]
        starts = runs.cumsum() - runs
        order = here.argsort(axis=1, kind="stable") + np.arange(0, x[0].size, n)[:, None]
        x_run = x.reshape(3, -1).take(order.ravel(), axis=1)  # by (root, radius, vertex)
        ext = ends[:, :, roots]
        ext[0][:, block] = np.minimum.reduceat(x_run, starts, axis=1)
        ext[1][:, block] = np.maximum.reduceat(x_run, starts, axis=1)
        numbers[roots].transpose(1, 0, 2)[:, block] = (
            np.add.reduceat(x_run, starts, axis=1) / runs)
        fails = ext[1] - ext[0] > tol * np.maximum(1.0, np.abs(ext).max(axis=0))
        fails = fails.transpose(1, 2, 0).reshape(len(here), -1)  # by (root, radius, which)
        bad = fails.any(axis=1).nonzero()[0]
        first[roots][bad] = fails[bad].argmax(axis=1)
        radius, which = np.divmod(first[roots][bad], 3)
        extreme = x[which, bad] == ext[:, which, bad, radius, None]
        at[:, roots][:, bad] = (extreme & (here[bad] == radius[:, None])).argmax(axis=-1)
    bad = (first >= 0).nonzero()[0]
    radius, which = np.divmod(first[bad], 3)
    low, high = ends[:, which, bad, radius]
    violations = {"radius": radius, "v": at[0, bad], "w": at[1, bad], "value_v": low,
                  "value_w": high, "which": np.array(list("cab"))[which]}
    pdr = _readonly(first < 0), _readonly(numbers), violations
    if not is_regular:
        return Classification(False, None, *pdr, 0, False)
    varies = (np.where(present, ends[0], np.inf).min(axis=1)
              != np.where(present, ends[1], -np.inf).max(axis=1)).T.ravel()
    if varies.any():
        radius, which = divmod(int(varies.argmax()), 3)
        level = radius - (which == 0)
        return Classification(True, None, *pdr, level,
                              level >= dd.diameter - 1 or is_distance_polynomial(dd))
    c, a, b = numbers[0].astype(int).tolist()
    return Classification(True, {"b": b[:-1], "c": c[1:], "a": a}, *pdr, dd.diameter, True)


def _times_a(rows, cols, v: np.ndarray) -> np.ndarray:
    """A v for the (n, k) v, A as its nonzeros: a bincount per column, exact below 2^53."""
    return np.stack([np.bincount(rows, column[cols], len(v)) for column in v.T], axis=1)


def _commutes(dd: DistanceData, rows, cols) -> bool:
    """Whether A (A_i z) = A_i (A z) at every i <= D, as for any A_i in R[A] (Freivalds), for
    z a fixed hash below 2^10; each [A_0 v ... A_D v] is one bincount of exact sums below 2^53."""
    n, top = dd.n, dd.diameter + 1
    index = (np.arange(n)[:, None] * top + dd.dist).ravel()
    z = (np.arange(n) * 2654435761 % 2 ** 32 >> 22).astype(float)  # bincount's own type
    a_z, a_az = (np.bincount(index, np.tile(v, n), n * top).reshape(n, top)
                 for v in (z, _times_a(rows, cols, z[:, None])[:, 0]))
    return np.array_equal(_times_a(rows, cols, a_z), a_az)


def is_distance_polynomial(dd: DistanceData) -> bool:
    """Whether every A_i is a polynomial in A: not if ``_commutes`` fails, else
    for x and y drawn mod each prime p of ``_PRIMES`` (which must agree), if
    every [A_i x; A_i y] lies in the span of the [A^k x; A^k y], in reduced row
    echelon form: x fixes the one r with r(A) x = A_i x, and a random y shows
    A_i = r(A).  The A_i go in stacks of ``CACHE_BLOCK_BYTES``; sums stay exact."""
    rows, cols = (dd.dist == 1).nonzero()  # A, as its nonzeros
    if not _commutes(dd, rows, cols):
        return False
    n, top, step = dd.n, dd.diameter + 1, max(1, CACHE_BLOCK_BYTES // (8 * dd.n ** 2))
    verdicts = []
    for p in _PRIMES:
        w = start = np.random.default_rng(p).integers(0, p, (n, 2)).astype(float)  # [x y]
        basis, pivots = np.zeros((0, 2 * n), dtype=np.int64), []

        def residue(v):  # each [v_x; v_y] of the stack v less its part in the span
            v = v.astype(np.int64).reshape(len(v), -1)
            return (v - v[:, pivots] @ basis) % p
        while (r := residue(w[None])[0]).any():
            pivots.append(c := int(np.flatnonzero(r)[0]))  # the new pivot
            r = r * pow(int(r[c]), p - 2, p) % p
            basis = np.vstack([(basis - np.outer(basis[:, c], r)) % p, r])
            w = _times_a(rows, cols, w) % p
        spheres = (dd.dist == np.arange(i, i + step)[:, None, None] for i in range(0, top, step))
        verdicts.append(not any(residue(s.astype(float) @ start % p).any() for s in spheres))
    if verdicts[0] != verdicts[1]:
        raise ConvergenceError(f"the distance-polynomial test reads {verdicts} mod {_PRIMES}")
    return verdicts[0]
