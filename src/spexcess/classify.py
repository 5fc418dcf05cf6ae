"""Combinatorial oracles for every regularity notion checked spectrally.

The checks in ``theorems`` read the predistance polynomials; these oracles
never do (this module imports nothing from ``poly``).  Pseudo-distance-
and distance-regularity and the partial distance-regularity level count
neighbours directly; the distance-polynomial oracle projects each A_i onto
the eigenvector classes.

Pseudo-distance-regularity around u (weighted): for v in Gamma_i(u),

    c*_i(v) = (1/alpha_v) sum of alpha_w over neighbors w of v in Gamma_{i-1}(u)
    a*_i(v) = same with Gamma_i(u),   b*_i(v) = same with Gamma_{i+1}(u)

and the graph is pseudo-distance-regular around u when each triple is
constant over the sphere.  With alpha = all-ones this reduces to classical
distance-regularity around u.  (Every neighbor of v lies in one of the three
spheres, so c*_i(v) + a*_i(v) + b*_i(v) is the average weighted degree
lambda_0 -- a useful sanity check.)

One sweep of one kernel, ``_sphere_profile``, answers every counting
question.  It runs over every root at once: per radius, one dense product
gives the (n x n) count matrix, so memory stays O(n^2).  Regularity is read
from the degrees.  On a regular graph the Perron vector is exactly all-ones
(``spectral.perron_weights``), so the weighted counts are the classical
intersection numbers, sums of 0/1 products: integers far below 2^53.  Their
constancy tests, per root for pseudo-distance-regularity and over all pairs
for distance-regularity and the partial distance-regularity level, are then
exact comparisons.  A nonregular graph is not distance-regular and has
level 0, so only the per-root question is asked of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import readonly as _readonly
from .graphs import DistanceData
from .spectral import PerronWeights, Spectrum, class_sums

DEFAULT_ORACLE_TOL = 1e-7


@dataclass(frozen=True)
class PseudoDRResult:
    """Outcome of the weighted constancy check around one vertex.

    When constant, ``numbers`` has rows c*, a*, b* over i = 0..ecc(u)
    (c*_0 = 0 and b*_ecc = 0 by convention).  Otherwise ``violation``
    records the first offending (i, v, w, value_v, value_w, which).
    """

    vertex: int
    is_pdr: bool
    numbers: np.ndarray | None
    violation: tuple | None


def _sphere_profile(dd: DistanceData, w: np.ndarray):
    """Weighted neighbour counts around every root at once, radius by radius.

    With X_j = ((dist == j) o w) A, entry X_j[u, v] is the w-weight of the
    neighbours of v in Gamma_j(u).  Yields (i, mask, c, a, b) for
    i = 0..D, where ``mask[u, v]`` says v lies in Gamma_i(u) and c, a, b
    are X_{i-1}, X_i, X_{i+1} divided by w_v (read them where ``mask``
    holds).  Only three X are alive at a time.
    """
    adjacency = dd.matrix(1)
    zero = np.zeros((dd.n, dd.n))

    def counts(j):
        if j > dd.diameter:
            return zero
        return np.where(dd.dist == j, w, 0.0) @ adjacency / w

    prev, cur = zero, counts(0)
    for i in range(dd.diameter + 1):
        nxt = counts(i + 1)
        yield i, dd.dist == i, prev, cur, nxt
        prev, cur = cur, nxt


def _regularity_sweep(dd: DistanceData, alpha: np.ndarray, tol: float):
    """Pseudo-distance-regularity around every root and, on a regular graph,
    distance-regularity and the partial distance-regularity level, from one
    pass of ``_sphere_profile``.  Returns (is_regular, intersection_array,
    level, pseudo_dr).

    Per root u, a triple is constant over a sphere when its spread is at
    most tol * max(1, max |value|).  A root's violation is its first failing
    radius, checking c before a before b; v and w are the lowest-numbered
    vertices attaining the minimum and the maximum (on a regular graph the
    counts are exact, so no rounding breaks a tie).  A root is live at
    radius i while ecc(u) >= i and it has no violation.

    Over all pairs, for v in Gamma_i(u), c_i, a_i and b_i count the
    neighbours of v in Gamma_{i-1}(u), Gamma_i(u) and Gamma_{i+1}(u); a
    count is constant at radius i when its minimum over the live roots
    equals its maximum.  Until the level is fixed every root with
    ecc(u) >= i is still live: a per-root variation is a global one, and
    would have fixed the level at its radius.

    ``level`` is the largest m <= D with p_i(A) = A_i for all i <= m.  A
    nonregular graph, told by its degrees, has p_1(A) = (lambda_0 / mean
    degree) A != A and gets level 0.  For a regular graph, p_i(A) = A_i for
    all i <= m iff c_1..c_m and a_1..a_{m-1} are constant:

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
    degrees = np.count_nonzero(dd.dist == 1, axis=1)
    is_regular = bool(np.all(degrees == degrees[0]))
    level = None if is_regular else 0
    numbers = np.zeros((dd.n, 3, dd.diameter + 1))
    violation = [None] * dd.n
    for i, mask, *triple in _sphere_profile(dd, alpha):
        live = np.flatnonzero((dd.ecc >= i)
                              & np.array([v is None for v in violation]))
        if live.size == 0:
            break
        mask, rows = mask[live], np.arange(live.size)
        for k, (which, x) in enumerate(zip("cab", triple)):
            x = x[live]
            at_lo = np.where(mask, x, np.inf).argmin(axis=1)
            at_hi = np.where(mask, x, -np.inf).argmax(axis=1)
            lo, hi = x[rows, at_lo], x[rows, at_hi]
            if level is None and lo.min() != hi.max():
                level = i - (k == 0)
            scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
            for r in np.flatnonzero(hi - lo > tol * scale):
                if violation[live[r]] is None:
                    violation[live[r]] = (i, int(at_lo[r]), int(at_hi[r]),
                                          float(lo[r]), float(hi[r]), which)
            numbers[live, k, i] = np.where(mask, x, 0.0).sum(axis=1) / mask.sum(axis=1)
    pseudo_dr = tuple(
        PseudoDRResult(vertex=u, is_pdr=False, numbers=None, violation=violation[u])
        if violation[u] is not None else
        PseudoDRResult(vertex=u, is_pdr=True, violation=None,
                       numbers=_readonly(numbers[u, :, :dd.ecc[u] + 1].copy()))
        for u in range(dd.n))
    if level is not None:
        return is_regular, None, level, pseudo_dr
    big_d = dd.diameter
    c, a, b = numbers[0]
    array = {
        "b": [int(b[i]) for i in range(big_d)],
        "c": [int(c[i]) for i in range(1, big_d + 1)],
        "a": [int(a[i]) for i in range(big_d + 1)],
    }
    return True, array, big_d, pseudo_dr


def is_distance_polynomial(dd: DistanceData, spec: Spectrum,
                           tol: float = DEFAULT_ORACLE_TOL) -> tuple[bool, np.ndarray]:
    """Membership of each A_i in the adjacency algebra span{E_0, ..., E_d}.

    The orthogonal projection of A_i onto that span (Frobenius inner
    product) is sum_k (tr(A_i E_k) / m_k) E_k with E_k = V_k V_k^T, built
    from the eigenvectors without matrix powers.  A graph is
    distance-polynomial iff every Frobenius residual of A_i minus its
    projection is at most tol * n.
    """
    v = spec.vectors
    residuals = np.zeros(dd.diameter + 1)
    for i in range(dd.diameter + 1):
        a_i = dd.matrix(i)
        diag = np.einsum("uk,uk->k", v, a_i @ v)  # (V^T A_i V)_kk
        coef = class_sums(diag, spec) / spec.mults
        residuals[i] = np.linalg.norm(a_i - (v * coef[spec.class_index]) @ v.T)
    ok = bool(np.all(residuals <= tol * dd.n))
    return ok, _readonly(residuals)


@dataclass(frozen=True)
class Classification:
    """Bundle of every combinatorial verdict for one graph."""

    is_regular: bool
    is_distance_regular: bool
    intersection_array: dict | None
    pseudo_dr: tuple[PseudoDRResult, ...]
    partial_dr_level: int
    is_distance_polynomial: bool
    distance_poly_residuals: np.ndarray

    @property
    def pseudo_dr_vertices(self) -> tuple[int, ...]:
        return tuple(r.vertex for r in self.pseudo_dr if r.is_pdr)


def classify_graph(dd: DistanceData, pw: PerronWeights, spec: Spectrum,
                   tol: float = DEFAULT_ORACLE_TOL) -> Classification:
    is_regular, array, level, pdr = _regularity_sweep(dd, pw.alpha, tol)
    is_dp, residuals = is_distance_polynomial(dd, spec, tol)
    return Classification(
        is_regular=is_regular,
        is_distance_regular=array is not None,
        intersection_array=array,
        pseudo_dr=pdr,
        partial_dr_level=level,
        is_distance_polynomial=is_dp,
        distance_poly_residuals=residuals,
    )
