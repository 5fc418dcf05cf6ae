"""Combinatorial oracles for every regularity notion checked spectrally.

These are deliberately independent of the polynomial machinery: they count
and compare neighbors directly so that the spectral characterizations
(pseudo-distance-regularity, partial distance-regularity, the
distance-polynomial property) can be cross-validated on both routes.

Pseudo-distance-regularity around u (weighted): for v in Gamma_i(u),

    c*_i(v) = (1/alpha_v) sum of alpha_w over neighbors w of v in Gamma_{i-1}(u)
    a*_i(v) = same with Gamma_i(u),   b*_i(v) = same with Gamma_{i+1}(u)

and the graph is pseudo-distance-regular around u when each triple is
constant over the sphere.  With alpha = all-ones this reduces to classical
distance-regularity around u.  (Every neighbor of v lies in one of the three
spheres, so c*_i(v) + a*_i(v) + b*_i(v) is the average weighted degree
lambda_0 -- a useful sanity check.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import readonly as _readonly
from .graphs import DistanceData, Graph
from .poly import PolySequence, evaluate_at_matrix
from .spectral import LocalSpectrum, PerronWeights, Spectrum, class_sums

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


def _weighted_counts(u: int, dd: DistanceData, alpha: np.ndarray,
                     adjacency: np.ndarray):
    """Per-vertex weighted triples (c*, a*, b*) around u, grouped by radius."""
    ecc = int(dd.ecc[u])
    du_row = dd.dist[u]
    out = []
    for i in range(ecc + 1):
        members = dd.sphere(u, i)
        rows = adjacency[members]
        prev = (du_row == i - 1) if i >= 1 else np.zeros(dd.n, dtype=bool)
        same = du_row == i
        nxt = du_row == i + 1
        c = rows @ (alpha * prev) / alpha[members]
        a = rows @ (alpha * same) / alpha[members]
        b = rows @ (alpha * nxt) / alpha[members]
        out.append((members, c, a, b))
    return out


def is_pseudo_dr_around(u: int, dd: DistanceData, pw: PerronWeights,
                        tol: float = DEFAULT_ORACLE_TOL) -> PseudoDRResult:
    """Constancy oracle for pseudo-distance-regularity around u."""
    profile = _weighted_counts(u, dd, pw.alpha, _adjacency_from(dd))
    numbers = np.zeros((3, len(profile)))
    for i, (members, c, a, b) in enumerate(profile):
        for which, vals in (("c", c), ("a", a), ("b", b)):
            spread = float(vals.max() - vals.min())
            if spread > tol * max(1.0, float(np.abs(vals).max())):
                v = int(members[np.argmin(vals)])
                w = int(members[np.argmax(vals)])
                return PseudoDRResult(
                    vertex=u, is_pdr=False, numbers=None,
                    violation=(i, v, w, float(vals.min()), float(vals.max()), which),
                )
        numbers[0, i] = c.mean()
        numbers[1, i] = a.mean()
        numbers[2, i] = b.mean()
    return PseudoDRResult(vertex=u, is_pdr=True,
                          numbers=_readonly(numbers), violation=None)


def _adjacency_from(dd: DistanceData) -> np.ndarray:
    return dd.distance_matrices[1] if dd.diameter >= 1 else np.zeros((dd.n, dd.n))


@dataclass(frozen=True)
class DistanceRegularityResult:
    is_drg: bool
    intersection_array: dict | None
    violation: tuple | None


def is_distance_regular(dd: DistanceData) -> DistanceRegularityResult:
    """Unweighted intersection-number constancy over every root vertex.

    Counts are integers, so constancy is exact.  When distance-regular the
    result carries the intersection array {b_0..b_{D-1}; c_1..c_D} plus the
    a_i row.
    """
    n = dd.n
    big_d = dd.diameter
    adjacency = _adjacency_from(dd)
    c = np.full(big_d + 1, -1.0)
    a = np.full(big_d + 1, -1.0)
    b = np.full(big_d + 1, -1.0)
    for u in range(n):
        if dd.ecc[u] != big_d:
            # distance-regular graphs have equal eccentricities everywhere
            return DistanceRegularityResult(
                False, None, ("ecc", u, int(dd.ecc[u]), big_d))
        du_row = dd.dist[u]
        for i in range(big_d + 1):
            members = dd.sphere(u, i)
            rows = adjacency[members]
            triples = (
                rows @ (du_row == i - 1) if i >= 1 else np.zeros(len(members)),
                rows @ (du_row == i),
                rows @ (du_row == i + 1),
            )
            for arr, vals in zip((c, a, b), triples):
                vals = np.asarray(vals, dtype=float)
                if vals.size == 0:
                    continue
                if vals.max() != vals.min():
                    return DistanceRegularityResult(
                        False, None, ("sphere", u, i, float(vals.min()), float(vals.max())))
                if arr[i] < 0:
                    arr[i] = vals[0]
                elif arr[i] != vals[0]:
                    return DistanceRegularityResult(
                        False, None, ("root", u, i, float(arr[i]), float(vals[0])))
    array = {
        "b": [int(b[i]) for i in range(big_d)],
        "c": [int(c[i]) for i in range(1, big_d + 1)],
        "a": [int(a[i]) for i in range(big_d + 1)],
    }
    return DistanceRegularityResult(True, array, None)


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
    for i, a_i in enumerate(dd.distance_matrices):
        diag = np.einsum("uk,uk->k", v, a_i @ v)  # (V^T A_i V)_kk
        coef = class_sums(diag, spec) / spec.mults
        residuals[i] = np.linalg.norm(a_i - (v * coef[spec.class_index]) @ v.T)
    ok = bool(np.all(residuals <= tol * dd.n))
    return ok, _readonly(residuals)


def partial_dr_level(dd: DistanceData, spec: Spectrum, seq: PolySequence,
                     tol: float = DEFAULT_ORACLE_TOL) -> int:
    """Largest m <= min(D, d) with p_i(A) = A_i entrywise for all i <= m.

    Level 0 always holds (p_0 = 1); level >= 1 requires regularity because
    p_1 = (lambda_0 / mean degree) x, so nonregular graphs report level 0.
    """
    top = min(dd.diameter, seq.top_degree)
    level = 0
    for i in range(1, top + 1):
        diff = evaluate_at_matrix(seq.values[i], spec) - dd.distance_matrices[i]
        if np.abs(diff).max() > tol * max(1.0, dd.n):
            break
        level = i
    return level


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
    extremal_vertices: tuple[int, ...]

    @property
    def pseudo_dr_vertices(self) -> tuple[int, ...]:
        return tuple(r.vertex for r in self.pseudo_dr if r.is_pdr)


def classify_graph(g: Graph, dd: DistanceData, pw: PerronWeights,
                   spec: Spectrum, seq: PolySequence,
                   locals_: tuple[LocalSpectrum, ...],
                   tol: float = DEFAULT_ORACLE_TOL) -> Classification:
    degrees = g.adjacency.sum(axis=1)
    is_regular = bool(np.all(degrees == degrees[0]))
    drg = is_distance_regular(dd)
    pdr = tuple(is_pseudo_dr_around(u, dd, pw, tol) for u in range(g.n))
    is_dp, residuals = is_distance_polynomial(dd, spec, tol)
    level = partial_dr_level(dd, spec, seq, tol)
    return Classification(
        is_regular=is_regular,
        is_distance_regular=drg.is_drg,
        intersection_array=drg.intersection_array,
        pseudo_dr=pdr,
        partial_dr_level=level,
        is_distance_polynomial=is_dp,
        distance_poly_residuals=residuals,
        extremal_vertices=tuple(ls.vertex for ls in locals_ if ls.is_extremal),
    )
