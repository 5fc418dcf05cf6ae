"""Eigendecomposition and per-vertex spectral data.

The full symmetric eigendecomposition comes from LAPACK (``np.linalg.eigh``).
Eigenvalues are then grouped into distinct classes and the Perron vector is
extracted in one normalization, alpha with ||alpha||^2 = n: every statistic
and check reads that one vector.  On a regular graph it is exactly all-ones,
read from the degrees rather than from the eigensolver, so J* and the A*_i
are exact 0/1 matrices and the weighted neighbour counts exact integers.  The
eigenvectors are kept in descending eigenvalue order, so each class is a
run of contiguous columns: class i is the ``mults[i]`` columns starting at
``mults[0] + ... + mults[i-1]``, and the multiplicities are the only record
of the layout; the signs are LAPACK's, as no consumer reads one (squares,
V diag(p) V^T and V (p * V^T x) are bit for bit the same under a negated
column, and ``perron_weights`` signs its own vector).  Local spectra are
read straight from the eigenvectors: with V_i the orthonormal eigenvectors
of class i, the spectral projector is E_i = V_i V_i^T, so m_u(lambda_i) =
(E_i)_{uu} = sum over class i of V[u, k]^2.  No dense E_i is ever built.
``LocalSpectra`` keeps them as arrays over the vertices, with d_u and the
local excess p^u_{d_u}(lambda_0) in closed form (``top_p_lambda0``), so no
predistance family is built.

Eigenvalue classes and local supports take no tolerance: one residual pass
decides both.  R = AV - V diag(theta), theta_k column k's own eigenvalue,
has column norms r_k, floored at n eps max(1, lambda_0) (rounding).  A true
eigenvalue lies within r_k of theta_k (Weyl), so theta_k and theta_{k+1}
share a class iff theta_k - theta_{k+1} <= r_k + r_{k+1}.  ``residuals``
adds |theta_k - lambda of k's class| to r_k.  With gap_i lambda_i's distance
to its nearest class less both classes' largest residual, the Davis-Kahan
sin-theta bound puts sqrt(m_u(lambda_i)) within s_i = ||residuals of class
i|| / gap_i of the computed one, so lambda_i (i >= 1) is in u's support
when it exceeds (1 + sqrt 2) s_i; a gap <= 0 raises.  lambda_0, present by
Perron-Frobenius, meets floors instead: its mass ``_LAMBDA0_FLOOR`` and its
gap to lambda_1 ``_LAMBDA0_GAP`` max(1, lambda_0).  Past them, trees and
lollipops would reach equality tests that do not compare at alpha_u's
scale, and barbells a Perron vector whose mirror halves differ at the scale
of the equality tolerance.  Raw m_u values and the margins, per vertex the
kept and dropped sqrt(m_u(lambda_i)) / s_i nearest the rule, are kept for audit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateMeasureError, NonPositiveEigenvectorError
from ._util import readonly as _readonly
from .graphs import Graph

_PERRON_POS_TOL = 1e-10  # a Perron vector entry at or below it is a numerical failure
_LAMBDA0_FLOOR = 1e-9  # a lambda_0 mass at or below it is a numerical failure
_LAMBDA0_GAP = 1e-7  # lambda_0 - lambda_1 at or below it, times max(1, lambda_0), is one too


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues (descending) with multiplicities and eigenvectors.

    The columns of ``vectors`` are grouped by class in the order of
    ``lambdas``: lambda_i owns the next ``mults[i]`` columns, and column 0
    is the Perron vector.  The layout is promised, not the signs.
    ``residuals[k]`` bounds ||A v_k - lambda v_k|| for k's class lambda.
    """

    lambdas: np.ndarray
    mults: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return len(self.lambdas) - 1

    @property
    def lambda0(self) -> float:
        return float(self.lambdas[0])

    @functools.cached_property
    def class_index(self) -> np.ndarray:
        """The eigenvalue class of each eigenvector column."""
        return _readonly(np.repeat(np.arange(len(self.mults)), self.mults))


def eigendecompose(g: Graph) -> Spectrum:
    """Spectrum of a connected graph, with eigenvalues grouped into classes.

    Eigenvalues come out descending and the eigenvectors as one contiguous
    array with LAPACK's signs (no consumer reads a sign: module note).  Two
    consecutive eigenvalues land in the same class when their residual
    intervals overlap, and each class takes its members' mean (module
    note).  A LAPACK failure is raised as ConvergenceError.
    """
    a = np.asarray(g.adjacency, dtype=float)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    r = np.linalg.norm(a @ v - v * w, axis=0).clip(len(w) * np.finfo(float).eps * max(1.0, w[0]))
    starts = np.concatenate(([0], (w[:-1] - w[1:] > r[:-1] + r[1:]).nonzero()[0] + 1))
    mults = np.concatenate((starts[1:], [len(w)])) - starts
    lambdas = w[starts]  # a singleton class is its own mean
    multi = (mults > 1).nonzero()[0]
    for i, s, m in zip(multi.tolist(), starts[multi].tolist(), mults[multi].tolist()):
        lambdas[i] = w[s:s + m].mean()
    r += np.abs(w - np.repeat(lambdas, mults))
    return Spectrum(lambdas=_readonly(lambdas), mults=_readonly(mults),
                    vectors=_readonly(v), residuals=_readonly(r))


def perron_weights(spec: Spectrum, degrees: np.ndarray) -> np.ndarray:
    """The read-only Perron vector alpha, the positive eigenvector of the top
    eigenclass with ||alpha||^2 = n.  The map rho sends u to the weighted
    coordinate vector alpha_u * e_u, so the squared norm of rho over a
    vertex subset is the sum of alpha_u^2.  A gap lambda_0 - lambda_1 at or
    below its floor, or a top class of multiplicity above 1, raises.

    When all ``degrees`` are equal the graph is regular, its Perron vector
    is the all-ones vector, and alpha is returned as exact ones instead of
    the eigensolver's 1 +- 1e-15.
    """
    if spec.n > 1:  # K1 has no lambda_1
        gap = float(spec.lambdas[0] - spec.lambdas[1]) if spec.mults[0] == 1 else 0.0
        if gap <= _LAMBDA0_GAP * max(1.0, spec.lambda0):
            raise NonPositiveEigenvectorError(f"lambda_0 - lambda_1 = {gap:.3e} is at or below "
                                              f"the {_LAMBDA0_GAP:g} max(1, lambda_0) floor")
    if (degrees == degrees[0]).all():
        return _readonly(np.ones(spec.n))
    v0 = spec.vectors[:, 0]
    v0 = -v0 if v0[abs(v0).argmax()] < 0 else v0  # LAPACK's sign is either
    alpha = math.sqrt(spec.n) * v0 / np.linalg.norm(v0)
    if (alpha <= _PERRON_POS_TOL).any():
        raise NonPositiveEigenvectorError(
            f"Perron vector has entries <= {_PERRON_POS_TOL}: min={alpha.min():.3e}"
        )
    return _readonly(alpha)


@dataclass(frozen=True)
class LocalSpectra:
    """Local spectra of all vertices, row u for vertex u, all read-only.

    ``mults[u, i] = (E_i)_{uu}``, nonnegative and summing to 1 over i;
    ``du[u]`` counts the lambda_i other than lambda_0 whose mass the
    residual bound proves present (module note); ``excess[u]`` is
    p^u_{d_u}(lambda_0), the top local predistance polynomial at lambda_0;
    ``margins[:, u]`` u's smallest kept and largest dropped margin, inf and -inf for none.
    """

    mults: np.ndarray
    du: np.ndarray
    excess: np.ndarray
    margins: np.ndarray


def class_sums(x: np.ndarray, spec: Spectrum) -> np.ndarray:
    """Sum the last axis of ``x`` over each eigenvalue class (classes are contiguous)."""
    return np.add.reduceat(x, spec.mults.cumsum() - spec.mults, axis=-1)


def top_p_lambda0(nodes, weights, support, scale) -> np.ndarray:
    """p_N(lambda_0) for the measure in each row of ``weights``, N + 1 being
    the size of its ``support`` (a boolean mask over ``nodes``) and s its
    ``scale``.  On N + 1 points the degree-N orthonormal polynomial is
    C / (w_k omega'(lambda_k)) at node k (omega the nodal polynomial), so
    with pi_k = prod_{i in supp, i != k} |lambda_k - lambda_i|

        p_N(lambda_0) = s / (w_0^2 pi_0^2 sum_{k in supp} 1 / (w_k pi_k^2)),

    and s = 1, w = m/n give the spectral excess n / (pi_0^2 sum 1/(m_k pi_k^2)).
    Evaluated in logs, for all rows at once: a sum of positive terms.
    """
    support = np.asarray(support, dtype=bool)
    gaps = np.abs(np.subtract.outer(nodes, nodes))
    np.fill_diagonal(gaps, 1.0)
    log_pi = support @ np.log(gaps)  # gaps is symmetric: row k pairs with node k
    log_w = np.log(np.where(support, weights, 1.0))
    terms = np.where(support, -log_w - 2.0 * log_pi, -np.inf)
    peak = terms.max(axis=-1)
    log_sum = peak + np.log(np.exp(terms - peak[..., None]).sum(axis=-1))
    return scale * np.exp(-2.0 * (log_w[..., 0] + log_pi[..., 0]) - log_sum)


def local_spectra(spec: Spectrum) -> LocalSpectra:
    """Local spectra of every vertex from one (n, d+1) array of m_u(lambda_i), each
    support by the module note's bound, each excess at s = alpha_u^2 = n m_u(lambda_0)."""
    m = _readonly(class_sums(spec.vectors ** 2, spec))
    u = int(np.argmax(m[:, 0] <= _LAMBDA0_FLOOR))
    if m[u, 0] <= _LAMBDA0_FLOOR:
        raise NonPositiveEigenvectorError(
            f"vertex {u}: lambda_0 mass {m[u, 0]:.3e} is at or below the {_LAMBDA0_FLOOR:g} floor")
    r_max = np.maximum.reduceat(spec.residuals, spec.mults.cumsum() - spec.mults)
    shrunk = spec.lambdas[:-1] - spec.lambdas[1:] - r_max[:-1] - r_max[1:]
    if (shrunk <= 0).any():
        i = int(shrunk.argmin())
        raise DegenerateMeasureError(f"classes {i} and {i + 1} lie within their residuals "
                                     f"(gap {shrunk[i]:.1e}): eigenvalues may be wrongly grouped")
    gap = np.minimum(np.append(np.inf, shrunk), np.append(shrunk, np.inf))
    ratio = np.sqrt(m) * gap / np.sqrt(class_sums(spec.residuals ** 2, spec))
    present = ratio > 1.0 + math.sqrt(2.0)
    present[:, 0] = True
    margins = np.array([np.where(present, ratio, np.inf)[:, 1:].min(axis=1, initial=np.inf),
                        np.where(present, -np.inf, ratio).max(axis=1)])  # lambda_0 in neither
    excess = _readonly(top_p_lambda0(spec.lambdas, m, present, spec.n * m[:, 0]))
    return LocalSpectra(m, _readonly(present.sum(axis=1) - 1), excess, _readonly(margins))
