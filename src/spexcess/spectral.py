"""Eigendecomposition and per-vertex spectral data.

The full symmetric eigendecomposition comes from LAPACK (``np.linalg.eigh``).
Eigenvalues are then grouped into distinct classes and the Perron vector is
extracted in both normalizations (alpha with ||alpha||^2 = n, nu with minimum
entry 1).  The eigenvectors are kept in descending eigenvalue order, so each
class is a run of contiguous columns: class i is the ``mults[i]`` columns
starting at ``mults[0] + ... + mults[i-1]``, and the multiplicities are the
only record of the layout.  Local spectra are read straight from the
eigenvectors: with V_i the orthonormal eigenvectors of class i, the
spectral projector is E_i = V_i V_i^T, so m_u(lambda_i) = (E_i)_{uu} = sum
over class i of V[u, k]^2.  No dense E_i is ever built.

The one genuinely delicate tolerance is ``presence_tol``: local multiplicities
below it are treated as exact zeros, which determines d_u (the number of
nonzero local eigenvalues besides lambda_0) and hence which vertices count as
extremal (ecc_u = d_u).  Raw m_u values are always kept alongside the derived
verdicts so they can be audited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NonPositiveEigenvectorError
from ._util import readonly as _readonly
from .graphs import DistanceData, Graph

DEFAULT_GROUPING_TOL = 1e-7
DEFAULT_PRESENCE_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues (descending) with multiplicities and eigenvectors.

    The columns of ``vectors`` are grouped by class in the order of
    ``lambdas``: lambda_i owns the next ``mults[i]`` columns, and column 0
    is the Perron vector.
    """

    lambdas: np.ndarray
    mults: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return len(self.lambdas) - 1

    @property
    def lambda0(self) -> float:
        return float(self.lambdas[0])

    @property
    def class_index(self) -> np.ndarray:
        """The eigenvalue class of each eigenvector column."""
        return np.repeat(np.arange(len(self.mults)), self.mults)


def eigendecompose(g: Graph,
                   grouping_tol: float = DEFAULT_GROUPING_TOL) -> Spectrum:
    """Spectrum of a connected graph, with eigenvalues grouped into classes.

    Eigenvalues come out descending, and each eigenvector is signed so that
    its first non-negligible component is positive.  Two consecutive
    eigenvalues land in the same class when they differ by at most
    ``grouping_tol * max(1, lambda_0)``; adjacency spectra of small graphs
    have gaps far above LAPACK error, so the default is safe.  A LAPACK
    failure is raised as ConvergenceError.
    """
    try:
        w, v = np.linalg.eigh(np.asarray(g.adjacency, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    w, v = w[::-1].copy(), v[:, ::-1]
    mag = np.abs(v)
    lead = np.argmax(mag > 1e-8 * mag.max(axis=0), axis=0)
    v = v * np.where(v[lead, np.arange(len(w))] < 0, -1.0, 1.0)
    gap = grouping_tol * max(1.0, abs(w[0]))
    classes = np.split(w, np.flatnonzero(w[:-1] - w[1:] > gap) + 1)
    lambdas = np.array([c.mean() for c in classes])
    mults = np.array([len(c) for c in classes], dtype=np.int64)
    return Spectrum(lambdas=_readonly(lambdas), mults=_readonly(mults),
                    vectors=_readonly(v))


@dataclass(frozen=True)
class PerronWeights:
    """The positive eigenvector of lambda_0 in both normalizations.

    ``alpha`` has ||alpha||^2 = n, ``nu`` has minimum component 1; the map
    rho sends u to the weighted coordinate vector alpha_u * e_u, so the
    squared norm of rho over a vertex subset is the sum of alpha_u^2.
    """

    alpha: np.ndarray
    nu: np.ndarray

    @property
    def n(self) -> int:
        return len(self.alpha)


def perron_weights(spec: Spectrum, pos_tol: float = 1e-10) -> PerronWeights:
    """Perron vector from the top eigenclass (requires multiplicity 1)."""
    if spec.mults[0] != 1:
        raise NonPositiveEigenvectorError(
            f"top eigenvalue has multiplicity {spec.mults[0]}; check grouping tolerance"
        )
    v0 = spec.vectors[:, 0].copy()
    if v0[np.argmax(np.abs(v0))] < 0:
        v0 = -v0
    alpha = math.sqrt(spec.n) * v0 / np.linalg.norm(v0)
    if np.any(alpha <= pos_tol):
        raise NonPositiveEigenvectorError(
            f"Perron vector has entries <= {pos_tol}: min={alpha.min():.3e}"
        )
    nu = alpha / alpha.min()
    return PerronWeights(alpha=_readonly(alpha), nu=_readonly(nu))


@dataclass(frozen=True)
class LocalSpectrum:
    """Local multiplicities of one vertex and the derived extremality data.

    ``local_mults[i] = (E_i)_{uu}``, nonnegative and summing to 1 over i;
    ``support`` holds the indices with mass above the presence threshold,
    and ``du`` counts them excluding lambda_0.
    """

    vertex: int
    local_mults: np.ndarray
    support: np.ndarray
    du: int
    eccentricity: int
    is_extremal: bool


def class_sums(x: np.ndarray, spec: Spectrum) -> np.ndarray:
    """Sum the last axis of ``x`` over each eigenvalue class (classes are contiguous)."""
    return np.add.reduceat(x, np.cumsum(spec.mults) - spec.mults, axis=-1)


def local_spectra(spec: Spectrum, dd: DistanceData,
                  presence_tol: float = DEFAULT_PRESENCE_TOL) -> tuple[LocalSpectrum, ...]:
    """Local spectra of every vertex from one (n, d+1) array of m_u(lambda_i);
    lambda_i belongs to the local spectrum of u when m_u(lambda_i) exceeds
    ``presence_tol``."""
    m = class_sums(spec.vectors ** 2, spec)
    out = []
    for u in range(dd.n):
        support = np.flatnonzero(m[u] > presence_tol)
        if 0 not in support:
            raise NonPositiveEigenvectorError(
                f"vertex {u} has no lambda_0 mass ({m[u, 0]:.3e}); numerical failure"
            )
        du, ecc = len(support) - 1, int(dd.ecc[u])
        out.append(LocalSpectrum(vertex=u, local_mults=_readonly(m[u]),
                                 support=_readonly(support), du=du,
                                 eccentricity=ecc, is_extremal=(ecc == du)))
    return tuple(out)
