"""Eigendecomposition and per-vertex spectral data.

The full symmetric eigendecomposition comes from LAPACK (``np.linalg.eigh``).
Eigenvalues are then grouped into distinct classes and the Perron vector is
extracted in both normalizations (alpha with ||alpha||^2 = n, nu with minimum
entry 1).  Local spectra are read straight from the eigenvectors: with V_i
the orthonormal eigenvectors of class i, the spectral projector is
E_i = V_i V_i^T, so m_u(lambda_i) = (E_i)_{uu} = sum over class i of V[u, k]^2.
No dense E_i is ever built.

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

    ``classes[i]`` indexes the eigenvector columns belonging to lambda_i.
    """

    lambdas: np.ndarray
    mults: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray
    classes: tuple[np.ndarray, ...]

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
    classes = []
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k - 1] - w[k] > gap:
            classes.append(np.arange(start, k))
            start = k
    lambdas = np.array([w[c].mean() for c in classes])
    mults = np.array([len(c) for c in classes], dtype=np.int64)
    return Spectrum(
        lambdas=_readonly(lambdas),
        mults=_readonly(mults),
        eigenvalues=_readonly(w),
        vectors=_readonly(v),
        classes=tuple(_readonly(c) for c in classes),
    )


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

    def rho(self, u: int) -> np.ndarray:
        vec = np.zeros(self.n)
        vec[u] = self.alpha[u]
        return vec

    def rho_norm_sq(self, subset) -> float:
        return float(np.sum(self.alpha[np.asarray(subset, dtype=np.int64)] ** 2))


def perron_weights(spec: Spectrum, pos_tol: float = 1e-10) -> PerronWeights:
    """Perron vector from the top eigenclass (requires multiplicity 1)."""
    if spec.mults[0] != 1:
        raise NonPositiveEigenvectorError(
            f"top eigenvalue has multiplicity {spec.mults[0]}; check grouping tolerance"
        )
    v0 = spec.vectors[:, spec.classes[0][0]].copy()
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

    def local_eigenvalues(self, spec: Spectrum) -> np.ndarray:
        return spec.lambdas[self.support]


def class_sums(x: np.ndarray, spec: Spectrum) -> np.ndarray:
    """Sum the last axis of ``x`` over each eigenvalue class (classes are contiguous)."""
    return np.add.reduceat(x, [int(c[0]) for c in spec.classes], axis=-1)


def _local_spectrum(u: int, m: np.ndarray, dd: DistanceData,
                    presence_tol: float) -> LocalSpectrum:
    support = np.flatnonzero(m > presence_tol)
    if 0 not in support:
        raise NonPositiveEigenvectorError(
            f"vertex {u} has no lambda_0 mass ({m[0]:.3e}); numerical failure"
        )
    du = len(support) - 1
    ecc = int(dd.ecc[u])
    return LocalSpectrum(
        vertex=u,
        local_mults=_readonly(m),
        support=_readonly(support),
        du=du,
        eccentricity=ecc,
        is_extremal=(ecc == du),
    )


def local_spectrum(u: int, spec: Spectrum, dd: DistanceData,
                   presence_tol: float = DEFAULT_PRESENCE_TOL) -> LocalSpectrum:
    """Local spectrum of vertex u; membership decided by ``presence_tol``."""
    return _local_spectrum(u, class_sums(spec.vectors[u] ** 2, spec), dd, presence_tol)


def local_spectra(spec: Spectrum, dd: DistanceData,
                  presence_tol: float = DEFAULT_PRESENCE_TOL) -> tuple[LocalSpectrum, ...]:
    """Local spectra of every vertex from one (n, d+1) array of m_u(lambda_i)."""
    m = class_sums(spec.vectors ** 2, spec)
    return tuple(_local_spectrum(u, m[u], dd, presence_tol) for u in range(dd.n))
