"""Orthogonal polynomials of the global and local spectral measures.

The global inner product puts weight m(lambda_i)/n on each distinct
eigenvalue, so that <p, q> = (1/n) tr(p(A) q(A)); the u-local product puts
weight m_u(lambda_i) on each, so that <p, q>_u = (p(A) q(A))_{uu}.  The
predistance polynomials are the orthogonal family for these measures with the
normalizations

    global:  ||p_i||^2   = p_i(lambda_0)
    local:   ||p_i^u||^2 = alpha_u^2 * p_i^u(lambda_0)

The sum polynomials q_j = p_0 + ... + p_j top out at the Hoffman polynomial
(global: q_d(lambda_i) = n * delta_{0i}, q_d(A) = alpha alpha^T) and its
per-vertex analog (local: q_{d_u}^u(lambda_0) = n with q_{d_u}^u(A) e_u =
q_d(A) e_u).  Both facts fall out of q being the reproducing kernel of the
evaluation at lambda_0 under these normalizations.

Every measure lives on the d+1 distinct eigenvalues, so a polynomial of
degree <= d *is* its vector of values there, and that vector is the only
form kept: no monomial coefficients, which lose all accuracy at high
degree.  The families come from the discretized Stieltjes (Lanczos)
procedure with full reorthogonalization (Gautschi, *Orthogonal Polynomials:
Computation and Approximation*, 2004, section 2.2), run on many measures at
once.  The three-term recurrence

    x * p_i = b_{i-1} p_{i-1} + a_i p_i + c_{i+1} p_{i+1}

comes out of the same pass; its coefficients are the preintersection
numbers, which for distance-regular graphs coincide with the classical
intersection numbers.  Matrix evaluation goes through the eigenvectors:
p(A) = V diag(p(lambda)) V^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import readonly as _readonly
from .errors import DegenerateMeasureError, DegreeError
from .spectral import Spectrum

_DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class PolySequence:
    """A predistance family p_0..p_m, stored as values on the eigenvalues.

    ``values[i, k]`` is p_i(lambda_k) and ``weights[k]`` the measure's mass
    at lambda_k.  ``rec_a[i]`` holds a_i for i = 0..m; ``rec_b[i]`` holds
    b_i for i = 0..m-1; ``rec_c[i]`` holds c_{i+1} for i = 0..m-1.
    ``norm_scale`` is 1 for the global family and alpha_u^2 for the local
    family of ``vertex`` u (None for the global family).
    """

    weights: np.ndarray
    values: np.ndarray
    rec_a: np.ndarray
    rec_b: np.ndarray
    rec_c: np.ndarray
    norm_scale: float
    vertex: int | None

    @property
    def top_degree(self) -> int:
        return len(self.values) - 1

    @property
    def p_lambda0(self) -> np.ndarray:
        """p_i(lambda_0), always positive."""
        return self.values[:, 0]

    @property
    def q_lambda0(self) -> np.ndarray:
        """q_j(lambda_0) = p_0(lambda_0) + ... + p_j(lambda_0)."""
        return np.cumsum(self.values[:, 0])

    def sum_values(self, j: int) -> np.ndarray:
        """q_j = p_0 + ... + p_j on the eigenvalues."""
        return self.values[: j + 1].sum(axis=0)


def predistance_polynomials(nodes, weights, degrees,
                            alpha=None) -> tuple[PolySequence, ...]:
    """One predistance family per row of ``weights``, in one batched pass.

    ``nodes`` are the distinct eigenvalues (descending, lambda_0 first),
    row r of ``weights`` a measure on them and ``degrees[r]`` the top degree
    of its family.  With ``alpha`` None the rows are global measures
    (s = 1); otherwise row u is the u-local measure, with s = alpha[u]^2.

    Builds the orthonormal family phi_0..phi_m by the Stieltjes procedure
    (phi_j from x * phi_{j-1}, orthogonalized twice against every earlier
    phi), then rescales: p_j = s * phi_j(lambda_0) * phi_j satisfies
    ||p_j||^2 = s * p_j(lambda_0) and p_j(lambda_0) > 0.
    """
    nodes = np.asarray(nodes, dtype=float)
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    degrees = np.asarray(degrees, dtype=np.int64)
    rows = len(w)
    if alpha is None:
        scale = np.ones(rows)
    else:
        scale = np.asarray(alpha, dtype=float) ** 2
        if scale.shape != (rows,):
            raise ValueError("alpha needs one entry per row of weights")
    if degrees.shape != (rows,) or w.shape[1] != len(nodes):
        raise ValueError("weights must be (rows, nodes) with one degree per row")
    if np.any(degrees >= len(nodes)):
        raise DegreeError(f"degrees must lie in 0..{len(nodes) - 1}")
    top = int(degrees.max(initial=0))

    phi = np.zeros((rows, top + 1, len(nodes)))
    beta = np.zeros((rows, top + 1))
    phi[:, 0] = 1.0 / np.sqrt(w.sum(axis=1))[:, None]
    for j in range(1, top + 1):
        act = np.flatnonzero(degrees >= j)
        wa, basis = w[act], phi[act, :j]
        v = nodes * phi[act, j - 1]
        start = np.sqrt(np.sum(wa * v * v, axis=1))
        for _ in range(2):  # full orthogonalization plus one repeat pass
            coef = np.einsum("rk,rik->ri", wa * v, basis)
            v = v - np.einsum("ri,rik->rk", coef, basis)
        nrm = np.sqrt(np.sum(wa * v * v, axis=1))
        if np.any(nrm <= _DEGENERACY_TOL * start):
            raise DegenerateMeasureError(
                f"measure is numerically singular at degree {j} "
                "(eigenvalues may be wrongly grouped)"
            )
        phi[act, j] = v / nrm[:, None]
        beta[act, j] = nrm

    # p_j = k_j phi_j; the Lanczos relation x phi_j = beta_j phi_{j-1} +
    # a_j phi_j + beta_{j+1} phi_{j+1} turns into the p-recurrence.  k_j is
    # nonzero up to each row's degree (lambda_0 lies above every zero of
    # phi_j) and zero past it, where the quotients are sliced off below.
    k = scale[:, None] * phi[:, :, 0]
    kk = np.where(k == 0.0, 1.0, k)
    values = k[:, :, None] * phi
    rec_a = np.einsum("rk,rik->ri", w * nodes, phi * phi)
    rec_b = beta[:, 1:] * k[:, 1:] / kk[:, :-1]
    rec_c = beta[:, 1:] * k[:, :-1] / kk[:, 1:]
    return tuple(
        PolySequence(
            weights=_readonly(w[r]),
            values=_readonly(values[r, : m + 1]),
            rec_a=_readonly(rec_a[r, : m + 1]),
            rec_b=_readonly(rec_b[r, :m]),
            rec_c=_readonly(rec_c[r, :m]),
            norm_scale=float(scale[r]),
            vertex=None if alpha is None else r,
        )
        for r, m in enumerate(degrees.tolist())
    )


def hoffman_polynomial(seq: PolySequence, spec: Spectrum) -> np.ndarray:
    """The top sum polynomial H = q_d of the global family, on the eigenvalues.

    H is characterized by H(lambda_i) = n * delta_{0i}; H(A) is the rank-one
    matrix alpha alpha^T, which equals the all-ones matrix exactly when the
    graph is regular.  A failed characterization raises
    DegenerateMeasureError.
    """
    if seq.vertex is not None:
        raise ValueError("hoffman_polynomial needs the global sequence")
    h = seq.sum_values(seq.top_degree)
    target = np.zeros(len(spec.lambdas))
    target[0] = spec.n
    err = float(np.max(np.abs(h - target)))
    if err > 1e-6 * spec.n:
        raise DegenerateMeasureError(
            f"Hoffman characterization H(lambda_i) = n*delta_0i off by {err:.3e}"
        )
    return h


def evaluate_at_matrix(p, spec: Spectrum) -> np.ndarray:
    """p(A) = V diag(p(lambda)) V^T from the values of p on the eigenvalues."""
    v = spec.vectors
    return (v * np.asarray(p)[spec.class_index]) @ v.T


def apply_to_vector(p, spec: Spectrum, vec: np.ndarray) -> np.ndarray:
    """p(A) @ vec = V (p(lambda) * V^T vec), without forming p(A)."""
    v = spec.vectors
    return v @ (np.asarray(p)[spec.class_index] * (vec @ v))
