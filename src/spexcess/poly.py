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
Computation and Approximation*, 2004, section 2.2), one measure per
``predistance_polynomials`` call.  It keeps one form: the orthonormal
vectors psi_j = sqrt(w) * phi_j and their norms beta_j; phi_j = psi_j /
sqrt(w) is read from them, as 0 where w = 0.  Every measure runs as a
stack, a lone one as a one-row stack, through one set of products, so a
row of any stack is its own family bit for bit (``_stieltjes``).  The
pipeline builds one family, the global one to degree d.  P31 reads local
families at lambda_0 only, in one stacked ``top_q_lambda0`` pass over the
rows it reports below d_u; only a given ``--j`` below ecc(u) builds one,
for the certificate vector q^u_j(A) e_u of a scalar-equal row
(``predistance_polynomials(..., scale=alpha_u^2)``).  The
top local values come in closed form: p^u_{d_u}(lambda_0) from the nodal
polynomial of the local support (``spectral.top_p_lambda0``) and q^u_{d_u}
from the preHoffman identities above.  The three-term recurrence

    x * p_i = b_{i-1} p_{i-1} + a_i p_i + c_{i+1} p_{i+1}

comes out of the same pass; its coefficients are the preintersection
numbers, which for distance-regular graphs coincide with the classical
intersection numbers.  Matrix evaluation goes through the eigenvectors:
p(A) = V diag(p(lambda)) V^T.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._util import readonly as _readonly
from .errors import DegenerateMeasureError
from .spectral import Spectrum

_DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class PolySequence:
    """A predistance family p_0..p_m, stored as values on the eigenvalues.

    ``values[i, k]`` is p_i(lambda_k).  ``rec_a[i]`` holds a_i for i =
    0..m; ``rec_b[i]`` holds b_i for i = 0..m-1; ``rec_c[i]`` holds c_{i+1}
    for i = 0..m-1.
    """

    values: np.ndarray
    rec_a: np.ndarray
    rec_b: np.ndarray
    rec_c: np.ndarray

    @property
    def p_lambda0(self) -> np.ndarray:
        """p_i(lambda_0), always positive."""
        return self.values[:, 0]

    @functools.cached_property
    def q_values(self) -> np.ndarray:
        """Row j is q_j = p_0 + ... + p_j on the eigenvalues."""
        return _readonly(self.values.cumsum(axis=0))

    @property
    def q_lambda0(self) -> np.ndarray:
        """q_j(lambda_0) = p_0(lambda_0) + ... + p_j(lambda_0)."""
        return self.q_values[:, 0]


def predistance_polynomials(nodes, weights, degree, scale=1.0) -> PolySequence:
    """The predistance family p_0..p_m, m = ``degree``, of one measure.

    ``nodes`` are the distinct eigenvalues (descending, lambda_0 first) and
    ``weights`` the measure on them; ``scale`` s is 1 for the global measure
    and alpha_u^2 for vertex u's local one.  The orthonormal family
    phi_j = psi_j / sqrt(w) comes from ``_stieltjes``; p_j = s *
    phi_j(lambda_0) * phi_j satisfies ||p_j||^2 = s * p_j(lambda_0) and
    p_j(lambda_0) > 0.  Where w = 0 phi reads 0: that class holds no mass,
    so p(A) e_u does not change.  Where w is tiny, 1/sqrt(w) magnifies psi's
    rounding, but phi there meets only entries of V^T e_u of norm sqrt(w).
    """
    w = np.asarray(weights, dtype=float)
    _order, psi, beta = _stieltjes(nodes, w[None], [degree])
    phi = psi[0] * np.divide(1.0, np.sqrt(w), out=np.zeros_like(w), where=w > 0)
    # p_j = k_j phi_j; the Lanczos relation x phi_j = beta_j phi_{j-1} +
    # a_j phi_j + beta_{j+1} phi_{j+1} turns into the p-recurrence.  k_j is
    # nonzero, as lambda_0 lies above every zero of phi_j.
    k = scale * phi[:, 0]
    return PolySequence(
        values=_readonly(k[:, None] * phi),
        rec_a=_readonly((psi[0] * psi[0]) @ np.asarray(nodes, dtype=float)),
        rec_b=_readonly(beta[0, 1:] * k[1:] / k[:-1]),
        rec_c=_readonly(beta[0, 1:] * k[:-1] / k[1:]),
    )


def top_q_lambda0(nodes, weights, degrees, scale) -> np.ndarray:
    """q_m(lambda_0) = p_0(lambda_0) + ... + p_m(lambda_0) for the measure
    in each row of ``weights``, m = ``degrees[r]`` and s = ``scale[r]``,
    from one pass that reads only phi_j(lambda_0) = psi_j(lambda_0) /
    sqrt(w_0), p_j(lambda_0) = s * phi_j(lambda_0)^2.  Each row equals
    ``predistance_polynomials`` of its measure bit for bit, as both run the
    same products (``_stieltjes``)."""
    w = np.asarray(weights, dtype=float)
    degrees = np.asarray(degrees, dtype=np.int64)
    order, psi, _beta = _stieltjes(nodes, w, degrees)
    at0 = psi[:, :, 0] * (1.0 / np.sqrt(w[order, :1]))
    q = np.cumsum(np.asarray(scale, dtype=float)[order][:, None] * at0 * at0, axis=1)
    return q[order.argsort(), degrees]


def _stieltjes(nodes, weights, degrees):
    """The orthonormal families of the measures in the rows of ``weights``
    up to ``degrees``, rows sorted by descending degree.  Returns (order,
    psi, beta): sorted row i is caller row ``order[i]``, ``psi[i, j]`` is
    sqrt(w) * phi_j on the nodes, with phi_j the orthonormal polynomial of
    degree j, and ``beta[i, j]`` the norm that normalized it.

    Builds psi_0..psi_m by the Stieltjes procedure (psi_j from x *
    psi_{j-1}, orthogonalized twice against every earlier psi), so every
    inner product is a plain dot product.  psi is the one form kept:
    callers read phi = psi / sqrt(w).  The rows still running at step j are
    a leading block.  Every measure runs as a stack, a single one as a
    one-row stack, through one set of products: each is a batched
    ``matmul``, one BLAS call per row, so a row's bits do not depend on the
    rows beside it.  The norm is the batched product v^T v, BLAS's dot on
    each row, as a lone vector's ``v @ v`` rounds; an einsum sums in its
    own order.
    """
    nodes = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    degrees = np.asarray(degrees, dtype=np.int64)
    if w.ndim != 2 or degrees.shape != (len(w),) or w.shape[1] != len(nodes):
        raise ValueError("weights must be (rows, nodes), with one degree per row")
    rows, size = w.shape
    top = int(degrees.max(initial=0))
    if top >= size:
        raise ValueError(f"degrees must lie in 0..{size - 1}")
    order = np.argsort(-degrees, kind="stable")
    ws = w[order]
    # live[j]: how many sorted rows have degree >= j
    live = np.searchsorted(-degrees[order], -np.arange(top + 1), "right")
    psi = np.zeros((rows, top + 1, size))
    beta = np.zeros((rows, top + 1))
    psi[:, 0] = np.sqrt(ws) / np.sqrt(ws.sum(axis=1))[:, None]
    # a singular measure divides by ~0 here; it is caught after the loop
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(1, top + 1):
            ps = psi[:live[j]]
            basis = ps[:, :j]
            v = nodes * ps[:, j - 1, None]  # one row vector per measure
            v -= v @ basis.swapaxes(-1, -2) @ basis  # full orthogonalization
            v -= v @ basis.swapaxes(-1, -2) @ basis  # and one repeat pass
            nrm = np.sqrt(v @ v.swapaxes(-1, -2))
            beta[:live[j], j] = nrm[:, 0, 0]
            ps[:, j] = (v / nrm)[:, 0]
    # step j started from ||x psi_{j-1}||; -1 where a row ran no step j, so
    # only run steps can look singular
    start = np.sqrt(np.einsum("rjk,rjk,k->rj", psi[:, :-1], psi[:, :-1], nodes * nodes))
    start[np.arange(1, top + 1) > degrees[order][:, None]] = -1.0
    singular = beta[:, 1:] <= _DEGENERACY_TOL * start
    if singular.any():
        raise DegenerateMeasureError(
            f"measure is numerically singular at degree {singular.any(axis=0).argmax() + 1} "
            "(eigenvalues may be wrongly grouped)"
        )
    return order, psi, beta


def evaluate_at_matrix(p, spec: Spectrum) -> np.ndarray:
    """p(A) = V diag(p(lambda)) V^T from the values of p on the eigenvalues;
    a (k, d+1) stack of value vectors gives the (k, n, n) stack of matrices."""
    v = spec.vectors
    return (v * np.take(p, spec.class_index, axis=-1)[..., None, :]) @ v.T


def apply_to_vector(p, spec: Spectrum, vec: np.ndarray) -> np.ndarray:
    """p(A) @ vec = V (p(lambda) * V^T vec), without forming p(A); a (k, n)
    stack of vectors with a (k, d+1) stack of value vectors gives the k
    products as rows."""
    v = spec.vectors
    return (np.asarray(p)[..., spec.class_index] * (vec @ v)) @ v.T
