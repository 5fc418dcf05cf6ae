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

Construction is Gram-Schmidt on the monomial basis (columns pre-scaled to
unit norm, one reorthogonalization pass), adequate for the degrees this
package targets (d <= ~15).  The three-term recurrence

    x * p_i = b_{i-1} p_{i-1} + a_i p_i + c_{i+1} p_{i+1}

is extracted by inner products; its coefficients are the preintersection
numbers, which for distance-regular graphs coincide with the classical
intersection numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._util import readonly as _readonly
from .errors import DegenerateMeasureError, DegreeError
from .graphs import Graph
from .spectral import LocalSpectrum, Spectrum

_DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class Poly:
    """Real polynomial in the monomial basis, coefficients ascending."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float)).copy()
        c = np.trim_zeros(c, "b")
        if c.size == 0:
            c = np.zeros(1)
        object.__setattr__(self, "coeffs", _readonly(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return npoly.polyval(x, self.coeffs)

    def _padded(self, size: int) -> np.ndarray:
        out = np.zeros(size)
        out[: len(self.coeffs)] = self.coeffs
        return out

    def __add__(self, other: "Poly") -> "Poly":
        size = max(len(self.coeffs), len(other.coeffs))
        return Poly(self._padded(size) + other._padded(size))

    def __sub__(self, other: "Poly") -> "Poly":
        size = max(len(self.coeffs), len(other.coeffs))
        return Poly(self._padded(size) - other._padded(size))

    def __mul__(self, scalar: float) -> "Poly":
        return Poly(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def shift_up(self) -> "Poly":
        """Multiply by x."""
        return Poly(np.concatenate([[0.0], self.coeffs]))

    @staticmethod
    def one() -> "Poly":
        return Poly(np.array([1.0]))

    @staticmethod
    def x() -> "Poly":
        return Poly(np.array([0.0, 1.0]))

    @staticmethod
    def from_roots(roots, scale: float = 1.0) -> "Poly":
        return Poly(scale * npoly.polyfromroots(np.asarray(roots, dtype=float)))


@dataclass(frozen=True)
class InnerProductContext:
    """Discrete measure on the distinct eigenvalues (descending).

    For the global kind the weights are m(lambda_i)/n and polynomials up to
    degree d are admitted; for the local kind the weights are the local
    multiplicities m_u(lambda_i) (kept for all eigenvalues, including exact
    zeros, so the node sum reproduces the (uu)-entry definition) and the
    admissible degree is d_u.
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    max_degree: int
    vertex: int | None = None

    @property
    def lambda0(self) -> float:
        return float(self.nodes[0])

    def _values(self, p: Poly) -> np.ndarray:
        return p(self.nodes)

    def inner(self, p: Poly, q: Poly) -> float:
        for r in (p, q):
            if r.degree > self.max_degree:
                raise DegreeError(
                    f"degree {r.degree} exceeds context dimension {self.max_degree}"
                )
        return float(np.sum(self.weights * p(self.nodes) * q(self.nodes)))

    def norm_sq(self, p: Poly) -> float:
        return self.inner(p, p)

    def norm(self, p: Poly) -> float:
        return float(np.sqrt(max(0.0, self.norm_sq(p))))


def global_context(spec: Spectrum) -> InnerProductContext:
    weights = spec.mults / spec.n
    return InnerProductContext(
        kind="global",
        nodes=spec.lambdas,
        weights=_readonly(weights),
        max_degree=spec.d,
    )


def local_context(spec: Spectrum, ls: LocalSpectrum) -> InnerProductContext:
    return InnerProductContext(
        kind="local",
        nodes=spec.lambdas,
        weights=ls.local_mults,
        max_degree=ls.du,
        vertex=ls.vertex,
    )


def inner_product(p: Poly, q: Poly, ctx: InnerProductContext) -> float:
    """<p, q> under the context measure (trace / (uu)-entry equivalent)."""
    return ctx.inner(p, q)


@dataclass(frozen=True)
class PolySequence:
    """A predistance family with its sums and recurrence coefficients.

    ``rec_a[i]`` holds a_i for i = 0..m; ``rec_b[i]`` holds b_i for
    i = 0..m-1; ``rec_c[i]`` holds c_{i+1} for i = 0..m-1.  ``norm_scale``
    is 1 for the global family and alpha_u^2 for a local one.

    ``values[i]`` caches p_i on the context nodes and ``p_lambda0`` /
    ``q_lambda0`` the (always positive) values at lambda_0, all carried from
    the construction itself: re-evaluating the monomial coefficients can
    lose relative accuracy when lambda_0 sits far from the other
    eigenvalues, so the cached numbers are authoritative.
    """

    context: InnerProductContext
    polys: tuple[Poly, ...]
    sums: tuple[Poly, ...]
    rec_a: np.ndarray
    rec_b: np.ndarray
    rec_c: np.ndarray
    norm_scale: float
    values: np.ndarray
    p_lambda0: np.ndarray
    q_lambda0: np.ndarray

    @property
    def top_degree(self) -> int:
        return len(self.polys) - 1

    def p_at_lambda0(self) -> np.ndarray:
        return self.p_lambda0

    def q_at_lambda0(self) -> np.ndarray:
        return self.q_lambda0

    def norm_sq(self, i: int) -> float:
        """||p_i||^2 under the context measure (= norm_scale * p_i(lambda_0))."""
        return float(self.norm_scale * self.p_lambda0[i])


def predistance_polynomials(ctx: InnerProductContext,
                            alpha_u: float | None = None) -> PolySequence:
    """Orthogonal family for ``ctx`` under the predistance normalization.

    Computes an internal orthonormal family first (Gram-Schmidt on prescaled
    monomials with one reorthogonalization pass), then rescales: with
    s = 1 (global) or alpha_u^2 (local), the polynomial p_j = s * phi_j(
    lambda_0) * phi_j satisfies ||p_j||^2 = s * p_j(lambda_0) and
    p_j(lambda_0) > 0 automatically.
    """
    if ctx.kind == "local":
        if alpha_u is None:
            raise ValueError("alpha_u is required for a local context")
        s = float(alpha_u) ** 2
    else:
        if alpha_u is not None:
            raise ValueError("alpha_u only applies to local contexts")
        s = 1.0
    nodes, w = ctx.nodes, ctx.weights
    m = ctx.max_degree
    lam0 = ctx.lambda0

    phi_vals: list[np.ndarray] = []
    phi_coef: list[np.ndarray] = []
    for j in range(m + 1):
        vals = nodes ** j
        coef = np.zeros(j + 1)
        coef[j] = 1.0
        scale0 = float(np.sqrt(np.sum(w * vals * vals)))
        if scale0 <= 0.0:
            raise DegenerateMeasureError(f"monomial x^{j} has zero norm")
        vals = vals / scale0
        coef = coef / scale0
        for _ in range(2):  # Gram-Schmidt plus one reorthogonalization pass
            for i in range(j):
                proj = float(np.sum(w * vals * phi_vals[i]))
                vals = vals - proj * phi_vals[i]
                coef[: i + 1] -= proj * phi_coef[i]
        nrm = float(np.sqrt(max(0.0, np.sum(w * vals * vals))))
        if nrm <= _DEGENERACY_TOL:
            raise DegenerateMeasureError(
                f"measure is numerically singular at degree {j} "
                "(eigenvalues may be wrongly grouped)"
            )
        phi_vals.append(vals / nrm)
        phi_coef.append(coef / nrm)

    polys = []
    p_values = np.zeros((m + 1, len(nodes)))
    p_l0 = np.zeros(m + 1)
    for j in range(m + 1):
        phi_l0 = float(phi_vals[j][0])  # exact value at lambda_0 (node 0)
        if abs(phi_l0) <= 1e-300:
            raise DegenerateMeasureError(
                f"orthogonal polynomial of degree {j} vanishes at lambda_0"
            )
        polys.append(Poly(s * phi_l0 * phi_coef[j]))
        p_values[j] = s * phi_l0 * phi_vals[j]
        p_l0[j] = s * phi_l0 * phi_l0  # positive by construction
    sums = []
    acc = polys[0]
    sums.append(acc)
    for p in polys[1:]:
        acc = acc + p
        sums.append(acc)

    # recurrence by inner products on node values (degree checks bypassed:
    # x*p_m leaves R_m[x] but not the function space on the support)
    nsq = s * p_l0
    rec_a = np.zeros(m + 1)
    rec_b = np.zeros(max(m, 0))
    rec_c = np.zeros(max(m, 0))
    for i in range(m + 1):
        xv = nodes * p_values[i]
        rec_a[i] = np.sum(w * xv * p_values[i]) / nsq[i]
        if i >= 1:
            rec_b[i - 1] = np.sum(w * xv * p_values[i - 1]) / nsq[i - 1]
        if i + 1 <= m:
            rec_c[i] = np.sum(w * xv * p_values[i + 1]) / nsq[i + 1]
    return PolySequence(
        context=ctx,
        polys=tuple(polys),
        sums=tuple(sums),
        rec_a=_readonly(rec_a),
        rec_b=_readonly(rec_b),
        rec_c=_readonly(rec_c),
        norm_scale=s,
        values=_readonly(p_values),
        p_lambda0=_readonly(p_l0),
        q_lambda0=_readonly(np.cumsum(p_l0)),
    )


def hoffman_polynomial(seq: PolySequence, spec: Spectrum) -> Poly:
    """The top sum polynomial H = q_d of the global family.

    H is characterized by H(lambda_i) = n * delta_{0i}, equivalently
    H = (n / pi_0) prod_{i>=1}(x - lambda_i) with pi_0 = prod_{i>=1}(
    lambda_0 - lambda_i); H(A) is the rank-one matrix alpha alpha^T, which
    equals the all-ones matrix exactly when the graph is regular.  Both
    characterizations are checked; a failure raises DegenerateMeasureError.
    """
    if seq.context.kind != "global":
        raise ValueError("hoffman_polynomial needs the global sequence")
    h = seq.sums[-1]
    n = spec.n
    values = h(spec.lambdas)
    target = np.zeros(len(spec.lambdas))
    target[0] = n
    err = float(np.max(np.abs(values - target)))
    if err > 1e-6 * n:
        raise DegenerateMeasureError(
            f"Hoffman characterization H(lambda_i) = n*delta_0i off by {err:.3e}"
        )
    if spec.d >= 1:
        pi0 = float(np.prod(spec.lambda0 - spec.lambdas[1:]))
        ref = Poly.from_roots(spec.lambdas[1:], scale=n / pi0)
        err = float(np.abs((h - ref).coeffs).max())
        if err > 1e-6 * max(1.0, float(np.abs(ref.coeffs).max())):
            raise DegenerateMeasureError(
                f"Hoffman polynomial disagrees with its product form by {err:.3e}"
            )
    return h


def local_prehoffman(seq: PolySequence) -> Poly:
    """The top sum polynomial H^u = q_{d_u}^u of a local family.

    Satisfies H^u(lambda_0) = n and H^u(A) e_u = H(A) e_u (e_u has no
    projection outside the local eigenspaces); both identities are exercised
    in the test suite.
    """
    if seq.context.kind != "local":
        raise ValueError("local_prehoffman needs a local sequence")
    return seq.sums[-1]


def evaluate_at_matrix(p: Poly, g) -> np.ndarray:
    """p(A) by Horner's scheme on the dense adjacency matrix."""
    a = g.adjacency if isinstance(g, Graph) else np.asarray(g, dtype=float)
    n = a.shape[0]
    out = np.eye(n) * p.coeffs[-1]
    for c in p.coeffs[-2::-1]:
        out = out @ a + c * np.eye(n)
    return out


def apply_to_vector(p: Poly, a: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """p(A) @ vec without forming p(A)."""
    out = p.coeffs[-1] * vec
    for c in p.coeffs[-2::-1]:
        out = a @ out + c * vec
    return out
