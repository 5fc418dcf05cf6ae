"""Inequality and equality checks relating spectral and metric structure.

Every check produces the raw left/right values, the slack, and --
crucially -- a certificate: scalar equality alone never yields a positive
verdict, the associated matrix or constancy identity must also hold.  Every
check returns one ``ColumnReport``, built in one array pass: P31 and T32
over vertices, T34 over j, P35 and P36 over m, T33 as one row, T37 as its
two links and T38 as its two hypotheses (at D and D-1); called with one
vertex or index, P31-P36 run the same pass on one row.  One state rule,
``_states``, gives each row's comparison state, and states and verdicts
are codes into ``CODES``.  The inequalities whose equality case is such an
identity (P31, T33, T34, P36) share one five-way verdict ladder, a table
over the states (``_unattained``):

1. attained -- scalar equality and the certificate holds;
2. numerically ambiguous -- the slack is positive but within 100x the
   equality tolerance, so no side is picked;
3. scalar equality only -- the certificate fails, so no structural claim;
4. violated -- lhs exceeds rhs beyond the tolerance (an internal error);
5. strict inequality -- everything else.

A violation is a row in state violated and nothing else: it is what
``report.collect_violations`` reads.  P31's saturation rule keeps a
violated state; T34's sets state and slack from the theorem (below).

T37 reports each link as equal or by its comparison state.
``GraphAnalysis`` evaluates each matrix identity once, on first read: the
gaps max|q_j(A) - S*_j|, j <= min(D, d), as one vector (``q_gaps``, the
q_j(A) stacked in cache-sized blocks) whose rows T34, P35 and P36 read,
and p_{>=D}(A), A*_D and their gap (``tail_identity``), which T33 and
T37's link (i) share.  The two are one identity at j = D - 1: q_d(A) = J*
(Hoffman) and J* - A*_D = S*_{D-1}, so p_{>=D}(A) - A*_D = S*_{D-1} -
q_{D-1}(A); T33 and T37 keep their own product so as not to build every
q_j(A).  T34's q_j(A) witnesses are built when a caller reads them.

P31's vector certificates of the k scalar-equal rows are one (k x n)
array.  P31 reads q^u_j.  At j = d_u it is the local preHoffman polynomial, with
q^u_{d_u}(lambda_0) = n and q^u_{d_u}(A) e_u = alpha_u alpha (see ``poly``).
Below d_u it reads q^u_j(lambda_0) at the rows it reports, and only there,
from one stacked ``poly.top_q_lambda0`` pass in which no row depends on
another, so a one-vertex check prints its row of the all-vertex pass.  At
the default j = min(ecc(u), d_u) only j = d_u can reach scalar equality,
as j < d_u means j = ecc(u), decided by the saturation rule; a given
j < d_u that does builds q^u_j as one family for its certificate vector.
T32 reads p^u_{d_u}(lambda_0) in closed form (``spectral.top_p_lambda0``).

Checks (ids follow the report schema):

* P31  local bound          r(lambda_0)/||r||_u <= ||rho_{N_j(u)}|| / alpha_u
* T32  local excess         p^u_{d_u}(lambda_0) vs ||rho_{Gamma_{d_u}(u)}||^2
                            (equality iff pseudo-distance-regular around u)
* T33  global excess        delta*_D <= p_{>=D}(lambda_0)
                            (equality iff A*_D = p_{>=D}(A))
* T34  harmonic bound       q_j(lambda_0) <= H*_{<=j}
                            (equality iff q_j(A) = S*_j; requires
                            j <= min_u d_u; for j >= D by the saturation
                            rule: strict below d, Hoffman at d)
* P35  partial regularity   q_j(A) = S*_j for j = m-1, m iff m-partially
                            distance-regular
* P36  paired harmonic      (q_{m-1}+q_m)(lambda_0) <= H*_{<=m-1} + H*_{<=m}
                            (equality iff regular and m-partially d.r.)
* T37  inequality chain     p_{>=D}(lambda_0) >= n - H*_{<=D-1} >= delta*_D
* T38  sufficient condition delta*_D = p_{>=D}(lambda_0) and
                            delta*_{D-1} = p_{D-1}(lambda_0) imply
                            distance-polynomial

Saturation rule: once j >= ecc(u), N_j(u) = V and
||rho_{N_j(u)}||^2 = n; once j >= D, also H*_{<=j} = n and S*_j = J*.  The
theorem then decides, with no tolerance.  T34's slack sum_{i>j}
p_i(lambda_0) is positive below d; at j = d it is 0 and q_d(A) = J*
(Hoffman).  P31's rhs sqrt(n)/alpha_u exceeds r(lambda_0)/||r||_u for
every deg r <= j < d_u, as q^u_j(lambda_0) < q^u_{d_u}(lambda_0) = n, so a
saturated row reads strict unless its sides compare as violated; at j = d_u
P31 keeps its closed-form path (Lee-Weng, JCTA 119, 2012;
Fiol-Garriga, JCTA 71, 1997).  Extremality is only meaningful below d_u,
which is why the pipeline runs P31 at j = ecc(u).
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from ._util import CACHE_BLOCK_BYTES
from .errors import HypothesisError
from .poly import apply_to_vector, evaluate_at_matrix, predistance_polynomials, top_q_lambda0

_LADDER_AMBIGUOUS = "numerically ambiguous: slack within 100x equality tolerance"
_LADDER_VIOLATED = "INEQUALITY VIOLATED: lhs exceeds rhs"
_LADDER_STRICT = "strict inequality"
# the states of a comparison, then every verdict of the families: their
# columns hold indices into this table
CODES = (
    "equal", "ambiguous", "strict", "violated", "unequal",
    "bound attained; vertex is extremal",
    "bound attained; vertex is extremal (ball saturated: N_j(u) = V)",
    "bound attained; vertex is not extremal, no structural claim",
    "bound attained; vertex is not extremal, no structural claim "
    "(ball saturated: N_j(u) = V)",
    _LADDER_AMBIGUOUS, "scalar equality but vector certificate failed",
    _LADDER_VIOLATED, _LADDER_STRICT,
    "pseudo-distance-regular around vertex {vertex}",
    "not pseudo-distance-regular around vertex {vertex}",
    "INTERNAL INCONSISTENCY: spectral and combinatorial verdicts disagree",
    # T34, P35 and P36, then T33, T37 and T38, each group appended so that
    # the codes above keep their indices
    "harmonic bound attained: q_{j}(A) = S*_{j}",
    "harmonic bound attained: q_{j}(A) = J* (Hoffman identity)",
    "scalar equality but matrix certificate failed",
    "{m}-partially distance-regular", "not {m}-partially distance-regular",
    "INTERNAL INCONSISTENCY: matrix conditions and oracle level disagree",
    "regular and {m}-partially distance-regular",
    "scalar equality but structural certificate failed",
    "spectral excess attained: A*_D = p_>=D(A)",
    "link (i) equality: p_>=D(A) = A*_D", "link (ii) equality: constant weighted excess",
    "link ({link}) equal", "link ({link}) ambiguous", "link ({link}) strict",
    "link ({link}) violated",
    "distance-polynomial (oracle-certified; regular and {m}-partially distance-regular)",
    "INTERNAL INCONSISTENCY: hypotheses hold but oracle rejects",
    "hypotheses not satisfied; no claim",
)
EQUAL, AMBIGUOUS, STRICT, VIOLATED, UNEQUAL = range(5)
_code = CODES.index


def _unattained(scalar_only: str) -> np.ndarray:
    """The ladder below "attained" as codes, indexed by state code."""
    return np.array([_code(v) for v in (scalar_only, _LADDER_AMBIGUOUS, _LADDER_STRICT,
                                        _LADDER_VIOLATED)])


_P31_ATTAINED = _code("bound attained; vertex is extremal")  # + 2 * non-extremal + saturated
_P31_UNATTAINED = _unattained("scalar equality but vector certificate failed")
_T32_PDR = _code("pseudo-distance-regular around vertex {vertex}")
_T33_ATTAINED = _code("spectral excess attained: A*_D = p_>=D(A)")
_T34_ATTAINED = _code("harmonic bound attained: q_{j}(A) = S*_{j}")  # + 1 at j = d
_MATRIX_UNATTAINED = _unattained("scalar equality but matrix certificate failed")  # T33, T34
_P35_HOLDS = _code("{m}-partially distance-regular")  # + 1 not, + 2 disagreement
_P36_ATTAINED = _code("regular and {m}-partially distance-regular")
_P36_UNATTAINED = _unattained("scalar equality but structural certificate failed")
_T37_EQUAL = _code("link (i) equality: p_>=D(A) = A*_D")  # + 1 for link (ii)
_T37_LINK = _code("link ({link}) equal")  # + state code
_T38_CERTIFIED = _code("distance-polynomial (oracle-certified; regular and "
                       "{m}-partially distance-regular)")  # + 1 oracle rejects, + 2 no claim


class Certificate(NamedTuple):
    """A matrix/constancy identity backing an equality verdict: its gaps at
    the report rows ``rows``, or, with ``rows`` None, one vector or number
    that several reports share (``q_gaps``, ``tail_gap``)."""

    name: str
    max_abs_diff: float | np.ndarray
    tol: float
    rows: np.ndarray | None = None

    @property
    def passes(self):
        return self.max_abs_diff <= self.tol


class ColumnReport(NamedTuple):
    """One family at the rows of ``params``, one array per field (a detail
    equal on every row is one value, and so is a label).  ``state`` and
    ``verdict`` index ``CODES``; a verdict and ``label`` format with the
    row's params ({m-1} with m - 1).  P35 has no comparison (its fields
    None).  A row is a violation iff its state is violated (module note).
    P31's ``certificate`` has one gap per row whose state is equal, and
    ``witness_fn`` their vectors; T37's has link (ii)'s.  T34, P35 and P36
    read rows of ``q_gaps``, T33 and T37's link (i) ``tail_gap``, and T34's
    ``witness_fn`` stacks its rows with j < D (eta where equal or ambiguous)."""

    theorem_id: str
    label: str | tuple | None
    kind: str | None
    lhs: np.ndarray | None
    rhs: np.ndarray | None
    slack: np.ndarray | None
    state: np.ndarray | None
    verdict: np.ndarray
    equality_holds: np.ndarray
    params: dict
    details: dict
    certificate: Certificate | None = None
    q_gaps: Certificate | None = None
    tail_gap: Certificate | None = None
    witness_fn: Callable[[], dict] | None = None

    def _format(self, template: str, k: int) -> str:
        row = {name: col[k] for name, col in self.params.items()}
        return template.format(**row, **({"m-1": row["m"] - 1} if "m" in row else {}))

    def label_text(self, k: int) -> str:
        return self._format(self.label if isinstance(self.label, str) else self.label[k], k)

    def verdict_text(self, k: int) -> str:
        return self._format(CODES[self.verdict[k]], k)


def _states(lhs, rhs, eq_tol: float, kind: str = "inequality"):
    """The state rule over arrays: (state codes, slack = rhs - lhs).  Equal
    within eq_tol * max(1, |lhs|, |rhs|); ambiguous when rhs exceeds lhs by
    less than 100 times that; else strict, or violated (an inequality) or
    unequal (an equality)."""
    scale = np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))
    diff = rhs - lhs
    state = np.where(diff > 0, STRICT, VIOLATED if kind == "inequality" else UNEQUAL)
    state[(0 < diff) & (diff < 100.0 * eq_tol * scale)] = AMBIGUOUS
    state[abs(diff) <= eq_tol * scale] = EQUAL
    return state, diff


def _certificate(ga, name: str, diff, rows=None) -> Certificate:
    return Certificate(name, diff, ga.eq_tol * max(1.0, ga.n), rows)


def q_gap_certificate(ga) -> Certificate:
    """q_j(A) = S*_j for j = 0..min(D, d): one gap max|q_j(A) - S*_j| per j,
    in stacks of q_j(A) that fit in ``CACHE_BLOCK_BYTES`` (O(n^2) memory)."""
    top = min(ga.D, ga.d)
    step = max(1, CACHE_BLOCK_BYTES // (8 * ga.n ** 2))
    gaps = np.empty(top + 1)
    for start in range(0, top + 1, step):
        js = np.arange(start, min(start + step, top + 1))
        at_a = evaluate_at_matrix(ga.global_seq.q_values[js], ga.spectrum)
        at_a -= np.where(ga.dd.dist <= js[:, None, None], ga.jstar, 0.0)
        gaps[js] = np.abs(at_a, out=at_a).reshape(len(js), -1).max(axis=1)
    return _certificate(ga, "q_{j}(A) == S*_{j}", gaps)


def tail_identity(ga) -> tuple:
    """(p_{>=D}(A), A*_D, the certificate of max|p_{>=D}(A) - A*_D|), p_{>=D}
    = p_D + ... + p_d (``GraphAnalysis.tail_identity`` keeps it)."""
    at_a = evaluate_at_matrix(ga.global_seq.values[ga.D:].sum(axis=0), ga.spectrum)
    astar = np.where(ga.dd.dist == ga.D, ga.jstar, 0.0)
    return at_a, astar, _certificate(ga, "p_>=D(A) == A*_D", float(np.abs(at_a - astar).max()))


def _require_vertex(ga, u: int):  # a negative u would index from the end
    if not 0 <= u < ga.n:
        raise HypothesisError(f"vertex {u} out of range 0..{ga.n - 1}")


def check_local_bound(ga, u: int | None = None, j: int | None = None) -> ColumnReport:
    """P31: r(lambda_0)/||r||_u <= ||rho_{N_j(u)}||/alpha_u at r = q^u_j,
    for which equality is exactly q^u_j(lambda_0) = ||rho_{N_j(u)}||^2: the
    row of ``u``, or by default every vertex at the default j in one pass.
    The default j is min(ecc(u), d_u) (module note); a given j lies in
    0..d_u.  ``equality_holds`` means "the vector certificate
    r(A)e_u/||r||_u = e_{N_j(u)} passes and u is extremal": at a
    non-extremal vertex the verdict can read "bound attained" with
    ``equality_holds`` False."""
    if u is not None:
        _require_vertex(ga, u)
    alpha = ga.alpha
    if u is None and j is not None:
        raise HypothesisError("j needs a vertex u: the all-vertex pass takes the default j")
    us = np.arange(ga.n) if u is None else np.array([int(u)])
    du, ecc = ga.local_spectra.du[us], ga.dd.ecc[us]
    if j is not None and not 0 <= j <= du[0]:
        raise HypothesisError(f"j={j} outside 0..d_u={du[0]} for vertex {u}")
    js = np.minimum(ecc, du) if j is None else np.array([int(j)])
    short, saturated, extremal = js < du, js >= ecc, ecc == du
    r_l0 = np.full(len(us), float(ga.n))  # q^u_{d_u}(lambda_0) = n
    if short.any():
        r_l0[short] = top_q_lambda0(ga.spectrum.lambdas, ga.local_spectra.mults[us[short]],
                                    js[short], alpha[us[short]] ** 2)
    norms = alpha[us] * np.sqrt(r_l0)
    ball_sq = np.where(saturated, float(ga.n), ga.stats.ball_norms[us, np.minimum(js, ecc)])
    lhs, rhs = r_l0 / norms, np.sqrt(ball_sq) / alpha[us]
    state, slack = _states(lhs, rhs, ga.eq_tol)
    state[saturated & short & (state != VIOLATED)] = STRICT  # the saturation rule
    rows = (state == EQUAL).nonzero()[0]
    vecs = alpha[us[rows], None] * alpha  # q^u_{d_u}(A) e_u = alpha_u alpha
    for k in np.flatnonzero(short[rows]):  # a given j only: default rows below d_u saturate
        u_k, j_k = us[rows[k]], js[rows[k]]
        seq = predistance_polynomials(ga.spectrum.lambdas, ga.local_spectra.mults[u_k], j_k,
                                      scale=alpha[u_k] ** 2)
        vecs[k] = apply_to_vector(seq.q_values[j_k], ga.spectrum, np.eye(ga.n)[u_k])
    vecs = vecs / norms[rows, None]
    targets = (np.where(ga.dd.dist[us[rows]] <= js[rows, None], alpha, 0.0)
               / np.sqrt(ball_sq[rows])[:, None])
    cert = _certificate(ga, "r(A)e_u/||r||_u == e_{N_j(u)}",
                        np.abs(vecs - targets).max(axis=1), rows)
    attained = np.zeros(len(us), dtype=bool)
    attained[rows] = cert.passes
    verdict = np.where(attained, _P31_ATTAINED + 2 * ~extremal + saturated,
                       _P31_UNATTAINED[state])
    return ColumnReport(
        "P31", "r(lambda0)/||r||_u <= ||rho_N{j}(u)||/alpha_u", "inequality",
        lhs, rhs, slack, state, verdict, attained & extremal, {"vertex": us, "j": js},
        {"extremal": extremal, "ball_saturated": saturated}, certificate=cert,
        witness_fn=functools.partial(dict, normalized_vector=vecs, weighted_ball_unit=targets))


def check_local_spet(ga, u: int | None = None) -> ColumnReport:
    """T32: equality p^u_{d_u}(lambda_0) = ||rho_{Gamma_{d_u}(u)}||^2 holds
    iff the graph is pseudo-distance-regular around u (certified by the
    combinatorial constancy oracle; the two verdicts must agree): the row of
    ``u``, or by default every vertex in one pass.  Where d_u > ecc(u) the
    sphere is empty and lhs > 0 = rhs: pseudo-distance-regularity around u
    would force extremality, so no tolerance is called."""
    if u is not None:
        _require_vertex(ga, u)
    us = np.arange(ga.n) if u is None else np.array([int(u)])
    du, ecc = ga.local_spectra.du[us], ga.dd.ecc[us]
    reached = du <= ecc
    lhs = ga.local_spectra.excess[us]
    rhs = np.where(reached, ga.stats.sphere_norms[us, np.minimum(du, ecc)], 0.0)
    state, slack = _states(lhs, rhs, ga.eq_tol, "equality")
    state, slack = np.where(reached, state, UNEQUAL), np.where(reached, slack, -lhs)
    is_pdr = ga.classification.is_pdr[us]
    agrees = (state == EQUAL) == is_pdr
    equality = (state == EQUAL) & is_pdr
    verdict = _T32_PDR + 2 - agrees - equality  # + 1: not pdr, + 2: disagreement
    return ColumnReport(
        "T32", "p^u_du(lambda0) vs ||rho_Gamma_du(u)||^2", "equality",
        lhs, rhs, slack, state, verdict, equality, {"vertex": us},
        {"oracle_is_pdr": is_pdr, "oracle_agrees": agrees, "du": du, "eccentricity": ecc})


def check_lee_weng(ga) -> ColumnReport:
    """T33: delta*_D <= p_{>=D}(lambda_0), equality iff A*_D = p_{>=D}(A);
    one row, certified by ``tail_gap``."""
    lhs, rhs = ga.stats.delta_star[-1:], np.array([ga.spectral_excess])
    state, slack = _states(lhs, rhs, ga.eq_tol)
    at_a, astar, tail = ga.tail_identity
    holds = (state == EQUAL) & tail.passes
    return ColumnReport(
        "T33", "delta*_D <= p_>=D(lambda0)", "inequality", lhs, rhs, slack, state,
        np.where(holds, _T33_ATTAINED, _MATRIX_UNATTAINED[state]), holds, {}, {},
        tail_gap=tail, witness_fn=functools.partial(dict, Astar_D=astar, p_geqD_at_A=at_a))


def check_harmonic_bound(ga, j: int | None = None) -> ColumnReport:
    """T34: q_j(lambda_0) <= H*_{<=j} for j <= min_u d_u, equality iff
    q_j(A) = S*_j; the row of ``j``, or by default every such j.

    At j = 0 the scalar sides are both 1 for every graph while the matrix
    identity I = I* forces regularity, so the certified verdict (scalar AND
    matrix) is the meaningful one.  For j >= D the saturation rule decides
    (module note): no q_j(A), certificate, witness or ``q_gaps``.
    """
    if j is not None and not 0 <= j <= ga.min_du:
        raise HypothesisError(
            f"j={j} violates the hypothesis 0 <= j <= min_u d_u = {ga.min_du}")
    js = np.arange(ga.min_du + 1) if j is None else np.array([int(j)])
    seq, below, p = ga.global_seq, js < ga.D, ga.global_seq.p_lambda0
    q_gaps = ga.q_gaps if j is None or j < ga.D else None
    lhs = seq.q_lambda0[js]
    rhs = np.where(below, ga.stats.harmonic_means[np.minimum(js, ga.D)], float(ga.n))
    state, slack = _states(lhs, rhs, ga.eq_tol)
    # the saturation rule: equal at d, else strict; each slack is summed
    # as its own slice, so it keeps the order of numpy's pairwise sum
    state[~below] = np.where(js[~below] == ga.d, EQUAL, STRICT)
    slack[~below] = [p[i + 1:].sum() for i in js[~below].tolist()]
    passes = False if q_gaps is None else q_gaps.passes[np.minimum(js, ga.D)]
    holds = (state == EQUAL) & (passes | ~below)
    verdict = np.where(holds, _T34_ATTAINED + ~below, _MATRIX_UNATTAINED[state])

    def witnesses():
        at_a = evaluate_at_matrix(seq.q_values[js[below]], ga.spectrum)
        near = (state[below] == EQUAL) | (state[below] == AMBIGUOUS)
        # eta: per-vertex proportionality constants from the equality analysis
        return {"q_j_at_A": at_a,
                "Sstar_j": np.where(ga.dd.dist <= js[below, None, None], ga.jstar, 0.0),
                "eta": np.diagonal(at_a[near], axis1=1, axis2=2) / ga.alpha ** 2}

    return ColumnReport("T34", "q_{j}(lambda0) <= H*_<={j}", "inequality", lhs, rhs, slack,
                        state, verdict, holds, {"j": js}, {}, q_gaps=q_gaps,
                        witness_fn=witnesses)


def _levels(ga, m: int | None):
    """[m] after checking 1 <= m <= min(D, d), or 1..min(D, d) for None."""
    top = min(ga.D, ga.d)
    if m is None:
        return np.arange(1, top + 1)
    if not 1 <= m <= top:
        raise HypothesisError(f"m={m} violates the hypothesis 1 <= m <= min(D, d) = {top}")
    return np.array([int(m)])


def check_partial_dr_matrix(ga, m: int | None = None) -> ColumnReport:
    """P35: q_j(A) = S*_j for j = m-1, m iff m-partially distance-regular,
    cross-checked against the intersection-number level of ``classify``;
    the row of ``m``, or by default every m <= min(D, d)."""
    ms = _levels(ga, m)
    passes, level = ga.q_gaps.passes, ga.classification.partial_dr_level
    holds = passes[ms - 1] & passes[ms]
    agrees = holds == (level >= ms)
    return ColumnReport(
        "P35", None, None, None, None, None, None, _P35_HOLDS + ~holds * (2 - agrees), holds,
        {"m": ms}, {"oracle_partial_dr_level": level, "oracle_agrees": agrees},
        q_gaps=ga.q_gaps)


def check_partial_dr_inequality(ga, m: int | None = None) -> ColumnReport:
    """P36: (q_{m-1} + q_m)(lambda_0) <= H*_{<=m-1} + H*_{<=m}, equality iff
    the graph is regular and m-partially distance-regular; the row of ``m``,
    or by default every m <= min(D, d, min_u d_u).

    Inherits T34's hypothesis m <= min_u d_u, tested after 1 <= m <= min(D, d).
    """
    ms = _levels(ga, m)  # before min_u d_u, a local stage, is read
    if m is not None and m > ga.min_du:
        raise HypothesisError(
            f"m={m} violates the inherited hypothesis m <= min_u d_u = {ga.min_du}")
    ms = ms[ms <= ga.min_du]
    q, h, cls = ga.global_seq.q_lambda0, ga.stats.harmonic_means, ga.classification
    lhs, rhs = q[ms - 1] + q[ms], h[ms - 1] + h[ms]
    state, slack = _states(lhs, rhs, ga.eq_tol)
    structural = cls.is_regular & ga.q_gaps.passes[ms - 1] & ga.q_gaps.passes[ms]
    holds = (state == EQUAL) & structural
    oracle_ok = cls.is_regular & (cls.partial_dr_level >= ms)
    return ColumnReport(
        "P36", "(q_{m-1}+q_{m})(lambda0) <= H*_<={m-1} + H*_<={m}", "inequality", lhs, rhs,
        slack, state, np.where(holds, _P36_ATTAINED, _P36_UNATTAINED[state]), holds,
        {"m": ms}, {"regular": cls.is_regular, "oracle_agrees": structural == oracle_ok},
        q_gaps=ga.q_gaps)


def check_chain(ga) -> ColumnReport:
    """T37: p_{>=D}(lambda_0) >= n - H*_{<=D-1} >= delta*_D, one row per link.

    Equality in link (i) iff p_{>=D}(A) = A*_D (``tail_gap``); equality in
    link (ii) iff the numbers ||rho_{Gamma_D(u)}||^2 agree across vertices
    (``certificate``, at row 1).
    """
    if ga.D < 1:
        raise HypothesisError("the chain needs diameter D >= 1")
    eq_tol, middle = ga.eq_tol, ga.stats.n_minus_harmonic
    lhs = np.array([middle, ga.stats.delta_star[-1]])
    rhs = np.array([ga.spectral_excess, middle])
    state, slack = _states(lhs, rhs, eq_tol)
    tail = ga.tail_identity[2]
    excess = ga.stats.sphere_norms[:, -1]
    spread = Certificate("||rho_Gamma_D(u)||^2 constant over u",
                         np.array([excess.max() - excess.min()]),
                         eq_tol * max(1.0, float(np.abs(excess).max())), np.array([1]))
    holds = (state == EQUAL) & np.array([tail.passes, spread.passes[0]])
    return ColumnReport(
        "T37", ("n - H*_<=D-1 <= p_>=D(lambda0)", "delta*_D <= n - H*_<=D-1"), "inequality",
        lhs, rhs, slack, state, np.where(holds, _T37_EQUAL + np.arange(2), _T37_LINK + state),
        holds, {"link": np.array(["i", "ii"])}, {}, certificate=spread, tail_gap=tail,
        witness_fn=functools.partial(dict, weighted_excess_per_vertex=excess))


def check_distance_polynomial_sufficient(ga) -> ColumnReport:
    """T38: delta*_D = p_{>=D}(lambda_0) and delta*_{D-1} = p_{D-1}(lambda_0)
    together imply the graph is distance-polynomial (and regular and
    m-partially distance-regular, m = D - 1); oracle-verified when they
    hold.  One row per hypothesis, at i = D and D - 1, both carrying the
    theorem's verdict."""
    if ga.D < 2:
        raise HypothesisError("the sufficient condition is vacuous for D < 2")
    D, cls = ga.D, ga.classification
    lhs = ga.stats.delta_star[[D, D - 1]]
    rhs = np.array([ga.spectral_excess, ga.global_seq.p_lambda0[D - 1]])
    state, slack = _states(lhs, rhs, ga.eq_tol, "equality")
    hypotheses = bool((state == EQUAL).all())
    details = {"hypotheses_hold": hypotheses}
    if hypotheses:
        oracle_ok = cls.is_distance_polynomial and cls.is_regular and cls.partial_dr_level >= D - 1
        details.update(oracle_distance_polynomial=cls.is_distance_polynomial,
                       oracle_regular=cls.is_regular,
                       oracle_partial_dr_level=cls.partial_dr_level, oracle_agrees=oracle_ok)
        verdict = _T38_CERTIFIED + (not oracle_ok)
    else:
        oracle_ok, verdict = False, _T38_CERTIFIED + 2
        details["oracle_agrees"] = True
    return ColumnReport(
        "T38", ("delta*_D vs p_>=D(lambda0)", "delta*_D-1 vs p_D-1(lambda0)"), "equality",
        lhs, rhs, slack, state, np.full(2, verdict), np.full(2, oracle_ok),
        {"i": np.array([D, D - 1]), "m": np.full(2, D - 1)}, details)
