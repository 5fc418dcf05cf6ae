"""Inequality and equality checks relating spectral and metric structure.

Every check produces a TheoremReport with the raw left/right values, the
slack, and -- crucially -- a certificate: scalar equality alone never yields a
positive verdict, the associated matrix or constancy identity must also hold.
When the slack is positive but within 100x the equality tolerance the report
is flagged numerically ambiguous instead of picking a side.

Checks (ids follow the report schema):

* P31  local bound          r(lambda_0)/||r||_u <= ||rho_{N_j(u)}|| / alpha_u
* T32  local excess         p^u_{d_u}(lambda_0) vs ||rho_{Gamma_{d_u}(u)}||^2
                            (equality iff pseudo-distance-regular around u)
* T33  global excess        delta*_D <= p_{>=D}(lambda_0)
                            (equality iff A*_D = p_{>=D}(A))
* T34  harmonic bound       q_j(lambda_0) <= H*_{<=j}
                            (equality iff q_j(A) = S*_j; requires
                            j <= min_u d_u)
* P35  partial regularity   q_j(A) = S*_j for j = m-1, m iff m-partially
                            distance-regular
* P36  paired harmonic      (q_{m-1}+q_m)(lambda_0) <= H*_{<=m-1} + H*_{<=m}
                            (equality iff regular and m-partially d.r.)
* T37  inequality chain     p_{>=D}(lambda_0) >= n - H*_{<=D-1} >= delta*_D
* T38  sufficient condition delta*_D = p_{>=D}(lambda_0) and
                            delta*_{D-1} = p_{D-1}(lambda_0) imply
                            distance-polynomial

Note on saturation: once j >= ecc(u) the ball N_j(u) is all of V, so the P31
bound is attained by r = q_j^u for every vertex, extremal or not (the top
local sum polynomial always has q^u(lambda_0) = n).  The extremality part of
the equality characterization is only meaningful below saturation, which is
why the full pipeline runs P31 at j = ecc(u).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegreeError, HypothesisError
from .poly import apply_to_vector, evaluate_at_matrix

THEOREM_IDS = ("P31", "T32", "T33", "T34", "P35", "P36", "T37", "T38")


@dataclass(frozen=True)
class Comparison:
    """One lhs-vs-rhs comparison; for inequalities the claim is lhs <= rhs."""

    label: str
    lhs: float
    rhs: float
    kind: str  # "inequality" or "equality"
    state: str  # "equal" | "ambiguous" | "strict" | "violated" | "unequal"

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def scalar_equal(self) -> bool:
        return self.state == "equal"


@dataclass(frozen=True)
class Certificate:
    """A matrix/constancy identity backing an equality verdict."""

    name: str
    max_abs_diff: float
    tol: float

    @property
    def passes(self) -> bool:
        return self.max_abs_diff <= self.tol


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    comparisons: tuple[Comparison, ...]
    certificates: tuple[Certificate, ...]
    equality_holds: bool
    verdict: str
    params: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    witnesses: dict | None = None

    @property
    def lhs(self) -> float:
        return self.comparisons[0].lhs

    @property
    def rhs(self) -> float:
        return self.comparisons[0].rhs

    @property
    def slack(self) -> float:
        return self.comparisons[0].slack

    def inequality_violations(self, tol: float = 1e-7) -> list[str]:
        out = []
        for c in self.comparisons:
            if c.kind == "inequality" and c.slack < -tol * max(1.0, abs(c.lhs), abs(c.rhs)):
                out.append(
                    f"{self.theorem_id}: {c.label}: lhs={c.lhs!r} > rhs={c.rhs!r}"
                )
        return out


def _compare(label: str, lhs: float, rhs: float, eq_tol: float,
             kind: str = "inequality") -> Comparison:
    lhs, rhs = float(lhs), float(rhs)
    scale = max(1.0, abs(lhs), abs(rhs))
    diff = rhs - lhs
    if abs(diff) <= eq_tol * scale:
        state = "equal"
    elif 0 < diff < 100.0 * eq_tol * scale:
        state = "ambiguous"
    elif diff > 0:
        state = "strict"
    else:
        state = "violated" if kind == "inequality" else "unequal"
    return Comparison(label=label, lhs=lhs, rhs=rhs, kind=kind, state=state)


def _matrix_certificate(name: str, lhs: np.ndarray, rhs: np.ndarray,
                        eq_tol: float, n: int) -> Certificate:
    diff = float(np.abs(np.asarray(lhs) - np.asarray(rhs)).max())
    return Certificate(name=name, max_abs_diff=diff, tol=eq_tol * max(1.0, n))


def _p_geq(ga, i0: int) -> np.ndarray:
    """p_{>=i0} = p_{i0} + ... + p_d on the eigenvalues (the tail of H)."""
    return ga.global_seq.values[i0:].sum(axis=0)


def check_local_bound(ga, u: int, j: int | None = None,
                      r=None) -> TheoremReport:
    """P31: r(lambda_0)/||r||_u <= ||rho_{N_j(u)}||/alpha_u for deg r <= j.

    Defaults: j = ecc(u) (below ball saturation, see module note) and
    r = q_j^u, for which equality is exactly q_j^u(lambda_0) =
    ||rho_{N_j(u)}||^2.  A caller-chosen ``r`` is given by its monomial
    coefficients, ascending, and is evaluated at the eigenvalues.
    """
    ls = ga.local_spectra[u]
    seq = ga.local_seqs[u]
    if j is None:
        j = min(ls.eccentricity, ls.du)
    if not 0 <= j <= ls.du:
        raise DegreeError(f"j={j} outside 0..d_u={ls.du} for vertex {u}")
    eq_tol = ga.tols.equality
    alpha = ga.perron.alpha
    if r is None:
        # r = q_j^u; its value and norm come from the construction itself
        r_degree = j
        r_vals = seq.sum_values(j)
        norm_u = float(np.sqrt(seq.norm_scale * r_vals[0]))
    else:
        coeffs = np.trim_zeros(np.atleast_1d(np.asarray(r, dtype=float)), "b")
        r_degree = max(len(coeffs) - 1, 0)
        if r_degree > j:
            raise DegreeError(f"deg r = {r_degree} exceeds j = {j}")
        r_vals = np.polyval(coeffs[::-1], ga.spectrum.lambdas)
        norm_u = float(np.sqrt(np.sum(seq.weights * r_vals ** 2)))
    r_l0 = float(r_vals[0])
    if norm_u <= 0.0:
        raise DegreeError(f"r has zero local norm at vertex {u}")
    lhs = r_l0 / norm_u
    ball_sq = ga.stats.ball_norm_at(u, j)
    rhs = float(np.sqrt(ball_sq)) / alpha[u]
    comp = _compare(f"r(lambda0)/||r||_u <= ||rho_N{j}(u)||/alpha_u",
                    lhs, rhs, eq_tol)
    certs = []
    equality = comp.scalar_equal
    witnesses = None
    if comp.scalar_equal:
        vec = apply_to_vector(r_vals, ga.spectrum, _unit(ga.n, u)) / norm_u
        ball = ga.dd.ball(u, j)
        target = np.zeros(ga.n)
        target[ball] = alpha[ball]
        target /= np.sqrt(ball_sq)
        cert = _matrix_certificate("r(A)e_u/||r||_u == e_{N_j(u)}",
                                   vec, target, eq_tol, ga.n)
        certs.append(cert)
        equality = cert.passes and ls.is_extremal
        witnesses = {"normalized_vector": vec, "weighted_ball_unit": target}
    saturated = j >= ls.eccentricity
    verdict = _bound_verdict(comp, equality, extremal=ls.is_extremal,
                             saturated=saturated)
    return TheoremReport(
        theorem_id="P31",
        comparisons=(comp,),
        certificates=tuple(certs),
        equality_holds=equality,
        verdict=verdict,
        params={"vertex": u, "j": j, "r_degree": r_degree},
        details={"extremal": ls.is_extremal, "ball_saturated": saturated},
        witnesses=witnesses,
    )


def _bound_verdict(comp, equality, extremal, saturated):
    if equality:
        note = " (ball saturated: N_j(u) = V)" if saturated else ""
        return f"bound attained; vertex is extremal{note}"
    if comp.state == "ambiguous":
        return "numerically ambiguous: slack within 100x equality tolerance"
    if comp.scalar_equal and not extremal:
        return ("scalar equality at ball saturation but vertex is not extremal; "
                "no structural claim")
    if comp.scalar_equal:
        return "scalar equality but vector certificate failed"
    return "strict inequality"


def _unit(n: int, u: int) -> np.ndarray:
    e = np.zeros(n)
    e[u] = 1.0
    return e


def check_local_spet(ga, u: int) -> TheoremReport:
    """T32: equality p^u_{d_u}(lambda_0) = ||rho_{Gamma_{d_u}(u)}||^2 holds
    iff the graph is pseudo-distance-regular around u (certified by the
    combinatorial constancy oracle; the two verdicts must agree)."""
    ls = ga.local_spectra[u]
    seq = ga.local_seqs[u]
    eq_tol = ga.tols.equality
    label = "p^u_du(lambda0) vs ||rho_Gamma_du(u)||^2"
    lhs = float(seq.p_lambda0[ls.du])
    if ls.du <= ls.eccentricity:
        rhs = float(ga.stats.sphere_norms[u, ls.du])
        comp = _compare(label, lhs, rhs, eq_tol, kind="equality")
    else:
        # sphere empty: lhs is strictly positive while rhs = 0, and
        # pseudo-distance-regularity around u would force extremality,
        # so the equality is structurally impossible (no tolerance call)
        comp = Comparison(label=label, lhs=float(lhs), rhs=0.0,
                          kind="equality", state="unequal")
    oracle = ga.classification.pseudo_dr[u]
    agreement = comp.scalar_equal == oracle.is_pdr
    equality = comp.scalar_equal and oracle.is_pdr
    if equality:
        verdict = f"pseudo-distance-regular around vertex {u}"
    elif not agreement:
        verdict = ("INTERNAL INCONSISTENCY: spectral and combinatorial "
                   "verdicts disagree")
    else:
        verdict = f"not pseudo-distance-regular around vertex {u}"
    details = {"oracle_is_pdr": oracle.is_pdr, "oracle_agrees": agreement,
               "du": ls.du, "eccentricity": ls.eccentricity}
    witnesses = None
    if oracle.numbers is not None:
        witnesses = {"pseudo_intersection_numbers": oracle.numbers}
    elif oracle.violation is not None:
        details["oracle_violation"] = oracle.violation
    return TheoremReport(
        theorem_id="T32",
        comparisons=(comp,),
        certificates=(),
        equality_holds=equality,
        verdict=verdict,
        params={"vertex": u},
        details=details,
        witnesses=witnesses,
    )


def check_lee_weng(ga) -> TheoremReport:
    """T33: delta*_D <= p_{>=D}(lambda_0), equality iff A*_D = p_{>=D}(A)."""
    eq_tol = ga.tols.equality
    lhs = ga.stats.delta_star[-1]
    rhs = ga.stats.spectral_excess
    comp = _compare("delta*_D <= p_>=D(lambda0)", lhs, rhs, eq_tol)
    tail_at_a = evaluate_at_matrix(_p_geq(ga, ga.D), ga.spectrum)
    astar_d = ga.wm.astar[-1]
    cert = _matrix_certificate("A*_D == p_>=D(A)", astar_d, tail_at_a,
                               eq_tol, ga.n)
    equality = comp.scalar_equal and cert.passes
    if equality:
        verdict = "spectral excess attained: A*_D = p_>=D(A)"
    elif comp.state == "ambiguous":
        verdict = "numerically ambiguous: slack within 100x equality tolerance"
    elif comp.scalar_equal:
        verdict = "scalar equality but matrix certificate failed"
    else:
        verdict = "strict inequality"
    return TheoremReport(
        theorem_id="T33",
        comparisons=(comp,),
        certificates=(cert,),
        equality_holds=equality,
        verdict=verdict,
        witnesses={"Astar_D": astar_d, "p_geqD_at_A": tail_at_a},
    )


def check_harmonic_bound(ga, j: int) -> TheoremReport:
    """T34: q_j(lambda_0) <= H*_{<=j} for j <= min_u d_u, equality iff
    q_j(A) = S*_j.

    At j = 0 the scalar sides are both 1 for every graph while the matrix
    identity I = I* forces regularity, so the certified verdict (scalar AND
    matrix) is the meaningful one.
    """
    if j < 0 or j > ga.min_du:
        raise HypothesisError(
            f"j={j} violates the hypothesis 0 <= j <= min_u d_u = {ga.min_du}")
    eq_tol = ga.tols.equality
    lhs = float(ga.global_seq.q_lambda0[j])
    rhs = ga.stats.harmonic_at(j)
    comp = _compare(f"q_{j}(lambda0) <= H*_<={j}", lhs, rhs, eq_tol)
    q_at_a = evaluate_at_matrix(ga.global_seq.sum_values(j), ga.spectrum)
    sstar_j = ga.wm.sstar_at(j)
    cert = _matrix_certificate(f"q_{j}(A) == S*_{j}", q_at_a, sstar_j,
                               eq_tol, ga.n)
    equality = comp.scalar_equal and cert.passes
    if equality:
        verdict = f"harmonic bound attained: q_{j}(A) = S*_{j}"
    elif comp.state == "ambiguous":
        verdict = "numerically ambiguous: slack within 100x equality tolerance"
    elif comp.scalar_equal:
        verdict = "scalar equality but matrix certificate failed"
    else:
        verdict = "strict inequality"
    witnesses = {"q_j_at_A": q_at_a, "Sstar_j": sstar_j}
    if comp.state in ("equal", "ambiguous"):
        # per-vertex proportionality constants from the equality analysis
        witnesses["eta"] = np.diag(q_at_a) / ga.perron.alpha ** 2
    return TheoremReport(
        theorem_id="T34",
        comparisons=(comp,),
        certificates=(cert,),
        equality_holds=equality,
        verdict=verdict,
        params={"j": j},
        witnesses=witnesses,
    )


def _partial_dr_certs(ga, m: int):
    eq_tol = ga.tols.equality
    certs = []
    for j in (m - 1, m):
        certs.append(_matrix_certificate(
            f"q_{j}(A) == S*_{j}",
            evaluate_at_matrix(ga.global_seq.sum_values(j), ga.spectrum),
            ga.wm.sstar_at(j),
            eq_tol, ga.n))
    return tuple(certs)


def _require_m(ga, m: int):
    top = min(ga.D, ga.d)
    if not 1 <= m <= top:
        raise HypothesisError(f"m={m} violates the hypothesis 1 <= m <= min(D, d) = {top}")


def check_partial_dr_matrix(ga, m: int) -> TheoremReport:
    """P35: q_j(A) = S*_j for j = m-1, m iff m-partially distance-regular
    (cross-checked against the p_i(A) = A_i oracle level)."""
    _require_m(ga, m)
    certs = _partial_dr_certs(ga, m)
    matrix_holds = all(c.passes for c in certs)
    oracle_level = ga.classification.partial_dr_level
    agreement = matrix_holds == (oracle_level >= m)
    if matrix_holds:
        verdict = f"{m}-partially distance-regular"
    elif not agreement:
        verdict = ("INTERNAL INCONSISTENCY: matrix conditions and oracle "
                   "level disagree")
    else:
        verdict = f"not {m}-partially distance-regular"
    return TheoremReport(
        theorem_id="P35",
        comparisons=(),
        certificates=certs,
        equality_holds=matrix_holds,
        verdict=verdict,
        params={"m": m},
        details={"oracle_partial_dr_level": oracle_level,
                 "oracle_agrees": agreement},
    )


def check_partial_dr_inequality(ga, m: int) -> TheoremReport:
    """P36: (q_{m-1} + q_m)(lambda_0) <= H*_{<=m-1} + H*_{<=m}, equality iff
    the graph is regular and m-partially distance-regular.

    Inherits the T34 hypothesis, so it also requires m <= min_u d_u.
    """
    _require_m(ga, m)
    if m > ga.min_du:
        raise HypothesisError(
            f"m={m} violates the inherited hypothesis m <= min_u d_u = {ga.min_du}")
    eq_tol = ga.tols.equality
    lhs = float(ga.global_seq.q_lambda0[m - 1] + ga.global_seq.q_lambda0[m])
    rhs = ga.stats.harmonic_at(m - 1) + ga.stats.harmonic_at(m)
    comp = _compare(f"(q_{m - 1}+q_{m})(lambda0) <= H*_<={m - 1} + H*_<={m}",
                    lhs, rhs, eq_tol)
    certs = _partial_dr_certs(ga, m)
    structural = ga.classification.is_regular and all(c.passes for c in certs)
    equality = comp.scalar_equal and structural
    oracle_ok = (ga.classification.is_regular
                 and ga.classification.partial_dr_level >= m)
    if equality:
        verdict = f"regular and {m}-partially distance-regular"
    elif comp.state == "ambiguous":
        verdict = "numerically ambiguous: slack within 100x equality tolerance"
    elif comp.scalar_equal:
        verdict = "scalar equality but structural certificate failed"
    else:
        verdict = "strict inequality"
    return TheoremReport(
        theorem_id="P36",
        comparisons=(comp,),
        certificates=certs,
        equality_holds=equality,
        verdict=verdict,
        params={"m": m},
        details={"regular": ga.classification.is_regular,
                 "oracle_agrees": structural == oracle_ok},
    )


def check_chain(ga) -> TheoremReport:
    """T37: p_{>=D}(lambda_0) >= n - H*_{<=D-1} >= delta*_D.

    Equality in the first link iff p_{>=D}(A) = A*_D; equality in the second
    iff the numbers ||rho_{Gamma_D(u)}||^2 agree across vertices.
    """
    if ga.D < 1:
        raise HypothesisError("the chain needs diameter D >= 1")
    eq_tol = ga.tols.equality
    middle = ga.stats.n_minus_harmonic
    comp_i = _compare("n - H*_<=D-1 <= p_>=D(lambda0)",
                      middle, ga.stats.spectral_excess, eq_tol)
    comp_ii = _compare("delta*_D <= n - H*_<=D-1",
                       ga.stats.delta_star[-1], middle, eq_tol)
    tail_at_a = evaluate_at_matrix(_p_geq(ga, ga.D), ga.spectrum)
    cert_i = _matrix_certificate("p_>=D(A) == A*_D", tail_at_a,
                                 ga.wm.astar[-1], eq_tol, ga.n)
    excess = ga.stats.sphere_norms[:, -1]
    cert_ii = Certificate(
        name="||rho_Gamma_D(u)||^2 constant over u",
        max_abs_diff=float(excess.max() - excess.min()),
        tol=eq_tol * max(1.0, float(np.abs(excess).max())),
    )
    eq_i = comp_i.scalar_equal and cert_i.passes
    eq_ii = comp_ii.scalar_equal and cert_ii.passes
    parts = []
    parts.append("link (i) equality: p_>=D(A) = A*_D" if eq_i
                 else "link (i) strict" if comp_i.state == "strict"
                 else f"link (i) {comp_i.state}")
    parts.append("link (ii) equality: constant weighted excess" if eq_ii
                 else "link (ii) strict" if comp_ii.state == "strict"
                 else f"link (ii) {comp_ii.state}")
    return TheoremReport(
        theorem_id="T37",
        comparisons=(comp_i, comp_ii),
        certificates=(cert_i, cert_ii),
        equality_holds=eq_i and eq_ii,
        verdict="; ".join(parts),
        details={"equality_i": eq_i, "equality_ii": eq_ii},
        witnesses={"p_geqD_at_A": tail_at_a, "Astar_D": ga.wm.astar[-1],
                   "weighted_excess_per_vertex": excess},
    )


def check_distance_polynomial_sufficient(ga) -> TheoremReport:
    """T38: delta*_D = p_{>=D}(lambda_0) and delta*_{D-1} = p_{D-1}(lambda_0)
    together imply the graph is distance-polynomial (and regular and
    (D-1)-partially distance-regular); oracle-verified when they hold."""
    if ga.D < 2:
        raise HypothesisError("the sufficient condition is vacuous for D < 2")
    eq_tol = ga.tols.equality
    comp1 = _compare("delta*_D vs p_>=D(lambda0)",
                     ga.stats.delta_star[-1], ga.stats.spectral_excess,
                     eq_tol, kind="equality")
    comp2 = _compare("delta*_D-1 vs p_D-1(lambda0)",
                     ga.stats.delta_star[-2],
                     float(ga.global_seq.p_lambda0[ga.D - 1]),
                     eq_tol, kind="equality")
    hypotheses = comp1.scalar_equal and comp2.scalar_equal
    cls = ga.classification
    details = {"hypotheses_hold": hypotheses}
    if hypotheses:
        oracle_ok = (cls.is_distance_polynomial and cls.is_regular
                     and cls.partial_dr_level >= ga.D - 1)
        details.update(
            oracle_distance_polynomial=cls.is_distance_polynomial,
            oracle_regular=cls.is_regular,
            oracle_partial_dr_level=cls.partial_dr_level,
            oracle_agrees=oracle_ok,
        )
        verdict = ("distance-polynomial (oracle-certified; regular and "
                   f"{ga.D - 1}-partially distance-regular)" if oracle_ok else
                   "INTERNAL INCONSISTENCY: hypotheses hold but oracle rejects")
        equality = oracle_ok
    else:
        verdict = "hypotheses not satisfied; no claim"
        equality = False
        details["oracle_agrees"] = True
    return TheoremReport(
        theorem_id="T38",
        comparisons=(comp1, comp2),
        certificates=(),
        equality_holds=equality,
        verdict=verdict,
        details=details,
        witnesses={"distance_poly_residuals": cls.distance_poly_residuals},
    )
