import json
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import ALL_NAMES
from spexcess import fixtures as fx
from spexcess import theorems
from spexcess.errors import HypothesisError
from spexcess.pipeline import analyze_graph, run_all_checks
from spexcess.poly import evaluate_at_matrix
from spexcess.report import collect_violations, theorem_columns_dict
from spexcess.theorems import (
    AMBIGUOUS,
    CODES,
    EQUAL,
    STRICT,
    UNEQUAL,
    VIOLATED,
    _states,
    check_chain,
    check_distance_polynomial_sufficient,
    check_harmonic_bound,
    check_lee_weng,
    check_local_bound,
    check_local_spet,
    check_partial_dr_inequality,
    check_partial_dr_matrix,
)

DRG_NAMES = ["petersen", "c4", "c5", "c6", "c7", "c8", "k2", "k3", "k4", "k5"]


# --- an independent scalar reference: the state rule and the verdict ladder ---------

def _compare(lhs, rhs, tol: float, kind: str = "inequality") -> tuple[str, float]:
    """(state, slack) of one comparison, branch by branch."""
    lhs, rhs = float(lhs), float(rhs)
    scale = max(1.0, abs(lhs), abs(rhs))
    diff = rhs - lhs
    if abs(diff) <= tol * scale:
        return "equal", diff
    if 0 < diff < 100.0 * tol * scale:
        return "ambiguous", diff
    if diff > 0:
        return "strict", diff
    return ("violated" if kind == "inequality" else "unequal"), diff


def _ladder(state: str, holds: bool, attained: str,
            scalar_only: str = "scalar equality but matrix certificate failed") -> str:
    """The verdict of an inequality whose equality case is certified."""
    if holds:
        return attained
    return {"equal": scalar_only,
            "ambiguous": "numerically ambiguous: slack within 100x equality tolerance",
            "strict": "strict inequality",
            "violated": "INEQUALITY VIOLATED: lhs exceeds rhs"}[state]


# --- P31 local bound ---------------------------------------------------------

def test_p31_trivial_r_one(analyses):
    # j = 0 reads q^u_0 = 1
    ga = analyses("k23")
    for u in range(ga.n):
        rep = check_local_bound(ga, u, j=0)
        assert rep.lhs[0] == pytest.approx(1.0, abs=1e-10)
        assert rep.rhs[0] == pytest.approx(1.0, abs=1e-10)
        assert rep.equality_holds[0]  # Eq (4) reads e_u = e_{N_0(u)}


def test_p31_petersen_q1(analyses):
    from corpus import full_local_families
    ga = analyses("petersen")
    for u, seq in enumerate(full_local_families(ga)):
        rep = check_local_bound(ga, u, j=1)
        assert rep.equality_holds[0]
        assert seq.q_lambda0[1] == pytest.approx(4.0, rel=1e-9)
        assert ga.stats.ball_norms[u, 1] == pytest.approx(4.0, rel=1e-9)


@pytest.mark.parametrize("name", ["k23", "c8_12", "p5", "k13", "petersen"])
def test_p31_every_j_matches_dense_reference(analyses, name):
    # for every u and j <= d_u, lhs is q^u_j(lambda_0) over ||q^u_j||_u, and
    # below ecc(u) the certificate vector of an equal row is q^u_j(A) e_u
    # over it, with q^u_j(A) formed densely from the eigenvectors and the
    # norm from the local multiplicities; the saturation rule decides the
    # rows from ecc(u) on, with no certificate
    from corpus import full_local_families
    ga = analyses(name)
    v = ga.spectrum.vectors
    for u, seq in enumerate(full_local_families(ga)):
        mults = ga.local_spectra.mults[u]
        for j in range(ga.local_spectra.du[u] + 1):
            rep = check_local_bound(ga, u, j)
            q = seq.q_values[j]
            norm = math.sqrt(np.sum(mults * q ** 2))
            assert rep.lhs[0] == pytest.approx(q[0] / norm, rel=1e-9), (u, j)
            if rep.state[0] == EQUAL and j < ga.dd.ecc[u]:
                vec = (v * q[ga.spectrum.class_index]) @ v[u] / norm
                assert np.abs(rep.witness_fn()["normalized_vector"][0] - vec).max() <= 1e-9
            else:
                assert rep.certificate is None and rep.witness_fn is None, (u, j)


@pytest.mark.parametrize("check", [check_local_bound, check_local_spet])
@pytest.mark.parametrize("u", [-1, 5])
def test_vertex_out_of_range(analyses, check, u):
    # -1 must not read the last vertex's row
    with pytest.raises(HypothesisError, match=rf"^vertex {u} out of range 0\.\.4$"):
        check(analyses("p5"), u)


def test_p31_degree_error(analyses):
    with pytest.raises(HypothesisError, match=r"^j=99 outside 0\.\.d_u="):
        check_local_bound(analyses("k23"), 0, j=99)


def test_p31_saturation_not_certified(analyses):
    # C_8(1,2): no vertex is extremal; at j = d_u the ball saturates and the
    # scalar bound is attained, but the equality verdict must stay negative
    ga = analyses("c8_12")
    rep = check_local_bound(ga, 0, j=ga.local_spectra.du[0])
    assert rep.state[0] == EQUAL and rep.slack[0] == 0.0
    assert not rep.equality_holds[0]
    assert rep.details["ball_saturated"][0]
    # q^u_du(A) e_u = alpha_u alpha makes the vector certificate a
    # tautology: the theorem decides, and none is built
    assert rep.certificate is None and rep.witness_fn is None
    assert rep.verdict_text(0) == ("bound attained; vertex is not extremal, no structural "
                                   "claim (ball saturated: N_j(u) = V)")


@pytest.mark.parametrize("argument", [{"j": 0}])
def test_p31_all_vertex_pass_rejects_j_and_r(analyses, argument):
    # without u the pass takes the default j; a j given with it would be
    # dropped without a word
    with pytest.raises(HypothesisError, match=f"^{next(iter(argument))} needs a vertex u"):
        check_local_bound(analyses("petersen"), **argument)


def test_p31_default_j_is_eccentricity(analyses):
    ga = analyses("c8_12")
    rep = check_local_bound(ga, 0)
    assert rep.params["j"][0] == ga.dd.ecc[0]
    assert rep.state[0] == STRICT


# --- T32 local spectral excess -------------------------------------------------

def test_t32_petersen_everywhere(analyses):
    ga = analyses("petersen")
    for u in range(ga.n):
        rep = check_local_spet(ga, u)
        assert rep.equality_holds[0]
        assert rep.details["oracle_agrees"][0]
        assert rep.verdict_text(0) == f"pseudo-distance-regular around vertex {u}"


def test_t32_p3_center(analyses):
    ga = analyses("p3")
    rep = check_local_spet(ga, 1)
    assert rep.equality_holds[0]
    assert rep.lhs[0] == pytest.approx(1.5, rel=1e-9)
    assert rep.rhs[0] == pytest.approx(1.5, rel=1e-9)


def test_t32_k23_matches_oracle(analyses):
    ga = analyses("k23")
    for u in range(ga.n):
        rep = check_local_spet(ga, u)
        assert rep.details["oracle_agrees"][0]
        assert rep.equality_holds[0] == ga.classification.is_pdr[u]


def test_t32_nonextremal_vertex(analyses):
    ga = analyses("c8_12")
    rep = check_local_spet(ga, 0)
    assert rep.rhs[0] == 0.0
    assert rep.state[0] == UNEQUAL
    assert not rep.equality_holds[0]
    assert rep.details["oracle_agrees"][0]


# --- T33 Lee-Weng bound ---------------------------------------------------------

def test_t33_k23_strict(analyses):
    rep = check_lee_weng(analyses("k23"))
    assert rep.lhs[0] == pytest.approx(float(Fraction(35, 24)), rel=1e-9)
    assert rep.rhs[0] == pytest.approx(1.5, rel=1e-9)
    assert rep.state.tolist() == [STRICT]
    assert rep.equality_holds.tolist() == [False]


def test_t33_drg_equality(analyses):
    for name in DRG_NAMES:
        rep = check_lee_weng(analyses(name))
        assert rep.equality_holds.tolist() == [True], name
        assert rep.tail_gap.passes
        assert rep.tail_gap.max_abs_diff <= 1e-6


def test_t33_petersen_witness_is_a2(analyses):
    ga = analyses("petersen")
    rep = check_lee_weng(ga)
    assert np.abs(rep.witness_fn()["p_geqD_at_A"] - (ga.dd.dist == 2)).max() <= 1e-7


# --- T34 harmonic bound -----------------------------------------------------------

def test_t34_j0_exposes_regularity(analyses):
    # scalar sides are both 1; the matrix identity I = I* needs regularity
    ga = analyses("k23")
    rep = check_harmonic_bound(ga, 0)
    assert rep.state[0] == EQUAL
    assert not ga.q_gaps.passes[0]
    assert not rep.equality_holds[0]
    rep = check_harmonic_bound(analyses("petersen"), 0)
    assert rep.equality_holds[0]


def test_t34_k23_j1(analyses):
    rep = check_harmonic_bound(analyses("k23"), 1)
    assert rep.lhs[0] == pytest.approx(3.5, rel=1e-9)
    assert rep.rhs[0] == pytest.approx(float(Fraction(60, 17)), rel=1e-9)
    assert rep.state[0] == STRICT


def test_t34_petersen_j1_equality(analyses):
    ga = analyses("petersen")
    rep = check_harmonic_bound(ga, 1)
    assert rep.equality_holds[0]
    expected = np.eye(10) + np.asarray(ga.graph.adjacency)
    (q_at_a,), (sstar,) = rep.witness_fn()["q_j_at_A"], rep.witness_fn()["Sstar_j"]
    assert np.abs(q_at_a - expected).max() <= 1e-7
    assert np.abs(sstar - expected).max() <= 1e-9


def test_t34_saturated_row_builds_no_q_gaps(capsys, tmp_path):
    # Petersen, j = 2 = D: the saturation rule decides the one row, so
    # neither the check nor its printout builds or carries the q-gap vector
    from spexcess.cli import main
    ga = analyze_graph(fx.petersen())
    rep = check_harmonic_bound(ga, 2)
    assert rep.q_gaps is None and "q_gaps" not in ga.__dict__
    assert CODES[rep.verdict[0]] == "harmonic bound attained: q_{j}(A) = J* (Hoffman identity)"
    assert check_harmonic_bound(ga, 1).q_gaps is ga.__dict__["q_gaps"]
    path = tmp_path / "petersen.el"
    path.write_bytes(fx.edgelist_bytes(fx.petersen()))
    assert main(["check", str(path), "--theorem", "T34", "--j", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["codes", "T34"] and out["T34"]["params"] == {"j": [2]}


def test_chain_builds_only_the_stages_it_reads():
    # T37 reads the global side: no local spectra and no combinatorial
    # classification, the distance-polynomial oracle included
    ga = analyze_graph(fx.petersen())
    check_chain(ga)
    assert {"stats", "tail_identity"} <= ga.__dict__.keys()
    assert not {"local_spectra", "classification"} & ga.__dict__.keys()


def test_t34_eta_witness_on_equality(analyses):
    rep = check_harmonic_bound(analyses("c6"), 1)
    assert rep.equality_holds[0]
    (eta,) = rep.witness_fn()["eta"]
    assert np.abs(eta - 1.0).max() <= 1e-8


def test_t34_hypothesis_error(analyses):
    ga = analyses("k23")  # min_u d_u = 2
    with pytest.raises(HypothesisError):
        check_harmonic_bound(ga, 3)
    with pytest.raises(HypothesisError):
        check_harmonic_bound(ga, -1)


def test_t34_all_admissible_j_sound(analyses):
    for name in ("k23", "p3", "c8_12", "k13", "petersen"):
        ga = analyses(name)
        for j in range(ga.min_du + 1):
            rep = check_harmonic_bound(ga, j)
            assert rep.slack[0] >= -1e-7, (name, j)


# --- P35 / P36 partial distance-regularity -----------------------------------------

def test_p35_petersen(analyses):
    rep = check_partial_dr_matrix(analyses("petersen"), 2)
    assert rep.equality_holds[0]
    assert rep.details["oracle_agrees"][0]
    assert "2-partially" in rep.verdict_text(0)


def test_p35_k23(analyses):
    rep = check_partial_dr_matrix(analyses("k23"), 1)
    assert not rep.equality_holds[0]
    assert rep.details["oracle_agrees"][0]


def test_p36_petersen_m2_equality(analyses):
    rep = check_partial_dr_inequality(analyses("petersen"), 2)
    assert rep.equality_holds[0]
    assert "regular and 2-partially" in rep.verdict_text(0)


def test_p36_k23_m2_strict(analyses):
    rep = check_partial_dr_inequality(analyses("k23"), 2)
    assert rep.state[0] == STRICT
    assert not rep.equality_holds[0]


def test_p36_c6_m2_equality(analyses):
    rep = check_partial_dr_inequality(analyses("c6"), 2)
    assert rep.equality_holds[0]


def test_p36_hypothesis_error(analyses):
    ga = analyses("petersen")
    with pytest.raises(HypothesisError):
        check_partial_dr_inequality(ga, 0)
    with pytest.raises(HypothesisError):
        check_partial_dr_inequality(ga, 3)
    # P_5 center has d_u = 2 < min(D, d) = 4: the inherited bound bites
    ga = analyses("p5")
    assert ga.min_du == 2
    with pytest.raises(HypothesisError):
        check_partial_dr_inequality(ga, 3)
    check_partial_dr_matrix(ga, 3)  # P35 carries no such hypothesis


# --- T37 chain ----------------------------------------------------------------------

def test_t37_k23_strict_chain(analyses):
    rep = check_chain(analyses("k23"))
    assert rep.params["link"].tolist() == ["i", "ii"]
    assert rep.rhs[0] == pytest.approx(1.5, rel=1e-9)
    assert rep.lhs[0] == pytest.approx(float(Fraction(25, 17)), rel=1e-9)
    assert rep.lhs[1] == pytest.approx(float(Fraction(35, 24)), rel=1e-9)
    assert rep.state.tolist() == [STRICT, STRICT]
    assert rep.slack[0] == pytest.approx(1.5 - 25 / 17, rel=1e-9)
    assert rep.slack[1] == pytest.approx(25 / 17 - 35 / 24, rel=1e-9)


def test_t37_petersen_double_equality(analyses):
    rep = check_chain(analyses("petersen"))
    assert rep.equality_holds.tolist() == [True, True]
    excess = rep.witness_fn()["weighted_excess_per_vertex"]
    assert np.abs(excess - 6.0).max() <= 1e-9


def test_t37_circulant_vertex_transitive(analyses):
    # constant excess by transitivity forces equality in (ii); for a regular
    # graph with D = 2 the matrix identity p_>=D(A) = J - I - A = A_2 also
    # grants equality in (i)
    rep = check_chain(analyses("c8_12"))
    assert rep.equality_holds[1]
    assert rep.equality_holds[0]
    assert rep.tail_gap.passes


def test_t37_p3(analyses):
    rep = check_chain(analyses("p3"))
    assert not rep.equality_holds.all()
    assert (rep.slack >= -1e-7).all()


# --- T38 distance-polynomial sufficient condition --------------------------------------

def test_t38_petersen(analyses):
    rep = check_distance_polynomial_sufficient(analyses("petersen"))
    assert rep.equality_holds.tolist() == [True, True]
    assert rep.details["oracle_agrees"]
    assert rep.verdict_text(0) == rep.verdict_text(1) == (
        "distance-polynomial (oracle-certified; regular and 1-partially distance-regular)")


def test_t38_k23_no_claim(analyses):
    rep = check_distance_polynomial_sufficient(analyses("k23"))
    assert not rep.details["hypotheses_hold"]
    assert rep.verdict_text(0) == rep.verdict_text(1) == "hypotheses not satisfied; no claim"


def test_t38_p3_no_claim(analyses):
    ga = analyses("p3")
    rep = check_distance_polynomial_sufficient(ga)
    assert not rep.details["hypotheses_hold"]
    assert not ga.classification.is_distance_polynomial


def test_t38_c8_12_positive(analyses):
    # hypotheses hold: delta*_2 = 3 = p_>=2(lambda_0), delta*_1 = 4 = p_1(lambda_0)
    rep = check_distance_polynomial_sufficient(analyses("c8_12"))
    assert rep.details["hypotheses_hold"]
    assert rep.state.tolist() == [EQUAL, EQUAL]
    assert rep.equality_holds.all()
    assert rep.details["oracle_partial_dr_level"] >= 1


def test_t38_needs_diameter_two(analyses):
    with pytest.raises(HypothesisError):
        check_distance_polynomial_sufficient(analyses("k2"))


# --- global consistency over all fixtures ----------------------------------------------

ALL_FIXTURES = sorted(fx.BUNDLED) + ["k13", "p4", "p5"]


def test_all_fixture_checks_sound(checks):
    for name in ALL_FIXTURES:
        assert not collect_violations(checks(name)), name


def test_equality_verdicts_have_certificates(checks, analyses):
    # certified equality implies every certificate passed, and certified
    # matrix identities imply the scalar sides agree (T34 j=0 on nonregular
    # graphs is the known one-sided case, exercised separately; T34 carries
    # a certificate only for j < D, and P31 none at its default radius,
    # where the theorem decides: its equality rows are the rows at d_u)
    for name in ALL_FIXTURES:
        ga = analyses(name)
        p31, _t32, t33, t34, p35, p36, *chain = checks(name)
        assert p31.certificate is None, name
        holds = p31.equality_holds
        assert (p31.params["j"][holds] == ga.local_spectra.du[holds]).all(), name
        if t33.equality_holds[0]:
            assert t33.tail_gap.passes, name
        if chain:  # T37: link (i) reads the tail gap, link (ii) its own
            t37 = chain[0]
            assert t37.certificate.rows.tolist() == [1]
            assert not t37.equality_holds[0] or t37.tail_gap.passes, name
            assert not t37.equality_holds[1] or t37.certificate.passes[0], name
        if t33.tail_gap.passes:
            assert t33.state[0] == EQUAL, name
        passes = ga.q_gaps.passes
        below = t34.params["j"] < ga.D
        j = t34.params["j"][below]
        assert passes[j[t34.equality_holds[below]]].all(), name
        assert (t34.state[below][passes[j]] == EQUAL).all(), name
        for rep in (p35, p36):
            m = rep.params["m"][rep.equality_holds]
            assert (passes[m - 1] & passes[m]).all(), (name, rep.theorem_id)


# every (theorem, verdict) the fixtures and both corpora reach, digits as "#"
VERDICT_TEMPLATES = {
    ("P31", "bound attained; vertex is extremal (ball saturated: N_j(u) = V)"),
    ("P31", "strict inequality"),
    ("P35", "#-partially distance-regular"),
    ("P35", "not #-partially distance-regular"),
    ("P36", "numerically ambiguous: slack within #x equality tolerance"),
    ("P36", "regular and #-partially distance-regular"),
    ("P36", "scalar equality but structural certificate failed"),
    ("P36", "strict inequality"),
    ("T32", "not pseudo-distance-regular around vertex #"),
    ("T32", "pseudo-distance-regular around vertex #"),
    ("T33", "numerically ambiguous: slack within #x equality tolerance"),
    ("T33", "spectral excess attained: A*_D = p_>=D(A)"),
    ("T33", "strict inequality"),
    ("T34", "harmonic bound attained: q_#(A) = J* (Hoffman identity)"),
    ("T34", "harmonic bound attained: q_#(A) = S*_#"),
    ("T34", "numerically ambiguous: slack within #x equality tolerance"),
    ("T34", "scalar equality but matrix certificate failed"),
    ("T34", "strict inequality"),
    ("T37", "link (i) ambiguous; link (ii) equal"),
    ("T37", "link (i) equality: p_>=D(A) = A*_D; "
            "link (ii) equality: constant weighted excess"),
    ("T37", "link (i) strict; link (ii) ambiguous"),
    ("T37", "link (i) strict; link (ii) equal"),
    ("T37", "link (i) strict; link (ii) strict"),
    ("T38", "distance-polynomial (oracle-certified; regular and "
            "#-partially distance-regular)"),
    ("T38", "hypotheses not satisfied; no claim"),
}


def _verdict_texts(rep):
    texts = [rep.verdict_text(k) for k in range(len(rep.verdict))]
    return ["; ".join(texts)] if rep.theorem_id == "T37" else texts  # the two links as one


def test_verdict_templates(checks, analyzed, wide):
    reports = [rep for name in ALL_FIXTURES for rep in checks(name)]
    reports += [rep for _name, _ga, reps in analyzed + wide for rep in reps]
    seen = {(rep.theorem_id, re.sub(r"\d+", "#", text))
            for rep in reports for text in _verdict_texts(rep)}
    assert seen == VERDICT_TEMPLATES


def test_saturated_checks_decided_by_the_theorem(checks, analyses, analyzed, wide):
    # past the radius that covers the graph every ball is V: T34 with
    # D <= j < d and P31 with ecc(u) <= j < d_u are strict with a positive
    # slack and no certificate, T34 at j = d is Hoffman's identity, and P31
    # at j = d_u is equal with slack 0, attained, holding where u is extremal
    runs = [(analyses(name), checks(name)) for name in ALL_FIXTURES]
    runs += [(ga, reps) for _name, ga, reps in analyzed + wide]
    seen = Counter()
    strict = CODES.index("strict inequality")
    for ga, (p31, _t32, _t33, t34, *_rest) in runs:
        j = p31.params["j"]
        rows = (ga.dd.ecc <= j) & (j < ga.local_spectra.du)
        seen["P31"] += rows.sum()
        assert (p31.verdict[rows] == strict).all()
        assert (p31.state[rows] == STRICT).all() and (p31.slack[rows] > 0).all()
        top = j == ga.local_spectra.du
        seen["P31 at d_u"] += top.sum()
        assert (p31.state[top] == EQUAL).all() and (p31.slack[top] == 0.0).all()
        assert all(p31.verdict_text(k).startswith("bound attained") for k in np.flatnonzero(top))
        assert np.array_equal(p31.equality_holds[top], p31.details["extremal"][top])
        assert p31.certificate is None and p31.witness_fn is None
        j = t34.params["j"]
        rows = (ga.D <= j) & (j < ga.d)
        seen["T34"] += rows.sum()
        assert (t34.verdict[rows] == strict).all() and (t34.state[rows] == STRICT).all()
        assert (t34.slack[rows] > 0).all()
        for k in np.flatnonzero(j == ga.d):
            seen["T34 at d"] += 1
            assert t34.equality_holds[k] and "Hoffman" in t34.verdict_text(k)
    assert seen["T34"] and seen["P31"] and seen["T34 at d"] and seen["P31 at d_u"], seen


# each family's verdict below "attained" by state code: (table, ladder wording)
_UNATTAINED = ((theorems._P31_UNATTAINED, "scalar equality but vector certificate failed"),
               (theorems._MATRIX_UNATTAINED, "scalar equality but matrix certificate failed"),
               (theorems._P36_UNATTAINED, "scalar equality but structural certificate failed"))


def _edge_table(tol: float) -> np.ndarray:
    """(lhs, rhs) pairs: values below and above 1, differences 0, negative,
    and at, just inside and just outside tol*scale and 100*tol*scale."""
    cases = []
    for lhs in (0.0, 1e-9, 0.3, 1.0, 2.5, 1e4, -0.7, -3.0):
        scale = max(1.0, abs(lhs))
        for edge in (0.0, tol * scale, 100.0 * tol * scale):
            for diff in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0),
                         edge * (1 - 1e-6), edge * (1 + 1e-6), 0.5 * edge, 2.0 * edge):
                cases += [(lhs, lhs + diff), (lhs, lhs - diff), (lhs + diff, lhs)]
        cases += [(lhs, lhs), (lhs, -lhs), (lhs, 0.0), (0.0, lhs)]
    return np.array(cases).T


@pytest.mark.parametrize("kind", ["inequality", "equality"])
def test_column_states_match_compare(kind):
    # the array rule of every check and the scalar reference agree on state
    # and slack over the edge table, and so do the verdict tables of the
    # families on the inequalities below "attained" and T37's link wording
    tol = 1e-7
    lhs, rhs = _edge_table(tol)
    codes, slack = _states(lhs, rhs, tol, kind)
    for lo, hi, code, gap in zip(lhs.tolist(), rhs.tolist(), codes.tolist(), slack.tolist()):
        state, want = _compare(lo, hi, tol, kind)
        assert (CODES[code], gap) == (state, want), (lo, hi)
        if kind == "equality":
            continue
        for table, scalar_only in _UNATTAINED:
            assert CODES[table[code]] == _ladder(state, False, "", scalar_only), (lo, hi)
        assert CODES[theorems._T37_LINK + code].format(link="ii") == f"link (ii) {state}"
    assert set(codes.tolist()) == {EQUAL, AMBIGUOUS, STRICT,
                                   VIOLATED if kind == "inequality" else UNEQUAL}


@pytest.mark.parametrize("state, holds, verdict", [
    ("equal", True, "attained"),
    ("ambiguous", False, "numerically ambiguous: slack within 100x equality tolerance"),
    ("equal", False, "scalar only"),
    ("strict", False, "strict inequality"),
    ("violated", False, "INEQUALITY VIOLATED: lhs exceeds rhs"),
])
def test_ladder_branches(state, holds, verdict):
    # the reference ladder, and each family's table at the same state
    assert _ladder(state, holds, "attained", "scalar only") == verdict
    if not holds:
        for table, scalar_only in _UNATTAINED:
            assert CODES[table[CODES.index(state)]] == _ladder(state, holds, "", scalar_only)


def test_p31_vector_certificate_failure(analyses, monkeypatch):
    # scalar equality at an extremal vertex with a failing r(A)e_u identity;
    # j = 1 < ecc(u) builds q^u_1 and applies it to e_u, because the
    # saturation rule decides every row from ecc(u) on without a vector
    monkeypatch.setattr(theorems, "apply_to_vector", lambda p, spec, vec: 0 * vec)
    rep = check_local_bound(analyses("petersen"), 0, j=1)
    assert rep.state[0] == EQUAL and rep.details["extremal"][0]
    assert not rep.equality_holds[0]
    assert rep.verdict_text(0) == "scalar equality but vector certificate failed"


def test_t33_matrix_certificate_failure():
    # scalar equality on a DRG with a failing A*_D = p_>=D(A) identity
    ga = analyze_graph(fx.petersen())
    at_a, astar, tail = ga.tail_identity
    ga.__dict__["tail_identity"] = at_a, astar, tail._replace(max_abs_diff=1.0)
    rep = check_lee_weng(ga)
    assert rep.state[0] == EQUAL and not rep.equality_holds[0]
    assert rep.verdict_text(0) == "scalar equality but matrix certificate failed"


def test_chain_middle_term_ordering(checks, analyses):
    # p_>=D(lambda_0) >= n - H* >= delta*_D numerically on every fixture
    for name in ALL_FIXTURES:
        ga = analyses(name)
        if ga.D < 1:
            continue
        se = ga.spectral_excess
        mid = ga.stats.n_minus_harmonic
        dd = ga.stats.delta_star[-1]
        assert se >= mid - 1e-9 and mid >= dd - 1e-9, name


# --- shared certificates -----------------------------------------------------------

def _q6():
    import networkx as nx
    from spexcess.graphs import Graph
    h = nx.convert_node_labels_to_integers(nx.hypercube_graph(6), ordering="sorted")
    return Graph.from_edges(h.number_of_nodes(), h.edges())


def _wide(name):
    from corpus import build_wide_corpus
    return dict(build_wide_corpus())[name]


@pytest.mark.parametrize("graph", [_q6, lambda: _wide("tree30x0")],
                         ids=["q6", "tree30x0"])
def test_one_evaluation_per_certificate_polynomial(graph, monkeypatch):
    # each call evaluates a block of value vectors; no vector comes twice,
    # the q_j(A) come in fewer calls than vectors, and no witness matrix
    # is built until a caller reads them
    ga = analyze_graph(graph())
    seen, calls = [], []
    evaluate = theorems.evaluate_at_matrix

    def counting(p, spec):
        calls.append(p)
        seen.extend(row.tobytes() for row in np.atleast_2d(p))
        return evaluate(p, spec)

    monkeypatch.setattr(theorems, "evaluate_at_matrix", counting)
    reports = run_all_checks(ga)
    assert seen and len(seen) == len(set(seen))
    assert len(calls) < len(seen)
    before = len(calls)
    t34 = next(rep for rep in reports if rep.theorem_id == "T34")
    witnesses = t34.witness_fn()
    assert len(calls) == before + 1  # one stacked product for the rows j < D
    js = t34.params["j"][t34.params["j"] < ga.D]
    gaps = np.abs(witnesses["q_j_at_A"] - witnesses["Sstar_j"]).reshape(len(js), -1).max(axis=1)
    assert np.array_equal(gaps, ga.q_gaps.max_abs_diff[js])
    by_id = {rep.theorem_id: rep for rep in reports}
    assert by_id["T37"].tail_gap is by_id["T33"].tail_gap is ga.tail_identity[2]


def test_report_evaluates_each_witness_once(monkeypatch):
    # analyze --witnesses on Petersen: building the report puts no value
    # vector through evaluate_at_matrix twice, and T37 builds neither of
    # the p_>=D(A) and A*_D that T33 prints: one tail identity serves both
    from spexcess.report import analysis_report
    ga = analyze_graph(fx.petersen())
    evaluate, tail_identity = theorems.evaluate_at_matrix, theorems.tail_identity
    seen, tail_calls = [], []

    def counting(p, spec):
        seen.extend(row.tobytes() for row in np.atleast_2d(p))
        return evaluate(p, spec)

    def counting_tail(g):
        tail_calls.append(g)
        return tail_identity(g)

    monkeypatch.setattr(theorems, "tail_identity", counting_tail)
    reports = run_all_checks(ga)
    monkeypatch.setattr(theorems, "evaluate_at_matrix", counting)
    payload = analysis_report(ga, reports, include_witnesses=True)
    assert seen and len(seen) == len(set(seen))
    assert tail_calls == [ga]
    columns = payload["theoremColumns"]
    assert set(columns["T33"]["witnesses"]) == {"Astar_D", "p_geqD_at_A"}
    assert set(columns["T37"]["witnesses"]) == {"weighted_excess_per_vertex"}
    astar = np.where(ga.dd.dist == ga.D, ga.jstar, 0.0)
    assert np.array_equal(columns["T33"]["witnesses"]["Astar_D"], astar)


def _assert_row(one_row, batch, k, reads_gaps=True):
    # every column of the one-row pass equals row k of the whole pass; a
    # row that reads no q-gap (T34 at j >= D) carries none
    assert one_row[:3] == batch[:3]  # theorem id, label and kind
    for name in ("lhs", "rhs", "slack", "state", "verdict", "equality_holds"):
        a, b = getattr(one_row, name), getattr(batch, name)
        assert (a is None and b is None) or np.array_equal(a, b[k:k + 1]), name
    for group in ("params", "details"):
        a, b = getattr(one_row, group), getattr(batch, group)
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[key], b[key] if np.ndim(b[key]) == 0 else b[key][k:k + 1])
                   for key in a), group
    assert one_row.q_gaps is (batch.q_gaps if reads_gaps else None)
    assert (one_row.witness_fn is None) == (batch.witness_fn is None)
    if batch.certificate is None:
        assert one_row.certificate is None
        return
    i = np.flatnonzero(batch.certificate.rows == k)
    assert one_row.certificate._replace(max_abs_diff=None, rows=None) == \
        batch.certificate._replace(max_abs_diff=None, rows=None)
    assert one_row.certificate.rows.tolist() == [0] * len(i)
    assert np.array_equal(one_row.certificate.max_abs_diff, batch.certificate.max_abs_diff[i])
    a, b = one_row.witness_fn(), batch.witness_fn()
    assert a.keys() == b.keys()
    assert all(np.array_equal(a[key], b[key][i]) for key in a)


@pytest.mark.parametrize("graphs", ["fixtures", "atlas"])
def test_local_checks_match_run_all_checks(request, graphs):
    # the one-row and the whole-family uses of the P31, T32, T34, P35 and
    # P36 passes agree
    if graphs == "fixtures":
        analyses, checks = request.getfixturevalue("analyses"), request.getfixturevalue("checks")
        analyzed = [(name, analyses(name), checks(name)) for name in ALL_NAMES]
    else:
        analyzed = request.getfixturevalue("atlas")
    for _name, ga, reports in analyzed:
        p31, t32, _t33, t34, p35, p36 = reports[:6]
        for u in range(ga.n):
            _assert_row(check_local_bound(ga, u), p31, u)
            _assert_row(check_local_spet(ga, u), t32, u)
        for rows, check in ((t34, check_harmonic_bound), (p35, check_partial_dr_matrix),
                            (p36, check_partial_dr_inequality)):
            for k, index in enumerate(next(iter(rows.params.values())).tolist()):
                reads_gaps = check is not check_harmonic_bound or index < ga.D
                _assert_row(check(ga, index), rows, k, reads_gaps)


def _q_gap(ga, j) -> float:
    """max|q_j(A) - S*_j| from q_j(A) evaluated alone."""
    at_a = evaluate_at_matrix(ga.global_seq.q_values[j], ga.spectrum)
    return float(np.abs(at_a - np.where(ga.dd.dist <= j, ga.jstar, 0.0)).max())


def _tail_gap(ga) -> float:
    """max|p_>=D(A) - A*_D| from p_>=D(A) evaluated alone."""
    at_a = evaluate_at_matrix(ga.global_seq.values[ga.D:].sum(axis=0), ga.spectrum)
    return float(np.abs(at_a - np.where(ga.dd.dist == ga.D, ga.jstar, 0.0)).max())


def _rows(rep, k) -> tuple:
    return (CODES[rep.state[k]], float(rep.lhs[k]), float(rep.rhs[k]), float(rep.slack[k]),
            rep.label_text(k), rep.verdict_text(k), bool(rep.equality_holds[k]))


@pytest.mark.parametrize("graphs", ["fixtures", "atlas"])
def test_column_families_match_scalar_rule(request, graphs):
    # every row of T33, T34, P36, T37 and T38 (state, sides, slack, label,
    # verdict, equality) and of P35 (matrix condition, oracle agreement,
    # verdict) against the per-row scalar reference: _compare and _ladder,
    # the saturation rule for T34 at j >= D, and each q_j(A) and p_>=D(A)
    # evaluated alone
    if graphs == "fixtures":
        analyses, checks = request.getfixturevalue("analyses"), request.getfixturevalue("checks")
        analyzed = [(name, analyses(name), checks(name)) for name in ALL_NAMES]
    else:
        analyzed = [entry for entry in request.getfixturevalue("atlas") if entry[1].n <= 6]
    seen = Counter()
    for name, ga, reports in analyzed:
        _p31, _t32, t33, t34, p35, p36, *chain = reports
        q, h, cls = ga.global_seq.q_lambda0, ga.stats.harmonic_means, ga.classification
        eq_tol, tol = ga.eq_tol, ga.eq_tol * max(1.0, ga.n)
        gaps = [_q_gap(ga, j) for j in range(min(ga.D, ga.d) + 1)]
        assert ga.q_gaps.max_abs_diff.tolist() == gaps, name
        seen.update(f"gap {'within' if gap <= tol else 'beyond'} tolerance" for gap in gaps)
        tail, delta, excess = _tail_gap(ga), ga.stats.delta_star, ga.spectral_excess
        assert t33.tail_gap.max_abs_diff == tail, name
        state, slack = _compare(delta[-1], excess, eq_tol)
        verdict = _ladder(state, state == "equal" and tail <= tol,
                          "spectral excess attained: A*_D = p_>=D(A)")
        assert _rows(t33, 0) == (state, float(delta[-1]), excess, slack,
                                 "delta*_D <= p_>=D(lambda0)", verdict,
                                 verdict.startswith("spectral")), name
        seen[f"T33 {state}"] += 1
        for k, j in enumerate(t34.params["j"].tolist()):
            label = f"q_{j}(lambda0) <= H*_<={j}"
            if j >= ga.D:
                top = j == ga.d
                state, lhs, rhs = "equal" if top else "strict", float(q[j]), float(ga.n)
                slack = math.fsum(ga.global_seq.p_lambda0[j + 1:])
                verdict = _ladder(state, top, f"harmonic bound attained: q_{j}(A) = J* "
                                              "(Hoffman identity)")
                seen["j = d" if top else "D <= j < d"] += 1
            else:
                (state, slack), lhs, rhs = _compare(q[j], h[j], eq_tol), float(q[j]), float(h[j])
                verdict = _ladder(state, state == "equal" and gaps[j] <= tol,
                                  f"harmonic bound attained: q_{j}(A) = S*_{j}")
                seen["j < D"] += 1
            got = _rows(t34, k)
            if j >= ga.D:  # one suffix sum from p_d: within d - j roundings of the tail
                assert abs(got[3] - slack) <= (ga.d - j) * 2.0 ** -52 * slack, (name, j)
                got = got[:3] + (slack,) + got[4:]
            assert got == (state, lhs, rhs, slack, label, verdict,
                           verdict.startswith("harmonic bound attained")), (name, j)
        level = cls.partial_dr_level
        for k, m in enumerate(p35.params["m"].tolist()):
            holds = gaps[m - 1] <= tol and gaps[m] <= tol
            agrees = holds == (level >= m)
            verdict = (f"{m}-partially distance-regular" if holds else
                       f"not {m}-partially distance-regular" if agrees else
                       "INTERNAL INCONSISTENCY: matrix conditions and oracle level disagree")
            assert (p35.equality_holds[k], p35.details["oracle_agrees"][k],
                    p35.verdict_text(k)) == (holds, agrees, verdict), (name, m)
            seen[f"P35 {holds}"] += 1
        for k, m in enumerate(p36.params["m"].tolist()):
            lhs, rhs = float(q[m - 1] + q[m]), float(h[m - 1] + h[m])
            state, slack = _compare(lhs, rhs, eq_tol)
            structural = cls.is_regular and gaps[m - 1] <= tol and gaps[m] <= tol
            oracle_ok = cls.is_regular and level >= m
            verdict = _ladder(state, state == "equal" and structural,
                              f"regular and {m}-partially distance-regular",
                              "scalar equality but structural certificate failed")
            assert _rows(p36, k) + (p36.details["oracle_agrees"][k],) == (
                state, lhs, rhs, slack, f"(q_{m - 1}+q_{m})(lambda0) <= H*_<={m - 1} + H*_<={m}",
                verdict, verdict.startswith("regular"), structural == oracle_ok), (name, m)
            seen[f"P36 {state}"] += 1
        if not chain:
            continue
        middle = ga.stats.n_minus_harmonic
        sphere = ga.stats.sphere_norms[:, -1]
        spread = float(sphere.max() - sphere.min())
        assert chain[0].certificate.max_abs_diff.tolist() == [spread], name
        links = (("i", "n - H*_<=D-1 <= p_>=D(lambda0)", middle, excess, tail <= tol,
                  "p_>=D(A) = A*_D"),
                 ("ii", "delta*_D <= n - H*_<=D-1", float(delta[-1]), middle,
                  spread <= eq_tol * max(1.0, float(np.abs(sphere).max())),
                  "constant weighted excess"))
        for k, (link, label, lhs, rhs, certified, identity) in enumerate(links):
            state, slack = _compare(lhs, rhs, eq_tol)
            holds = state == "equal" and certified
            verdict = f"link ({link}) equality: {identity}" if holds else f"link ({link}) {state}"
            assert _rows(chain[0], k) == (state, lhs, rhs, slack, label, verdict, holds), \
                (name, link)
            seen[f"T37 {state}"] += 1
        if len(chain) < 2:
            continue
        D = ga.D
        hypotheses = (("delta*_D vs p_>=D(lambda0)", float(delta[D]), excess),
                      ("delta*_D-1 vs p_D-1(lambda0)", float(delta[D - 1]),
                       float(ga.global_seq.p_lambda0[D - 1])))
        states = [_compare(lhs, rhs, eq_tol, "equality") for _label, lhs, rhs in hypotheses]
        hold = all(state == "equal" for state, _slack in states)
        oracle_ok = hold and cls.is_distance_polynomial and cls.is_regular and level >= D - 1
        verdict = ("hypotheses not satisfied; no claim" if not hold else
                   "distance-polynomial (oracle-certified; regular and "
                   f"{D - 1}-partially distance-regular)" if oracle_ok else
                   "INTERNAL INCONSISTENCY: hypotheses hold but oracle rejects")
        for k, ((label, lhs, rhs), (state, slack)) in enumerate(zip(hypotheses, states)):
            assert _rows(chain[1], k) == (state, lhs, rhs, slack, label, verdict,
                                          bool(oracle_ok)), (name, k)
        assert chain[1].details["hypotheses_hold"] == hold
        seen[f"T38 {hold}"] += 1
    assert {"j < D", "D <= j < d", "j = d", "gap within tolerance", "gap beyond tolerance",
            "P35 True", "P35 False", "P36 equal", "P36 strict", "T33 equal", "T33 strict",
            "T37 equal", "T37 strict", "T38 True", "T38 False"} <= set(seen), seen


def test_tail_identity_is_the_q_gap_at_d_minus_1(analyses, atlas, analyzed, wide):
    # q_d(A) = J* (Hoffman) and J* - A*_D = S*_{D-1}, so p_>=D(A) - A*_D =
    # S*_{D-1} - q_{D-1}(A): T33's tail gap and the q-gap at D - 1 certify
    # one identity, computed two ways
    graphs = [(name, analyses(name)) for name in ALL_NAMES]
    graphs += [(name, ga) for name, ga, _reports in atlas + analyzed + wide]
    passes = Counter()
    for name, ga in graphs:
        tail, q = ga.tail_identity[2], ga.q_gaps
        a, b = tail.max_abs_diff, q.max_abs_diff[ga.D - 1]
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)), name
        assert tail.passes == q.passes[ga.D - 1], name
        passes[bool(tail.passes)] += 1
    assert len(graphs) == 1170 and set(passes) == {True, False}, passes


def _with_row(rep, k, lhs_k, rhs_k, tol):
    """``rep`` with row k's sides replaced and its state from the scalar rule."""
    lhs, rhs, state = rep.lhs.copy(), rep.rhs.copy(), rep.state.copy()
    lhs[k], rhs[k] = lhs_k, rhs_k
    state[k] = CODES.index(_compare(lhs_k, rhs_k, tol)[0])
    return rep._replace(lhs=lhs, rhs=rhs, slack=rhs - lhs, state=state)


def test_column_violation_messages(analyses):
    # a violated T34 row and a violated P36 row, and a P35 row at odds with
    # its oracle, give the messages of the scalar reports
    ga = analyses("k23")
    t34, p35, p36 = (check(ga) for check in (check_harmonic_bound, check_partial_dr_matrix,
                                             check_partial_dr_inequality))
    eq_tol = ga.eq_tol
    t34, p36 = _with_row(t34, 1, 3.75, 3.5, eq_tol), _with_row(p36, 1, 9.5, 8.25, eq_tol)
    p35 = p35._replace(details={**p35.details, "oracle_agrees": np.array([False, True])})
    assert collect_violations([t34, p35, p36]) == [
        "T34: q_1(lambda0) <= H*_<=1: lhs=3.75 > rhs=3.5",
        "P35: oracle disagreement: not 1-partially distance-regular",
        "P36: (q_1+q_2)(lambda0) <= H*_<=1 + H*_<=2: lhs=9.5 > rhs=8.25",
    ]


def _json_ready(x) -> bool:
    if type(x) in (list, tuple):
        return all(map(_json_ready, x))
    if type(x) is dict:
        return all(type(k) is str and _json_ready(v) for k, v in x.items())
    return type(x) in (bool, int, float, str, type(None))


@pytest.mark.parametrize("graphs", ["fixtures", "analyzed", "wide"])
def test_report_values_are_json_ready(request, graphs):
    # the report passes labels, params, details and the certificate names
    # and tolerances to the JSON encoder as built, so they must be plain
    # Python values, also when a one-row check is called with numpy integers
    if graphs == "fixtures":
        analyses, checks = request.getfixturevalue("analyses"), request.getfixturevalue("checks")
        analyzed = [(name, analyses(name), checks(name)) for name in ALL_NAMES]
    else:
        analyzed = request.getfixturevalue(graphs)
    for name, ga, reports in analyzed:
        u = np.int64(ga.n - 1)
        extra = [check_local_bound(ga, u), check_local_bound(ga, u, j=np.int64(0)),
                 check_local_spet(ga, u), check_harmonic_bound(ga, np.int64(0))]
        for rep in reports + extra:
            assert _json_ready(theorem_columns_dict([rep], include_witnesses=True)), name
