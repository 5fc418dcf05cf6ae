import math
from fractions import Fraction

import numpy as np
import pytest

from spexcess import fixtures as fx
from spexcess.errors import DegreeError, HypothesisError
from spexcess.pipeline import analyze_graph, run_all_checks
from spexcess.theorems import (
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


# --- P31 local bound ---------------------------------------------------------

def test_p31_trivial_r_one(analyses):
    ga = analyses("k23")
    for u in range(ga.n):
        rep = check_local_bound(ga, u, j=0, r=[1.0])
        assert rep.lhs == pytest.approx(1.0, abs=1e-10)
        assert rep.rhs == pytest.approx(1.0, abs=1e-10)
        assert rep.equality_holds  # Eq (4) reads e_u = e_{N_0(u)}


def test_p31_petersen_q1(analyses):
    ga = analyses("petersen")
    for u in range(ga.n):
        rep = check_local_bound(ga, u, j=1)
        assert rep.equality_holds
        assert ga.local_seqs[u].q_lambda0[1] == pytest.approx(4.0, rel=1e-9)
        assert ga.stats.ball_norm_at(u, 1) == pytest.approx(4.0, rel=1e-9)


def test_p31_k23_degree2_vertex_strict(analyses):
    ga = analyses("k23")
    rep = check_local_bound(ga, 2, j=1, r=[0.0, 1.0])
    assert rep.lhs == pytest.approx(math.sqrt(3), rel=1e-9)
    assert rep.rhs == pytest.approx(2.0, rel=1e-9)
    assert rep.comparisons[0].state == "strict"
    assert not rep.equality_holds


def test_p31_degree_error(analyses):
    ga = analyses("k23")
    with pytest.raises(DegreeError):
        check_local_bound(ga, 0, j=1, r=[0.0, 0.0, 1.0])
    with pytest.raises(DegreeError):
        check_local_bound(ga, 0, j=99)


def test_p31_saturation_not_certified(analyses):
    # C_8(1,2): no vertex is extremal; at j = d_u the ball saturates and the
    # scalar bound is attained, but the equality verdict must stay negative
    ga = analyses("c8_12")
    rep = check_local_bound(ga, 0, j=ga.local_spectra[0].du)
    assert rep.comparisons[0].scalar_equal
    assert not rep.equality_holds
    assert rep.details["ball_saturated"]


def test_p31_default_j_is_eccentricity(analyses):
    ga = analyses("c8_12")
    rep = check_local_bound(ga, 0)
    assert rep.params["j"] == ga.local_spectra[0].eccentricity
    assert rep.comparisons[0].state == "strict"


# --- T32 local spectral excess -------------------------------------------------

def test_t32_petersen_everywhere(analyses):
    ga = analyses("petersen")
    for u in range(ga.n):
        rep = check_local_spet(ga, u)
        assert rep.equality_holds
        assert rep.details["oracle_agrees"]
        assert "pseudo-distance-regular" in rep.verdict


def test_t32_p3_center(analyses):
    ga = analyses("p3")
    rep = check_local_spet(ga, 1)
    assert rep.equality_holds
    assert rep.lhs == pytest.approx(1.5, rel=1e-9)
    assert rep.rhs == pytest.approx(1.5, rel=1e-9)


def test_t32_k23_matches_oracle(analyses):
    ga = analyses("k23")
    for u in range(ga.n):
        rep = check_local_spet(ga, u)
        assert rep.details["oracle_agrees"]
        assert rep.equality_holds == ga.classification.pseudo_dr[u].is_pdr


def test_t32_nonextremal_vertex(analyses):
    ga = analyses("c8_12")
    rep = check_local_spet(ga, 0)
    assert rep.rhs == 0.0
    assert rep.comparisons[0].state == "unequal"
    assert not rep.equality_holds
    assert rep.details["oracle_agrees"]


# --- T33 Lee-Weng bound ---------------------------------------------------------

def test_t33_k23_strict(analyses):
    rep = check_lee_weng(analyses("k23"))
    assert rep.lhs == pytest.approx(float(Fraction(35, 24)), rel=1e-9)
    assert rep.rhs == pytest.approx(1.5, rel=1e-9)
    assert rep.comparisons[0].state == "strict"
    assert not rep.equality_holds


def test_t33_drg_equality(analyses):
    for name in DRG_NAMES:
        rep = check_lee_weng(analyses(name))
        assert rep.equality_holds, name
        assert rep.certificates[0].passes
        assert rep.certificates[0].max_abs_diff <= 1e-6


def test_t33_petersen_witness_is_a2(analyses):
    ga = analyses("petersen")
    rep = check_lee_weng(ga)
    assert np.abs(rep.witnesses["p_geqD_at_A"] - ga.dd.distance_matrices[2]).max() <= 1e-7


# --- T34 harmonic bound -----------------------------------------------------------

def test_t34_j0_exposes_regularity(analyses):
    # scalar sides are both 1; the matrix identity I = I* needs regularity
    rep = check_harmonic_bound(analyses("k23"), 0)
    assert rep.comparisons[0].scalar_equal
    assert not rep.certificates[0].passes
    assert not rep.equality_holds
    rep = check_harmonic_bound(analyses("petersen"), 0)
    assert rep.equality_holds


def test_t34_k23_j1(analyses):
    rep = check_harmonic_bound(analyses("k23"), 1)
    assert rep.lhs == pytest.approx(3.5, rel=1e-9)
    assert rep.rhs == pytest.approx(float(Fraction(60, 17)), rel=1e-9)
    assert rep.comparisons[0].state == "strict"


def test_t34_petersen_j1_equality(analyses):
    ga = analyses("petersen")
    rep = check_harmonic_bound(ga, 1)
    assert rep.equality_holds
    expected = np.eye(10) + np.asarray(ga.graph.adjacency)
    assert np.abs(rep.witnesses["q_j_at_A"] - expected).max() <= 1e-7
    assert np.abs(rep.witnesses["Sstar_j"] - expected).max() <= 1e-9


def test_t34_eta_witness_on_equality(analyses):
    rep = check_harmonic_bound(analyses("c6"), 1)
    assert rep.equality_holds
    assert np.abs(rep.witnesses["eta"] - 1.0).max() <= 1e-8


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
            assert rep.slack >= -1e-7, (name, j)


# --- P35 / P36 partial distance-regularity -----------------------------------------

def test_p35_petersen(analyses):
    rep = check_partial_dr_matrix(analyses("petersen"), 2)
    assert rep.equality_holds
    assert rep.details["oracle_agrees"]
    assert "2-partially" in rep.verdict


def test_p35_k23(analyses):
    rep = check_partial_dr_matrix(analyses("k23"), 1)
    assert not rep.equality_holds
    assert rep.details["oracle_agrees"]


def test_p36_petersen_m2_equality(analyses):
    rep = check_partial_dr_inequality(analyses("petersen"), 2)
    assert rep.equality_holds
    assert "regular and 2-partially" in rep.verdict


def test_p36_k23_m2_strict(analyses):
    rep = check_partial_dr_inequality(analyses("k23"), 2)
    assert rep.comparisons[0].state == "strict"
    assert not rep.equality_holds


def test_p36_c6_m2_equality(analyses):
    rep = check_partial_dr_inequality(analyses("c6"), 2)
    assert rep.equality_holds


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
    (i_link, ii_link) = rep.comparisons
    assert i_link.rhs == pytest.approx(1.5, rel=1e-9)
    assert i_link.lhs == pytest.approx(float(Fraction(25, 17)), rel=1e-9)
    assert ii_link.lhs == pytest.approx(float(Fraction(35, 24)), rel=1e-9)
    assert i_link.state == "strict" and ii_link.state == "strict"
    assert i_link.slack == pytest.approx(1.5 - 25 / 17, rel=1e-9)
    assert ii_link.slack == pytest.approx(25 / 17 - 35 / 24, rel=1e-9)


def test_t37_petersen_double_equality(analyses):
    rep = check_chain(analyses("petersen"))
    assert rep.equality_holds
    assert rep.details["equality_i"] and rep.details["equality_ii"]
    excess = rep.witnesses["weighted_excess_per_vertex"]
    assert np.abs(excess - 6.0).max() <= 1e-9


def test_t37_circulant_vertex_transitive(analyses):
    # constant excess by transitivity forces equality in (ii); for a regular
    # graph with D = 2 the matrix identity p_>=D(A) = J - I - A = A_2 also
    # grants equality in (i)
    rep = check_chain(analyses("c8_12"))
    assert rep.details["equality_ii"]
    assert rep.details["equality_i"]
    assert rep.certificates[0].passes


def test_t37_p3(analyses):
    rep = check_chain(analyses("p3"))
    assert not rep.equality_holds
    for comp in rep.comparisons:
        assert comp.slack >= -1e-7


# --- T38 distance-polynomial sufficient condition --------------------------------------

def test_t38_petersen(analyses):
    rep = check_distance_polynomial_sufficient(analyses("petersen"))
    assert rep.equality_holds
    assert rep.details["oracle_agrees"]
    assert "distance-polynomial" in rep.verdict


def test_t38_k23_no_claim(analyses):
    rep = check_distance_polynomial_sufficient(analyses("k23"))
    assert not rep.details["hypotheses_hold"]
    assert rep.verdict == "hypotheses not satisfied; no claim"


def test_t38_p3_no_claim(analyses):
    ga = analyses("p3")
    rep = check_distance_polynomial_sufficient(ga)
    assert not rep.details["hypotheses_hold"]
    assert not ga.classification.is_distance_polynomial


def test_t38_c8_12_positive(analyses):
    # hypotheses hold: delta*_2 = 3 = p_>=2(lambda_0), delta*_1 = 4 = p_1(lambda_0)
    rep = check_distance_polynomial_sufficient(analyses("c8_12"))
    assert rep.details["hypotheses_hold"]
    assert rep.equality_holds
    assert rep.details["oracle_partial_dr_level"] >= 1


def test_t38_needs_diameter_two(analyses):
    with pytest.raises(HypothesisError):
        check_distance_polynomial_sufficient(analyses("k2"))


# --- global consistency over all fixtures ----------------------------------------------

ALL_FIXTURES = sorted(fx.BUNDLED) + ["k13", "p4", "p5"]


def test_all_fixture_checks_sound(checks):
    for name in ALL_FIXTURES:
        for rep in checks(name):
            assert not rep.inequality_violations(), (name, rep.theorem_id)
            assert rep.details.get("oracle_agrees") is not False, (name, rep.theorem_id)


def test_equality_verdicts_have_certificates(checks):
    # certified equality implies every certificate passed, and certified
    # matrix identities imply the scalar sides agree (T34 j=0 on nonregular
    # graphs is the known one-sided case, exercised separately)
    for name in ALL_FIXTURES:
        for rep in checks(name):
            if rep.equality_holds:
                assert all(c.passes for c in rep.certificates), (name, rep.theorem_id)
            if rep.theorem_id in ("T33", "T34") and rep.certificates[0].passes:
                assert rep.comparisons[0].scalar_equal, (name, rep.theorem_id)


def test_chain_middle_term_ordering(checks, analyses):
    # p_>=D(lambda_0) >= n - H* >= delta*_D numerically on every fixture
    for name in ALL_FIXTURES:
        ga = analyses(name)
        if ga.D < 1:
            continue
        se = ga.stats.spectral_excess
        mid = ga.stats.n_minus_harmonic
        dd = ga.stats.delta_star[-1]
        assert se >= mid - 1e-9 and mid >= dd - 1e-9, name
