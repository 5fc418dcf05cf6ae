import numpy as np
import pytest

from spexcess import fixtures as fx
from spexcess.classify import (
    is_distance_polynomial,
    is_distance_regular,
    is_pseudo_dr_around,
    partial_dr_level,
)
from spexcess.pipeline import analyze_graph
from spexcess.theorems import check_local_spet


def _ga(name):
    g = fx.star(3) if name == "k13" else fx.named(name)
    return analyze_graph(g)


def test_petersen_pseudo_dr_everywhere():
    ga = _ga("petersen")
    for u in range(10):
        res = is_pseudo_dr_around(u, ga.dd, ga.perron)
        assert res.is_pdr
        expected = np.array([[0.0, 1.0, 1.0],   # c*
                             [0.0, 0.0, 2.0],   # a*
                             [3.0, 2.0, 0.0]])  # b*
        assert np.abs(res.numbers - expected).max() <= 1e-9


def test_pseudo_intersection_row_sums():
    # c* + a* + b* = lambda_0 at every radius (all neighbors accounted for)
    for name in ("k23", "p3", "petersen", "k13"):
        ga = _ga(name)
        for u in range(ga.n):
            res = is_pseudo_dr_around(u, ga.dd, ga.perron)
            if res.is_pdr:
                sums = res.numbers.sum(axis=0)
                assert np.abs(sums - ga.lambda0).max() <= 1e-9


def test_p3_center_pseudo_dr():
    ga = _ga("p3")
    res = is_pseudo_dr_around(1, ga.dd, ga.perron)
    assert res.is_pdr


def test_k13_leaf_agrees_with_local_spet():
    ga = _ga("k13")
    for u in range(4):
        oracle = is_pseudo_dr_around(u, ga.dd, ga.perron)
        spectral = check_local_spet(ga, u)
        assert oracle.is_pdr == spectral.equality_holds
        assert spectral.details["oracle_agrees"]


def test_pseudo_dr_violation_reported():
    ga = _ga("c8_12")
    res = is_pseudo_dr_around(0, ga.dd, ga.perron)
    assert not res.is_pdr
    i, v, w, lo, hi, which = res.violation
    assert hi - lo > 1e-7
    assert which in ("a", "b", "c")


def test_distance_regular_petersen():
    ga = _ga("petersen")
    res = is_distance_regular(ga.dd)
    assert res.is_drg
    assert res.intersection_array["b"] == [3, 2]
    assert res.intersection_array["c"] == [1, 1]


def test_distance_regular_c4():
    res = is_distance_regular(_ga("c4").dd)
    assert res.is_drg
    assert res.intersection_array["b"] == [2, 1]
    assert res.intersection_array["c"] == [1, 2]


def test_cycle_intersection_arrays():
    res = is_distance_regular(_ga("c7").dd)
    assert res.is_drg
    assert res.intersection_array["b"] == [2, 1, 1]
    assert res.intersection_array["c"] == [1, 1, 1]
    res = is_distance_regular(_ga("c8").dd)
    assert res.intersection_array["b"] == [2, 1, 1, 1]
    assert res.intersection_array["c"] == [1, 1, 1, 2]


def test_not_distance_regular():
    for name in ("k23", "p3", "c8_12", "k13"):
        res = is_distance_regular(_ga(name).dd)
        assert not res.is_drg
        assert res.violation is not None


def test_distance_polynomial_drg_fixtures():
    for name in ("petersen", "c6", "k4", "c5"):
        ga = _ga(name)
        ok, residuals = is_distance_polynomial(ga.dd, ga.spectrum)
        assert ok
        assert residuals.max() <= 1e-9


def test_distance_polynomial_p3_negative():
    ga = _ga("p3")
    ok, residuals = is_distance_polynomial(ga.dd, ga.spectrum)
    assert not ok
    # A_2 minus its projection onto span{E_0, E_1, E_2} = span{I, A, A^2}
    # has Frobenius norm sqrt(1/2)
    assert residuals[2] > 0.1
    assert residuals[2] == pytest.approx(np.sqrt(0.5), rel=1e-6)


def test_distance_polynomial_c8_12():
    # regular with D = 2: A_2 = J - I - A lies in the algebra
    ga = _ga("c8_12")
    ok, residuals = is_distance_polynomial(ga.dd, ga.spectrum)
    assert ok and residuals.max() <= 1e-8


def _level(name):
    ga = _ga(name)
    return partial_dr_level(ga.dd, ga.spectrum, ga.global_seq)


def test_partial_dr_levels():
    assert _level("petersen") == 2
    assert _level("c8") == 4
    # nonregular: p_1(A) = (lambda_0/mean degree) A != A, so level 0
    assert _level("k23") == 0
    assert _level("p3") == 0
    # regular non-DRG circulant: level 1 only
    assert _level("c8_12") == 1


def test_level_at_least_one_iff_regular():
    for name in ("k23", "p3", "k13", "petersen", "c6", "c8_12", "k5"):
        ga = _ga(name)
        level = ga.classification.partial_dr_level
        assert (level >= 1) == ga.classification.is_regular, name


def test_drg_iff_level_d_and_d_equals_diameter():
    for name in ("petersen", "c4", "c5", "c6", "c7", "c8", "k2", "k3", "k4",
                 "k5", "k23", "p3", "c8_12", "k13"):
        ga = _ga(name)
        cls = ga.classification
        spectral_side = cls.partial_dr_level == ga.D and ga.D == ga.d
        assert cls.is_distance_regular == spectral_side, name


def test_classification_implications():
    for name in ("petersen", "c6", "k4"):
        cls = _ga(name).classification
        assert cls.is_distance_regular
        assert cls.is_regular and cls.is_distance_polynomial
        assert len(cls.pseudo_dr_vertices) == len(cls.pseudo_dr)


def test_extremal_vertices():
    ga = _ga("k23")
    assert ga.classification.extremal_vertices == tuple(range(5))
    ga = _ga("c8_12")
    assert ga.classification.extremal_vertices == ()
