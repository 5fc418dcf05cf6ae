import math
from fractions import Fraction

import numpy as np
import pytest

from spexcess import fixtures as fx
from spexcess.pipeline import analyze_graph


def _ga(name):
    return analyze_graph(fx.named(name))


def _astar(ga, i):
    """A*_i = A_i o J*, the mask of J* that the checks take."""
    return np.where(ga.dd.dist == i, ga.jstar, 0.0)


def test_weighted_matrices_regular_equal_unweighted():
    ga = _ga("petersen")
    for i in range(ga.D + 1):
        assert np.abs(_astar(ga, i) - (ga.dd.dist == i)).max() <= 1e-10
    assert np.abs(ga.jstar - 1.0).max() <= 1e-10


def test_weighted_matrices_k23_entries():
    ga = _ga("k23")
    # degree-3 vertices are 0 and 1, at distance 2 from each other
    assert _astar(ga, 2)[0, 1] == pytest.approx(5 / 4, rel=1e-10)
    assert _astar(ga, 2)[0, 0] == 0.0
    # A*_0 = diag(alpha_u^2), the weighted identity
    assert np.abs(_astar(ga, 0) - np.diag(ga.alpha ** 2)).max() <= 1e-12


def test_weighted_partition_identity():
    for name in ("k23", "p3", "c8_12", "petersen"):
        ga = _ga(name)
        total = np.zeros((ga.n, ga.n))
        for j in range(ga.D + 1):
            total = total + _astar(ga, j)
            # each entry of the partial sum has one nonzero term
            assert np.array_equal(np.where(ga.dd.dist <= j, ga.jstar, 0.0), total)
        assert np.abs(total - ga.jstar).max() <= 1e-12
        for j in (ga.D, ga.D + 3):  # S*_j saturates at J*
            assert np.array_equal(np.where(ga.dd.dist <= j, ga.jstar, 0.0), ga.jstar)


def test_ball_norms_saturate_at_n():
    for name in ("k23", "p3", "c6"):
        ga = _ga(name)
        for u in range(ga.n):
            ecc = ga.dd.ecc[u]
            assert ga.stats.ball_norms[u, ecc] == pytest.approx(ga.n, rel=1e-12)
        assert np.abs(ga.stats.ball_norms[:, -1] - ga.n).max() <= 1e-9


def test_ball_plus_last_sphere():
    ga = _ga("k23")
    d = ga.D
    lhs = ga.stats.ball_norms[:, d - 1]
    rhs = ga.n - ga.stats.sphere_norms[:, d]
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_k23_headline_numbers():
    ga = _ga("k23")
    assert ga.spectral_excess == pytest.approx(1.5, rel=1e-9)
    assert ga.stats.n_minus_harmonic == pytest.approx(float(Fraction(25, 17)), rel=1e-9)
    assert ga.stats.delta_star[-1] == pytest.approx(float(Fraction(35, 24)), rel=1e-9)
    assert ga.stats.harmonic_means[1] == pytest.approx(float(Fraction(60, 17)), rel=1e-9)
    # strict ordering of the chain
    assert ga.spectral_excess > ga.stats.n_minus_harmonic > ga.stats.delta_star[-1]


def test_petersen_excess_equality():
    ga = _ga("petersen")
    assert ga.stats.delta_star[2] == pytest.approx(6.0, rel=1e-9)
    assert ga.spectral_excess == pytest.approx(6.0, rel=1e-9)


def test_avg_weighted_degree_is_lambda0():
    # (1/alpha_u) sum_{v ~ u} alpha_v = lambda_0: alpha checked apart from src/
    for name in ("k23", "p3", "petersen", "c8_12", "k13"):
        g = fx.named(name) if name != "k13" else fx.star(3)
        ga = analyze_graph(g)
        avg = ((ga.dd.dist == 1) @ ga.alpha) / ga.alpha
        assert np.abs(avg - ga.spectrum.lambda0).max() <= 1e-9


def test_delta_star_equals_matrix_norm():
    # two computation paths: statistics vs (1/n) tr((A*_D)^2)
    for name in ("k23", "p3", "petersen", "c8_12"):
        ga = _ga(name)
        a_star_d = _astar(ga, ga.D)
        via_trace = float(np.sum(a_star_d * a_star_d)) / ga.n
        assert ga.stats.delta_star[-1] == pytest.approx(via_trace, rel=1e-9)


def test_delta_star_regular_is_average_excess():
    for name in ("petersen", "c6", "c8_12"):
        ga = _ga(name)
        k_d = np.mean([np.count_nonzero(ga.dd.dist[u] == ga.D) for u in range(ga.n)])
        assert ga.stats.delta_star[-1] == pytest.approx(k_d, rel=1e-9)


def test_harmonic_means_monotone():
    for name in ("k23", "p3", "c8", "c8_12", "petersen"):
        ga = _ga(name)
        h = ga.stats.harmonic_means
        assert np.all(np.diff(h) >= -1e-12)
        assert h[-1] == pytest.approx(ga.n, rel=1e-12)


def test_harmonic_vs_arithmetic_chain():
    for name in ("k23", "p3", "c8_12", "k13", "p5"):
        g = (fx.star(3) if name == "k13"
             else fx.path(5) if name == "p5" else fx.named(name))
        ga = analyze_graph(g)
        assert ga.stats.n_minus_harmonic >= ga.stats.delta_star[-1] - 1e-10



def test_memory_does_not_grow_with_diameter():
    # the radii go in cache-sized stacks: a long path (D = n - 1) needs
    # O(n^2) working memory, not (D + 1) n x n masks or q_j(A) at once.
    # The path is not regular, so the modular distance-polynomial test is
    # measured on prism(75) (n = 150, D = 38, level 1), which reaches it
    import tracemalloc

    import networkx as nx

    import corpus
    from spexcess.classify import is_distance_polynomial
    from spexcess.theorems import q_gap_certificate
    from spexcess.weighted import excess_stats

    ga = analyze_graph(fx.path(150))
    prism = analyze_graph(corpus.from_networkx(nx.circular_ladder_graph(75)))
    assert (prism.n, prism.D, prism.classification.partial_dr_level) == (150, 38, 1)
    ga.global_seq, ga.jstar  # the stages the measured calls read, built beforehand
    for work in (lambda: excess_stats(ga.dd, ga.alpha),
                 lambda: is_distance_polynomial(prism.dd),
                 lambda: q_gap_certificate(ga)):
        tracemalloc.start()
        try:
            work()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * ga.n ** 2
