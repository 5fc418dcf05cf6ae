"""Randomized property suites over the seeded corpora: n <= 12, and the
wide corpus of graphs with up to 60 distinct eigenvalues."""

import numpy as np
import pytest

import corpus


@pytest.fixture(scope="module")
def analyzed():
    graphs = corpus.build_corpus()
    assert len(graphs) >= 100
    return corpus.analyze_corpus(graphs)


def test_corpus_composition(analyzed):
    assert len(analyzed) >= 100
    assert all(ga.n <= 12 for _name, ga, _reps in analyzed)
    assert any(name.startswith("er") for name, *_ in analyzed)
    assert any(name.startswith("tree") for name, *_ in analyzed)


def test_mean_of_local_products(analyzed):
    fails = corpus.battery_mean_of_local_products(analyzed)
    assert not fails, fails[:5]


def test_local_multiplicity_sums(analyzed):
    fails = corpus.battery_local_multiplicities(analyzed)
    assert not fails, fails[:5]


def test_eccentricity_bound(analyzed):
    fails = corpus.battery_eccentricity_bound(analyzed)
    assert not fails, fails[:5]


def test_inequality_slacks(analyzed):
    fails = corpus.battery_inequality_slacks(analyzed)
    assert not fails, fails[:5]


def test_hoffman_characterization(analyzed):
    fails = corpus.battery_hoffman(analyzed)
    assert not fails, fails[:5]


def test_weighted_degree_constancy(analyzed):
    fails = corpus.battery_weighted_degree(analyzed)
    assert not fails, fails[:5]


def test_oracle_agreement(analyzed):
    fails = corpus.battery_oracle_agreement(analyzed)
    assert not fails, fails[:5]


def test_orthogonality_and_normalization_on_corpus(analyzed):
    fails = corpus.battery_orthogonality(analyzed)
    assert not fails, fails[:5]


def test_perron_positivity_and_normalizations(analyzed):
    for name, ga, _reps in analyzed:
        alpha, nu = ga.perron.alpha, ga.perron.nu
        assert np.all(alpha > 0), name
        assert abs(float(alpha @ alpha) - ga.n) <= 1e-9 * ga.n, name
        assert abs(nu.min() - 1.0) <= 1e-12, name


def test_ball_norm_saturation(analyzed):
    for name, ga, _reps in analyzed:
        for ls in ga.local_spectra:
            got = ga.stats.ball_norm_at(ls.vertex, ls.eccentricity)
            assert abs(got - ga.n) <= 1e-9 * ga.n, name


def test_harmonic_monotone(analyzed):
    for name, ga, _reps in analyzed:
        assert np.all(np.diff(ga.stats.harmonic_means) >= -1e-10), name


# --- many distinct eigenvalues ---------------------------------------------------


@pytest.fixture(scope="module")
def wide():
    return corpus.analyze_corpus(corpus.build_wide_corpus())


def test_wide_corpus_composition(wide):
    # every graph has d >= 17, where Gram-Schmidt on monomials breaks down
    assert len(wide) == 51
    assert min(ga.d for _name, ga, _reps in wide) >= 17
    assert max(ga.d for _name, ga, _reps in wide) >= 50


@pytest.mark.parametrize("battery", corpus.ALL_BATTERIES,
                         ids=lambda b: b.__name__.removeprefix("battery_"))
def test_wide_corpus_batteries(wide, battery):
    # the sum rule holds to rounding here, not just to its default 1e-8
    kwargs = {"tol": 1e-12} if battery is corpus.battery_hoffman else {}
    fails = battery(wide, **kwargs)
    assert not fails, fails[:5]
