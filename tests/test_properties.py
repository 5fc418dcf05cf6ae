"""Randomized property suites over the seeded corpora: n <= 12, and the
wide corpus of graphs with up to 60 distinct eigenvalues."""

import re
from collections import Counter, defaultdict

import numpy as np
import pytest

import corpus
from conftest import ALL_NAMES
from spexcess.report import collect_violations
from spexcess.theorems import CODES


def test_corpus_composition(analyzed):
    assert len(analyzed) >= 100
    assert all(ga.n <= 12 for _name, ga, _reps in analyzed)
    assert any(name.startswith("er") for name, *_ in analyzed)
    assert any(name.startswith("tree") for name, *_ in analyzed)


@pytest.mark.parametrize("battery", corpus.ALL_BATTERIES,
                         ids=lambda b: b.__name__.removeprefix("battery_"))
def test_corpus_batteries(analyzed, battery):
    fails = battery(analyzed)
    assert not fails, fails[:5]


def test_perron_positivity_and_normalizations(analyzed):
    for name, ga, _reps in analyzed:
        alpha = ga.alpha
        assert np.all(alpha > 0), name
        assert abs(float(alpha @ alpha) - ga.n) <= 1e-9 * ga.n, name


def test_ball_norm_saturation(analyzed):
    for name, ga, _reps in analyzed:
        for u, ecc in enumerate(ga.dd.ecc):
            got = ga.stats.ball_norms[u, ecc]
            assert abs(got - ga.n) <= 1e-9 * ga.n, name


def test_harmonic_monotone(analyzed):
    for name, ga, _reps in analyzed:
        assert np.all(np.diff(ga.stats.harmonic_means) >= -1e-10), name


# --- many distinct eigenvalues ---------------------------------------------------


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


def _exact_counts(named, count):
    """``count`` of each graph modulo both Krylov primes, batched by n; the
    two primes must agree.  Yields (name, ga, counts)."""
    by_n = defaultdict(list)
    for name, ga in named:
        by_n[ga.n].append((name, ga))
    for n, group in by_n.items():
        adjacency = np.stack([ga.graph.adjacency for _name, ga in group])
        first, second = (count(adjacency, p) for p in corpus.KRYLOV_PRIMES)
        assert np.array_equal(first, second), n
        for (name, ga), counts in zip(group, first):
            yield name, ga, counts


def test_local_supports_match_exact_krylov_counts(atlas, analyzed, wide):
    # d_u + 1 = dim span{A^k e_u}, counted exactly at every vertex of the
    # atlas and both corpora: among them the wide graphs where a present
    # mass lies below 1e-9 (er30x0's vertex 7 has 2.91e-10 at lambda_23)
    named = [(name, ga) for name, ga, _reps in atlas + analyzed + wide]
    for name, ga, dims in _exact_counts(named, corpus.krylov_dims):
        assert np.array_equal(ga.local_spectra.du + 1, dims), (name, ga.local_spectra.du, dims)


def test_eigenvalue_classes_match_exact_hankel_ranks(analyses, atlas, analyzed, wide):
    # d + 1 = rank (tr A^(i+j)), counted exactly from the walk counts alone,
    # so the residual grouping merges no two eigenvalues and splits no one
    named = [(name, analyses(name)) for name in ALL_NAMES]
    named += [(name, ga) for name, ga, _reps in atlas + analyzed + wide]
    for name, ga, rank in _exact_counts(named, corpus.distinct_eigenvalue_counts):
        assert ga.d + 1 == rank, (name, ga.d, rank)


def test_er30x0_reaches_its_hoffman_row(wide):
    _name, ga, reports = next(entry for entry in wide if entry[0] == "er30x0")
    assert ga.local_spectra.du[7] == 29 and ga.min_du == 29 == ga.d
    t34 = next(rep for rep in reports if rep.theorem_id == "T34")
    assert t34.params["j"][-1] == 29
    assert t34.verdict_text(-1) == "harmonic bound attained: q_29(A) = J* (Hoffman identity)"


# --- exhaustive census, n <= 7 ----------------------------------------------------


# at j >= D (T34) and j >= ecc(u) (P31) the saturation rule decides: before
# it, 309 of the 1899 T34 reports with D <= j < d read ambiguous and 46
# scalar-only, and 20 non-extremal P31 reports read ambiguous
T34_CENSUS = {
    ("j < D", "harmonic bound attained: q_#(A) = S*_#"): 26,
    ("j < D", "scalar equality but matrix certificate failed"): 980,
    ("j < D", "strict inequality"): 1613,
    ("D <= j < d", "strict inequality"): 1899,
    ("j = d", "harmonic bound attained: q_#(A) = J* (Hoffman identity)"): 92,
}
P31_CENSUS = {
    (False, "strict inequality"): 6234,
    (True, "bound attained; vertex is extremal (ball saturated: N_j(u) = V)"): 546,
}


def _template(verdict):
    return re.sub(r"\d+", "#", verdict)


def test_atlas_census(atlas):
    # every connected graph on 2..7 vertices: no exception, no inequality
    # violation, no oracle disagreement; T34 is counted by radius band and
    # P31 by extremality, per verdict
    assert len(atlas) == 995
    t34, p31 = Counter(), Counter()
    for name, ga, (p31_rows, *reports) in atlas:
        assert not collect_violations([p31_rows] + reports), name
        p31.update(zip(p31_rows.details["extremal"].tolist(),
                       (_template(CODES[k]) for k in p31_rows.verdict.tolist())))
        rows = next(rep for rep in reports if rep.theorem_id == "T34")
        for k, j in enumerate(rows.params["j"].tolist()):
            band = "j < D" if j < ga.D else "D <= j < d" if j < ga.d else "j = d"
            t34[band, _template(rows.verdict_text(k))] += 1
    assert t34 == T34_CENSUS
    assert p31 == P31_CENSUS


@pytest.mark.parametrize("battery", corpus.ALL_BATTERIES,
                         ids=lambda b: b.__name__.removeprefix("battery_"))
def test_atlas_batteries(atlas, battery):
    fails = battery(atlas)
    assert not fails, fails[:5]
