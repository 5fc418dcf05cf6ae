import networkx as nx
import numpy as np
import pytest

import corpus
import spexcess.classify
import spexcess.poly
import spexcess.spectral
import spexcess.weighted
from conftest import ALL_NAMES
from spexcess import fixtures as fx
from spexcess.classify import is_distance_polynomial
from spexcess.graphs import Graph
from spexcess.pipeline import analyze_graph
from spexcess.theorems import check_local_bound, check_local_spet


def _ga(name):
    g = fx.star(3) if name == "k13" else fx.named(name)
    return analyze_graph(g)


def test_petersen_pseudo_dr_everywhere():
    cls = _ga("petersen").classification
    assert cls.is_pdr.all()
    expected = np.array([[0.0, 1.0, 1.0],   # c*
                         [0.0, 0.0, 2.0],   # a*
                         [3.0, 2.0, 0.0]])  # b*
    assert np.abs(cls.pdr_numbers - expected).max() <= 1e-9


def test_pseudo_intersection_row_sums():
    # c* + a* + b* = lambda_0 at every radius (all neighbors accounted for)
    for name in ("k23", "p3", "petersen", "k13"):
        ga = _ga(name)
        cls = ga.classification
        for u in np.flatnonzero(cls.is_pdr):
            sums = cls.pdr_numbers[u, :, :ga.dd.ecc[u] + 1].sum(axis=0)
            assert np.abs(sums - ga.spectrum.lambda0).max() <= 1e-9


def test_p3_center_pseudo_dr():
    ga = _ga("p3")
    assert ga.classification.is_pdr[1]


def test_k13_leaf_agrees_with_local_spet():
    ga = _ga("k13")
    for u, is_pdr in enumerate(ga.classification.is_pdr):
        spectral = check_local_spet(ga, u)
        assert is_pdr == spectral.equality_holds[0]
        assert spectral.details["oracle_agrees"][0]


def test_pseudo_dr_violation_reported():
    ga = _ga("c8_12")
    assert not ga.classification.is_pdr[0]
    i, v, w, lo, hi, which = corpus.violations_by_vertex(ga.classification)[0]
    assert hi - lo > 1e-7
    assert which in ("a", "b", "c")


def test_oracles_match_references_on_fixtures(analyses):
    analyzed = [(name, analyses(name), None) for name in ALL_NAMES]
    for battery in (corpus.battery_pseudo_dr_reference,
                    corpus.battery_distance_regular_networkx):
        fails = battery(analyzed)
        assert not fails, fails[:5]


def test_distance_regular_petersen():
    ga = _ga("petersen")
    res = ga.classification
    assert res.is_distance_regular
    assert res.intersection_array["b"] == [3, 2]
    assert res.intersection_array["c"] == [1, 1]


def test_distance_regular_c4():
    res = _ga("c4").classification
    assert res.is_distance_regular
    assert res.intersection_array["b"] == [2, 1]
    assert res.intersection_array["c"] == [1, 2]


def test_cycle_intersection_arrays():
    res = _ga("c7").classification
    assert res.is_distance_regular
    assert res.intersection_array["b"] == [2, 1, 1]
    assert res.intersection_array["c"] == [1, 1, 1]
    res = _ga("c8").classification
    assert res.intersection_array["b"] == [2, 1, 1, 1]
    assert res.intersection_array["c"] == [1, 1, 1, 2]


def test_not_distance_regular():
    for name in ("k23", "p3", "c8_12", "k13"):
        res = _ga(name).classification
        assert not res.is_distance_regular
        assert res.intersection_array is None
    # K2,3 (degrees 2 and 3) and P3 (degrees 1 and 2) are not regular, so
    # they get level 0 from their degrees
    for name in ("k23", "p3"):
        res = _ga(name).classification
        assert not res.is_regular and res.partial_dr_level == 0


def test_distance_polynomial_drg_fixtures():
    # the classification stops at the level rule; the modular test agrees
    for name in ("petersen", "c6", "k4", "c5"):
        ga = _ga(name)
        assert ga.classification.is_distance_polynomial
        assert is_distance_polynomial(ga.dd)


def test_distance_polynomial_p3_negative():
    # nonregular, so J = A_0 + A_1 + A_2 is no polynomial in A: the modular
    # test finds A_2 = J - I - A outside the algebra too
    ga = _ga("p3")
    assert not ga.classification.is_distance_polynomial
    assert not is_distance_polynomial(ga.dd)


def test_distance_polynomial_c8_12():
    # regular with D = 2: A_2 = J - I - A lies in the algebra
    ga = _ga("c8_12")
    assert ga.classification.is_distance_polynomial
    assert is_distance_polynomial(ga.dd)


MODULAR_CASES = corpus.build_modular_cases()


@pytest.mark.parametrize("name", sorted(MODULAR_CASES))
def test_distance_polynomial_modular_cases(name):
    # regular graphs below level D - 1, which only the modular test
    # decides, pinned at the verdicts of the eigenvector projection
    g, expected = MODULAR_CASES[name]
    ga = analyze_graph(g)
    cls = ga.classification
    assert cls.is_regular and cls.partial_dr_level < ga.D - 1
    assert cls.is_distance_polynomial == expected == is_distance_polynomial(ga.dd)
    assert corpus.reference_distance_polynomial(ga) == expected


def test_commutation_check_skips_only_graphs_it_rejects(monkeypatch):
    # a graph whose A fails to commute with some A_i is no distance-
    # polynomial one and never reaches the modular test, which draws its
    # start vectors from default_rng; those that commute with every A_i
    # (the distance-polynomial cases, C4 x C6, C6 x C6, circulant(20,
    # {1, 4}) and the prisms of order 16 and 24) still do
    draws, rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: draws.append(seed) or rng(seed))
    cases = dict(MODULAR_CASES)
    cases["rr300"] = corpus.from_networkx(nx.random_regular_graph(3, 300, seed=1)), False
    rejected = {"tutte", "frucht", "truncated-tetrahedron", "rr300"}
    for name, (g, expected) in cases.items():
        draws.clear()
        assert is_distance_polynomial(g.distances) == expected, name
        assert bool(draws) == (name not in rejected), name


@pytest.mark.parametrize("graphs", ["atlas", "analyzed", "wide"])
def test_distance_polynomial_matches_projection(request, graphs):
    # the verdict, and the modular test called on every graph, agree with
    # the eigenvector projection on the atlas and both corpora
    for name, ga, _reports in request.getfixturevalue(graphs):
        expected = corpus.reference_distance_polynomial(ga)
        assert ga.classification.is_distance_polynomial == expected, name
        assert is_distance_polynomial(ga.dd) == expected, name


def _level(name):
    return _ga(name).classification.partial_dr_level


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
        ga = _ga(name)
        cls = ga.classification
        assert cls.is_distance_regular
        assert cls.is_regular and cls.is_distance_polynomial
        assert cls.is_pdr.all()


def test_extremal_vertices():
    # extremality (ecc_u = d_u) is read from the local spectra: P31's column
    assert check_local_bound(_ga("k23")).details["extremal"].tolist() == [True] * 5
    assert not check_local_bound(_ga("c8_12")).details["extremal"].any()


def test_sweep_memory_stays_within_its_block_budget():
    # the roots go in blocks of SWEEP_BLOCK_BYTES; 16 MB blocks peaked at
    # 5.6 MB on this graph
    import random
    import tracemalloc

    ga = analyze_graph(corpus.connected_er(random.Random(1), 200, 0.06))
    tracemalloc.start()
    try:
        spexcess.classify.classify_graph(ga.dd, ga.alpha, ga.eq_tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def test_level_matches_polynomial_reference(analyses):
    analyzed = [(name, analyses(name), None) for name in ALL_NAMES]
    extra = [("k1", Graph.from_edges(1, [])),
             ("mcgee", corpus.from_networkx(nx.LCF_graph(24, [12, 7, -7], 8)))]
    for seed in range(6):
        h = nx.random_regular_graph(3 + seed % 2, 14 + 2 * seed, seed=seed)
        if nx.is_connected(h):
            extra.append((f"regular{seed}", corpus.from_networkx(h)))
    extra = [(name, analyze_graph(g), None) for name, g in extra]
    analyzed += extra
    assert len(analyzed) >= len(ALL_NAMES) + 5
    fails = corpus.battery_partial_dr_level_reference(analyzed)
    assert not fails, fails[:5]
    # regular non-DR graphs, where the level and pseudo-DR stop at different
    # radii of the one sweep
    fails = corpus.battery_pseudo_dr_reference(extra)
    assert not fails, fails[:5]
    by_name = {name: ga for name, ga, _reports in analyzed}
    # K1 is distance-regular with D = 0; McGee is regular, not DR, level 3
    assert by_name["k1"].classification.is_distance_regular
    mcgee = by_name["mcgee"]
    assert (mcgee.D, mcgee.classification.partial_dr_level) == (4, 3)
    assert not mcgee.classification.is_distance_regular


@pytest.mark.parametrize("module", [spexcess.classify, spexcess.weighted],
                         ids=["classify", "weighted"])
def test_metric_side_holds_nothing_from_poly(module):
    # the oracles and the weighted statistics stay independent of the
    # predistance polynomials they are checked against
    leaked = [name for name, obj in vars(module).items()
              if obj is spexcess.poly
              or getattr(obj, "__module__", None) == spexcess.poly.__name__]
    assert not leaked


def test_classify_holds_nothing_from_spectral():
    # the distance-polynomial verdict reads no eigenvector and no tolerance
    leaked = [name for name, obj in vars(spexcess.classify).items()
              if obj is spexcess.spectral
              or getattr(obj, "__module__", None) == spexcess.spectral.__name__]
    assert not leaked


@pytest.mark.parametrize("name", ["petersen", "c8_12", "c6", "k23", "p3", "k13"])
def test_one_sweep_per_classification(monkeypatch, name):
    calls = []
    kernel = spexcess.classify._pair_counts

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(spexcess.classify, "_pair_counts", counted)
    _ga(name).classification
    assert len(calls) == 1


@pytest.mark.parametrize("g", [fx.named("c8_12"), corpus.from_networkx(nx.tutte_graph())],
                         ids=["c8_12", "tutte"])
def test_violation_names_lowest_vertices_and_integer_counts(g):
    # on a regular graph the counts are integers: v and w are the lowest-id
    # vertices of the sphere with the smallest and the largest count
    ga = analyze_graph(g)
    adjacency = ga.graph.adjacency
    cls = ga.classification
    violations = corpus.violations_by_vertex(cls)
    assert not cls.is_pdr.any() and sorted(violations) == list(range(ga.n))
    for u, (i, v, w, lo, hi, which) in violations.items():
        sphere = np.flatnonzero(ga.dd.dist[u] == i)
        target = ga.dd.dist[u] == i + "cab".index(which) - 1
        counts = adjacency[sphere] @ target
        assert v == sphere[np.argmax(counts == counts.min())]
        assert w == sphere[np.argmax(counts == counts.max())]
        assert (lo, hi) == (counts.min(), counts.max())  # exact integers


def _brute_force_sweep(ga):
    """Per root u and vertex v, the alpha-weighted neighbours of v in
    Gamma_{i-1}(u), Gamma_i(u) and Gamma_{i+1}(u), summed one neighbour at a
    time in ascending order; returns (pseudo_dr, level, intersection_array)
    with pseudo_dr[u] = (is_pdr, numbers, violation)."""
    n, tol = ga.n, ga.eq_tol
    alpha, dist = ga.alpha.tolist(), ga.dd.dist.tolist()
    nbrs = [np.flatnonzero(row).tolist() for row in ga.graph.adjacency]
    pseudo_dr, by_radius = [], {}
    for u in range(n):
        ecc = max(dist[u])
        numbers, violation = np.zeros((3, ecc + 1)), None
        spheres = [[] for _ in range(ecc + 1)]
        for v in range(n):
            spheres[dist[u][v]].append(v)
        for i, sphere in enumerate(spheres):
            triples = []
            for v in sphere:
                sums = [0.0, 0.0, 0.0]
                for w in nbrs[v]:
                    sums[dist[u][w] - i + 1] += alpha[w]
                triples.append([x / alpha[v] for x in sums])
            for k in range(3):
                vals = [t[k] for t in triples]
                by_radius.setdefault((i, k), []).extend(vals)
                lo, hi = min(vals), max(vals)
                if violation is None and hi - lo > tol * max(1.0, abs(lo), abs(hi)):
                    violation = (i, sphere[vals.index(lo)], sphere[vals.index(hi)],
                                 lo, hi, "cab"[k])
                numbers[k, i] = sum(vals) / len(vals)
        pseudo_dr.append((violation is None, numbers, violation))
    degrees = [len(x) for x in nbrs]
    if min(degrees) != max(degrees):
        return pseudo_dr, 0, None
    for (i, k), vals in sorted(by_radius.items()):
        if min(vals) != max(vals):
            return pseudo_dr, i - (k == 0), None
    c, a, b = pseudo_dr[0][1].tolist()
    return pseudo_dr, ga.D, {"b": [int(x) for x in b[:-1]],
                             "c": [int(x) for x in c[1:]], "a": [int(x) for x in a]}


@pytest.fixture(scope="module")
def long_diameter():
    """Diameter 128, one past what a signed 8-bit distance holds."""
    return [(name, analyze_graph(g), None)
            for name, g in (("c256", fx.cycle(256)), ("p129", fx.path(129)))]


@pytest.mark.parametrize("graphs", ["atlas", "analyzed", "wide", "long_diameter"])
def test_sweep_matches_brute_force_counts(request, graphs):
    analyzed = request.getfixturevalue(graphs)
    for name, ga, _reports in analyzed:
        cls = ga.classification
        pseudo_dr, level, array = _brute_force_sweep(ga)
        assert (cls.partial_dr_level, cls.intersection_array) == (level, array), name
        violations = corpus.violations_by_vertex(cls)
        for u, (is_pdr, numbers, violation) in enumerate(pseudo_dr):
            assert (cls.is_pdr[u], violations.get(u)) == (is_pdr, violation), (name, u)
            if is_pdr:
                got = cls.pdr_numbers[u, :, :ga.dd.ecc[u] + 1]
                assert got.shape == numbers.shape
                assert np.all(np.abs(got - numbers)
                              <= 1e-12 * np.maximum(1.0, np.abs(numbers))), (name, u)
