import math

import numpy as np
import pytest

from spexcess import fixtures as fx
from spexcess.errors import DegenerateMeasureError, HypothesisError
from spexcess.graphs import distance_data
from spexcess.poly import (
    apply_to_vector,
    evaluate_at_matrix,
    predistance_polynomials,
    top_q_lambda0,
)

from corpus import (
    all_families,
    battery_global_excess_closed_form,
    battery_local_excess_closed_form,
    cut_local_families,
    full_local_families,
    local_family,
)
from conftest import ALL_NAMES

SQRT6 = math.sqrt(6.0)


def _at(coeffs, x):
    """A polynomial given by ascending coefficients, evaluated at x."""
    return np.polynomial.polynomial.polyval(x, coeffs)


def _power_eval(coeffs, a):
    """sum_k c_k A^k by explicit matrix powers (reference for evaluate_at_matrix)."""
    out = np.zeros_like(a)
    power = np.eye(len(a))
    for c in coeffs:
        out = out + c * power
        power = power @ a
    return out


# --- inner products ----------------------------------------------------------

def _pieces(g):
    from spexcess.spectral import eigendecompose, local_spectra, perron_weights
    dd = distance_data(g)
    spec = eigendecompose(g)
    alpha = perron_weights(spec, g.adjacency.sum(axis=1))
    locs = local_spectra(spec)
    return g, dd, spec, alpha, locs


def _k23_pieces():
    return _pieces(fx.k23())


def test_inner_product_constants():
    # <1, 1> is the total mass of the measure
    g, dd, spec, pw, locs = _k23_pieces()
    assert (spec.mults / spec.n).sum() == pytest.approx(1.0, abs=1e-12)
    for weights in locs.mults:
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_inner_product_x_x_k23():
    _, _, spec, pw, locs = _k23_pieces()
    # (1/n) tr(A^2) = 2|E|/n = 12/5
    assert float(spec.mults / spec.n @ spec.lambdas ** 2) == pytest.approx(12 / 5, rel=1e-12)


def test_inner_product_matches_trace_definition():
    g, dd, spec, pw, locs = _k23_pieces()
    a = np.asarray(g.adjacency)
    rng = np.random.default_rng(1)
    for _ in range(5):
        p, q = rng.standard_normal(3), rng.standard_normal(3)
        pq_nodes = _at(p, spec.lambdas) * _at(q, spec.lambdas)
        pq_a = _power_eval(p, a) @ _power_eval(q, a)
        via_trace = np.trace(pq_a) / g.n
        assert float(spec.mults / spec.n @ pq_nodes) == pytest.approx(
            via_trace, rel=1e-9, abs=1e-9)
        for u, weights in enumerate(locs.mults):
            via_uu = pq_a[u, u]
            assert float(weights @ pq_nodes) == pytest.approx(via_uu, rel=1e-9, abs=1e-9)


def test_degree_error():
    _, _, spec, pw, locs = _k23_pieces()
    # d + 1 = 3 nodes admit degrees 0..2 only
    with pytest.raises(ValueError, match=r"^degrees must lie in 0\.\.2$"):
        predistance_polynomials(spec.lambdas, spec.mults / spec.n, 3)
    # P_3 center has d_u = 1: degree 2 is out of range locally
    from spexcess.pipeline import analyze_graph
    from spexcess.theorems import check_local_bound
    ga = analyze_graph(fx.path(3))
    assert ga.local_spectra.du[1] == 1
    with pytest.raises(HypothesisError, match=r"^j=2 outside 0\.\.d_u=1 for vertex 1$"):
        check_local_bound(ga, 1, j=2)


def test_degenerate_measure_raises():
    nodes = np.array([2.0, 1.0, 1.0 + 1e-15])  # duplicated node
    with pytest.raises(DegenerateMeasureError):
        predistance_polynomials(nodes, [0.25, 0.5, 0.25], 2)
    # in a batch, a singular row that is neither first nor of top degree
    # still raises
    nodes = np.array([3.0, 2.0, 1.0, 1.0 + 1e-15, -1.0])
    rows = [[0.5, 0.5, 0.0, 0.0, 0.0],
            [0.25, 0.25, 0.25, 0.0, 0.25],
            [0.25, 0.0, 0.5, 0.25, 0.0]]
    for degrees in ([1, 3, 2], [3, 1, 2]):
        with pytest.raises(DegenerateMeasureError):
            top_q_lambda0(nodes, rows, degrees, [1.0, 1.0, 1.0])
    top_q_lambda0(nodes, rows[:2], [1, 3], [1.0, 1.0])  # the others alone pass


@pytest.mark.parametrize("family", ["fixtures", "wide"])
def test_batched_rows_match_single_calls(family):
    # local rows in an order whose degrees are not sorted, one of them cut
    # to degree 0 and the global row in the middle, in one batched
    # top_q_lambda0 pass against one predistance_polynomials call per row
    from corpus import build_wide_corpus
    graphs = [g for _, g in build_wide_corpus()] if family == "wide" else \
        [fx.BUNDLED[name]() for name in sorted(fx.BUNDLED)] + [fx.path(5)]
    for g in graphs:
        _, _, spec, alpha, locs = _pieces(g)
        order = np.argsort(locs.du, kind="stable").tolist()  # ascending
        rows = list(locs.mults[order])
        degrees = locs.du[order].tolist()
        scales = (alpha[order] ** 2).tolist()
        degrees[len(rows) // 2] = 0
        for seq, first in ((rows, spec.mults / spec.n), (degrees, spec.d), (scales, 1.0)):
            seq.insert(len(seq) // 2, first)
        got = top_q_lambda0(spec.lambdas, rows, degrees, scales)
        for r, (w, m, s) in enumerate(zip(rows, degrees, scales)):
            ref = predistance_polynomials(spec.lambdas, w, m, scale=s).q_lambda0[m]
            assert abs(got[r] - ref) <= 1e-12 * ref, r


def test_excess_closed_forms_on_fixtures(analyses):
    from conftest import ALL_NAMES
    graphs = [(name, analyses(name), None) for name in ALL_NAMES]
    assert not battery_local_excess_closed_form(graphs)
    assert not battery_global_excess_closed_form(graphs)
    # Petersen: p_2(lambda_0) = k_2 = 6 at every vertex and globally
    ga = analyses("petersen")
    assert all(abs(p - 6.0) <= 1e-12 for p in ga.local_spectra.excess)


# --- predistance families ----------------------------------------------------

def _analysis(name):
    from spexcess.pipeline import analyze_graph
    return analyze_graph(fx.named(name))


def test_p0_is_one_global():
    for name in ("k23", "petersen", "p3"):
        seq = _analysis(name).global_seq
        assert np.abs(seq.values[0] - 1.0).max() <= 1e-12


def test_k23_p1_and_q1():
    seq = _analysis("k23").global_seq
    assert seq.p_lambda0[1] == pytest.approx(2.5, rel=1e-10)
    assert seq.q_lambda0[1] == pytest.approx(3.5, rel=1e-10)
    # p_1 = (lambda_0 / mean degree) x = (5 sqrt6 / 12) x
    lambdas = _analysis("k23").spectrum.lambdas
    assert np.abs(seq.values[1] - 5 * SQRT6 / 12 * lambdas).max() <= 1e-10


def test_petersen_p2_matches_sphere():
    ga = _analysis("petersen")
    assert ga.global_seq.p_lambda0[2] == pytest.approx(6.0, rel=1e-9)
    a2 = evaluate_at_matrix(ga.global_seq.values[2], ga.spectrum)
    assert np.abs(a2 - (ga.dd.dist == 2)).max() <= 1e-7


def test_drg_fixtures_p_i_equals_a_i():
    for name in ("petersen", "c5", "k4", "c4"):
        ga = _analysis(name)
        for i in range(ga.D + 1):
            diff = evaluate_at_matrix(ga.global_seq.values[i], ga.spectrum) \
                - (ga.dd.dist == i)
            assert np.abs(diff).max() <= 1e-7, (name, i)


def test_orthogonality_and_normalization():
    for name in ("k23", "petersen", "p3", "c8_12", "k13"):
        g = fx.named(name) if name != "k13" else fx.star(3)
        from spexcess.pipeline import analyze_graph
        ga = analyze_graph(g)
        for _u, w, s, seq in all_families(ga):
            vals, pl0 = seq.values, seq.p_lambda0
            m = len(vals) - 1
            assert np.all(pl0 > 0)
            for i in range(m + 1):
                nn = float(np.sum(w * vals[i] * vals[i]))
                assert abs(nn - s * pl0[i]) <= 1e-8 * s * pl0[i]
                for j in range(i):
                    ip = float(np.sum(w * vals[i] * vals[j]))
                    assert abs(ip) <= 1e-8 * math.sqrt(pl0[i] * pl0[j])


def test_degrees_are_exact():
    # the interpolating polynomial of p_i's node values has degree exactly i
    ga = _analysis("c8_12")
    nodes = ga.spectrum.lambdas
    for i, vals in enumerate(ga.global_seq.values):
        coeffs = np.polynomial.polynomial.polyfit(nodes, vals, ga.d)
        assert abs(coeffs[i]) > 1e-3
        assert np.abs(coeffs[i + 1:]).max(initial=0.0) <= 1e-8


def test_recurrence_consistency():
    for name in ("k23", "petersen", "c6", "c8_12"):
        ga = _analysis(name)
        for _u, w, _s, seq in all_families(ga):
            vals = seq.values
            m = len(vals) - 1
            # x p_m has no p_{m+1} term only when the family is complete
            complete = m + 1 == np.count_nonzero(w > 1e-9)
            for i in range(m + 1 if complete else m):
                xv = ga.spectrum.lambdas * vals[i]
                combo = seq.rec_a[i] * vals[i]
                if i >= 1:
                    combo = combo + seq.rec_b[i - 1] * vals[i - 1]
                if i + 1 <= m:
                    combo = combo + seq.rec_c[i] * vals[i + 1]
                resid = math.sqrt(float(np.sum(w * (xv - combo) ** 2)))
                assert resid <= 1e-8 * max(1.0, math.sqrt(float(np.sum(w * xv * xv))))


def test_petersen_recurrence_is_intersection_array():
    seq = _analysis("petersen").global_seq
    assert seq.rec_a == pytest.approx([0.0, 0.0, 2.0], abs=1e-9)
    assert seq.rec_b == pytest.approx([3.0, 2.0], abs=1e-9)
    assert seq.rec_c == pytest.approx([1.0, 1.0], abs=1e-9)


def test_sum_p_lambda0_is_n():
    for name in ("k23", "petersen", "p3", "c7", "c8_12"):
        ga = _analysis(name)
        assert ga.global_seq.q_lambda0[-1] == pytest.approx(ga.n, rel=1e-8)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_q_values_rows_are_the_partial_sums(analyses, name):
    # one cumsum table; each row equals the slice sum it replaced, bit for bit,
    # as a family never has more rows than columns
    ga = analyses(name)
    for seq in [ga.global_seq] + full_local_families(ga):
        assert not seq.q_values.flags.writeable
        for j in range(len(seq.values)):
            assert seq.q_values[j].tolist() == seq.values[: j + 1].sum(axis=0).tolist()
        assert seq.q_lambda0.tolist() == seq.q_values[:, 0].tolist()


# --- Hoffman polynomials -------------------------------------------------------
# H = q_d, the top sum polynomial of the global family

def _hoffman(ga):
    return ga.global_seq.q_values[ga.d]


def test_hoffman_k2():
    ga = _analysis("k2")
    h = _hoffman(ga)
    # H = 1 + x on the eigenvalues 1, -1
    assert h.tolist() == pytest.approx([2.0, 0.0], abs=1e-10)
    assert np.abs(evaluate_at_matrix(h, ga.spectrum) - 1.0).max() <= 1e-10  # H(A) = J


def test_hoffman_regular_gives_all_ones():
    for name in ("petersen", "c6", "k5", "c8_12"):
        ga = _analysis(name)
        h = _hoffman(ga)
        assert np.abs(evaluate_at_matrix(h, ga.spectrum) - 1.0).max() <= 1e-7, name


def test_hoffman_k23_gives_jstar():
    ga = _analysis("k23")
    h = _hoffman(ga)
    ha = evaluate_at_matrix(h, ga.spectrum)
    assert np.abs(ha - ga.jstar).max() <= 1e-9
    # and in nu-normalization (nu = alpha / min alpha): (||nu||^2 / n) H(A)
    # has entries nu_u nu_v
    nu = ga.alpha / ga.alpha.min()
    scaled = float(nu @ nu) / ga.n * ha
    assert np.abs(scaled - np.outer(nu, nu)).max() <= 1e-9


def test_hoffman_nonregular_is_not_j():
    ga = _analysis("p3")
    h = _hoffman(ga)
    assert np.abs(evaluate_at_matrix(h, ga.spectrum) - 1.0).max() > 0.1


def test_hoffman_values_and_product_form():
    # H and (n / pi_0) prod_{i >= 1} (x - lambda_i) agree at all d + 1
    # eigenvalues; both have degree <= d, so they are the same polynomial
    for name in ("k23", "petersen", "p3", "c8_12"):
        ga = _analysis(name)
        lambdas = ga.spectrum.lambdas
        h = _hoffman(ga)
        target = np.zeros(ga.d + 1)
        target[0] = ga.n
        assert np.abs(h - target).max() <= 1e-8 * ga.n
        pi0 = float(np.prod(ga.spectrum.lambda0 - lambdas[1:]))
        product = ga.n / pi0 * np.prod(lambdas[:, None] - lambdas[None, 1:], axis=1)
        assert np.abs(h - product).max() <= 1e-8 * ga.n
        # the same H(A) as the power-basis evaluation of the product form
        coeffs = ga.n / pi0 * np.polynomial.polynomial.polyfromroots(lambdas[1:])
        ref = _power_eval(coeffs, np.asarray(ga.graph.adjacency))
        assert np.abs(evaluate_at_matrix(h, ga.spectrum) - ref).max() <= 1e-8 * ga.n


# --- local preHoffman ----------------------------------------------------------
# H^u = q^u_{d_u}, the top sum polynomial of the local family at u

def test_local_prehoffman_p3_center():
    ga = _analysis("p3")
    h = _hoffman(ga)
    seq = full_local_families(ga)[1]
    assert len(seq.values) == 2 and len(ga.global_seq.values) == 3
    hu = seq.q_values[1]
    e1 = np.zeros(3)
    e1[1] = 1.0
    diff = apply_to_vector(hu, ga.spectrum, e1) - apply_to_vector(h, ga.spectrum, e1)
    assert np.abs(diff).max() <= 1e-9


def test_local_prehoffman_lambda0_is_n():
    for name in ("k23", "petersen", "p3", "c8_12", "p5"):
        g = fx.named(name) if not name.startswith("p") or name == "petersen" \
            else fx.path(int(name[1:]))
        from spexcess.pipeline import analyze_graph
        ga = analyze_graph(g)
        for seq in full_local_families(ga):
            assert seq.q_lambda0[-1] == pytest.approx(ga.n, rel=1e-9)


def test_local_prehoffman_vertex_transitive_equals_global():
    ga = _analysis("petersen")
    h = _hoffman(ga)
    for du, seq in zip(ga.local_spectra.du, full_local_families(ga)):
        assert np.abs(seq.q_values[du] - h).max() <= 1e-8


def test_local_prehoffman_column_identity():
    for name in ("k23", "c8_12"):
        ga = _analysis(name)
        h = _hoffman(ga)
        a = np.asarray(ga.graph.adjacency)
        h_ref = ga.n / np.prod(ga.spectrum.lambda0 - ga.spectrum.lambdas[1:]) \
            * np.polynomial.polynomial.polyfromroots(ga.spectrum.lambdas[1:])
        for u, seq in enumerate(full_local_families(ga)):
            e = np.zeros(ga.n)
            e[u] = 1.0
            hu_e = apply_to_vector(seq.q_values[ga.local_spectra.du[u]], ga.spectrum, e)
            assert np.abs(hu_e - apply_to_vector(h, ga.spectrum, e)).max() <= 1e-8, (name, u)
            assert np.abs(hu_e - _power_eval(h_ref, a) @ e).max() <= 1e-8, (name, u)


# --- mean of local products ------------------------------------------------------

def test_mean_of_local_products_identity():
    rng = np.random.default_rng(12)
    for name in ("k23", "petersen", "p3", "c8_12"):
        ga = _analysis(name)
        deg = min(ga.local_spectra.du)
        for _ in range(5):
            p = _at(rng.standard_normal(deg + 1), ga.spectrum.lambdas)
            q = _at(rng.standard_normal(deg + 1), ga.spectrum.lambdas)
            glob = float(ga.spectrum.mults / ga.n @ (p * q))
            mean = np.mean([float(row @ (p * q)) for row in ga.local_spectra.mults])
            assert abs(glob - mean) <= 1e-8 * max(1.0, abs(glob))


# --- matrix evaluation -----------------------------------------------------------

def test_evaluate_identity_and_adjacency():
    from spexcess.spectral import eigendecompose
    g = fx.complete(2)
    spec = eigendecompose(g)
    assert np.abs(evaluate_at_matrix(np.ones(2), spec) - np.eye(2)).max() <= 1e-14
    assert np.abs(evaluate_at_matrix(spec.lambdas, spec) - g.adjacency).max() <= 1e-14


def test_evaluate_matches_power():
    from spexcess.spectral import eigendecompose
    g = fx.petersen()
    spec = eigendecompose(g)
    a = np.asarray(g.adjacency)
    p = _at([2.0, -1.0, 0.5, 1.0], spec.lambdas)
    ref = 2 * np.eye(10) - a + 0.5 * a @ a + a @ a @ a
    assert np.abs(evaluate_at_matrix(p, spec) - ref).max() <= 1e-10
    vec = np.arange(10.0)
    assert np.abs(apply_to_vector(p, spec, vec) - ref @ vec).max() <= 1e-9


@pytest.mark.parametrize("graphs", ["fixtures", "atlas", "analyzed", "wide"])
def test_p31_pass_matches_rows_and_families(request, p31_passes, graphs):
    # P31's all-vertex pass takes exactly the rows with ecc_u < d_u at degree
    # ecc_u.  Each row is bit for bit the same row passed alone as a stack
    # (a row never depends on the rows beside it), within 1e-12 the full
    # family's q^u_{ecc_u}(lambda_0) and below n; a 1-D row runs plain and
    # is bit for bit the family cut at ecc_u
    from spexcess.theorems import check_local_bound
    if graphs == "fixtures":
        analyses = request.getfixturevalue("analyses")
        gas = [analyses(name) for name in ALL_NAMES]
    else:
        gas = [ga for _name, ga, _reports in request.getfixturevalue(graphs)]
    short_rows = 0
    for ga in gas:
        lambdas, mults, alpha = ga.spectrum.lambdas, ga.local_spectra.mults, ga.alpha
        short = np.flatnonzero(ga.dd.ecc < ga.local_spectra.du)
        p31_passes.clear()
        check_local_bound(ga)
        if not short.size:
            assert p31_passes == []
            continue
        (((_nodes, weights, degrees, scale), got),) = p31_passes
        assert np.array_equal(weights, mults[short])
        assert np.array_equal(degrees, ga.dd.ecc[short])
        assert np.array_equal(scale, alpha[short] ** 2)
        cut = cut_local_families(ga)
        for k, u in enumerate(short.tolist()):
            ecc = int(ga.dd.ecc[u])
            (one,) = top_q_lambda0(lambdas, mults[[u]], [ecc], alpha[[u]] ** 2)
            assert one == got[k]
            (plain,) = top_q_lambda0(lambdas, mults[u], [ecc], [alpha[u] ** 2])
            assert plain == cut[u].q_lambda0[ecc]
            assert got[k] == pytest.approx(local_family(ga, u).q_lambda0[ecc], rel=1e-12)
            assert got[k] < ga.n
        short_rows += short.size
    assert short_rows
