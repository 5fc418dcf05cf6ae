import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spexcess import fixtures as fx
from spexcess.errors import DegenerateMeasureError, DegreeError
from spexcess.graphs import distance_data
from spexcess.poly import (
    InnerProductContext,
    Poly,
    apply_to_vector,
    evaluate_at_matrix,
    global_context,
    hoffman_polynomial,
    inner_product,
    local_context,
    local_prehoffman,
    predistance_polynomials,
)

SQRT6 = math.sqrt(6.0)


# --- Poly basics -------------------------------------------------------------

def test_poly_trim_and_degree():
    p = Poly([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1 and p.coeffs.tolist() == [1.0, 2.0]
    assert Poly([0.0]).degree == 0


def test_poly_arithmetic():
    p = Poly([1.0, 1.0])
    q = Poly([0.0, -1.0, 2.0])
    assert (p + q).coeffs.tolist() == [1.0, 0.0, 2.0]
    assert (p - p).coeffs.tolist() == [0.0]
    assert (2.0 * p).coeffs.tolist() == [2.0, 2.0]
    assert p.shift_up().coeffs.tolist() == [0.0, 1.0, 1.0]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6),
       st.lists(st.floats(-5, 5), min_size=1, max_size=6),
       st.floats(-3, 3))
def test_poly_add_eval_consistency(a, b, x):
    p, q = Poly(a), Poly(b)
    assert (p + q)(x) == pytest.approx(p(x) + q(x), abs=1e-9)
    assert p.shift_up()(x) == pytest.approx(x * p(x), abs=1e-9)


# --- inner products ----------------------------------------------------------

def _k23_pieces():
    from spexcess.spectral import eigendecompose, local_spectra, perron_weights
    g = fx.k23()
    dd = distance_data(g)
    spec = eigendecompose(g)
    pw = perron_weights(spec)
    locs = local_spectra(spec, dd)
    return g, dd, spec, pw, locs


def test_inner_product_constants():
    g, dd, spec, pw, locs = _k23_pieces()
    ctx = global_context(spec)
    one = Poly.one()
    assert inner_product(one, one, ctx) == pytest.approx(1.0, abs=1e-12)
    for ls in locs:
        lctx = local_context(spec, ls)
        assert inner_product(one, one, lctx) == pytest.approx(1.0, abs=1e-9)


def test_inner_product_x_x_k23():
    _, _, spec, _, _ = _k23_pieces()
    ctx = global_context(spec)
    # (1/n) tr(A^2) = 2|E|/n = 12/5
    assert inner_product(Poly.x(), Poly.x(), ctx) == pytest.approx(12 / 5, rel=1e-12)


def test_inner_product_matches_trace_definition():
    g, dd, spec, pw, locs = _k23_pieces()
    ctx = global_context(spec)
    a = np.asarray(g.adjacency)
    rng = np.random.default_rng(1)
    for _ in range(5):
        p = Poly(rng.standard_normal(3))
        q = Poly(rng.standard_normal(3))
        via_nodes = inner_product(p, q, ctx)
        via_trace = np.trace(evaluate_at_matrix(p, g) @ evaluate_at_matrix(q, g)) / g.n
        assert via_nodes == pytest.approx(via_trace, rel=1e-9, abs=1e-9)
        for ls in locs:
            lctx = local_context(spec, ls)
            via_uu = (evaluate_at_matrix(p, g) @ evaluate_at_matrix(q, g))[ls.vertex, ls.vertex]
            assert inner_product(p, q, lctx) == pytest.approx(via_uu, rel=1e-9, abs=1e-9)


def test_degree_error():
    _, _, spec, _, locs = _k23_pieces()
    ctx = global_context(spec)
    cubic = Poly([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(DegreeError):
        inner_product(cubic, Poly.one(), ctx)
    # P_3 center has d_u = 1: quadratics are out of range locally
    from spexcess.spectral import eigendecompose, local_spectrum
    g = fx.path(3)
    dd = distance_data(g)
    spec3 = eigendecompose(g)
    ls = local_spectrum(1, spec3, dd)
    lctx = local_context(spec3, ls)
    with pytest.raises(DegreeError):
        inner_product(Poly([0.0, 0.0, 1.0]), Poly.one(), lctx)


def test_degenerate_measure_raises():
    nodes = np.array([2.0, 1.0, 1.0 + 1e-15])  # duplicated node
    ctx = InnerProductContext(kind="global", nodes=nodes,
                              weights=np.array([0.25, 0.5, 0.25]), max_degree=2)
    with pytest.raises(DegenerateMeasureError):
        predistance_polynomials(ctx)


def test_local_context_requires_alpha():
    _, _, spec, _, locs = _k23_pieces()
    lctx = local_context(spec, locs[0])
    with pytest.raises(ValueError):
        predistance_polynomials(lctx)
    with pytest.raises(ValueError):
        predistance_polynomials(global_context(spec), alpha_u=1.0)


# --- predistance families ----------------------------------------------------

def _analysis(name):
    from spexcess.pipeline import analyze_graph
    return analyze_graph(fx.named(name))


def test_p0_is_one_global():
    for name in ("k23", "petersen", "p3"):
        seq = _analysis(name).global_seq
        assert seq.polys[0].coeffs.tolist() == pytest.approx([1.0], abs=1e-12)


def test_k23_p1_and_q1():
    seq = _analysis("k23").global_seq
    assert seq.p_lambda0[1] == pytest.approx(2.5, rel=1e-10)
    assert seq.q_lambda0[1] == pytest.approx(3.5, rel=1e-10)
    # p_1 = (lambda_0 / mean degree) x = (5 sqrt6 / 12) x
    assert seq.polys[1].coeffs.tolist() == pytest.approx(
        [0.0, 5 * SQRT6 / 12], abs=1e-10)


def test_petersen_p2_matches_sphere():
    ga = _analysis("petersen")
    assert ga.global_seq.p_lambda0[2] == pytest.approx(6.0, rel=1e-9)
    a2 = evaluate_at_matrix(ga.global_seq.polys[2], ga.graph)
    assert np.abs(a2 - ga.dd.distance_matrices[2]).max() <= 1e-7


def test_drg_fixtures_p_i_equals_a_i():
    for name in ("petersen", "c5", "k4", "c4"):
        ga = _analysis(name)
        for i in range(ga.D + 1):
            diff = evaluate_at_matrix(ga.global_seq.polys[i], ga.graph) \
                - ga.dd.distance_matrices[i]
            assert np.abs(diff).max() <= 1e-7, (name, i)


def test_orthogonality_and_normalization():
    for name in ("k23", "petersen", "p3", "c8_12", "k13"):
        g = fx.named(name) if name != "k13" else fx.star(3)
        from spexcess.pipeline import analyze_graph
        ga = analyze_graph(g)
        for seq in [ga.global_seq] + list(ga.local_seqs):
            ctx = seq.context
            w, vals, pl0 = ctx.weights, seq.values, seq.p_lambda0
            m = seq.top_degree
            assert np.all(pl0 > 0)
            for i in range(m + 1):
                nn = float(np.sum(w * vals[i] * vals[i]))
                assert abs(nn - seq.norm_scale * pl0[i]) <= 1e-8 * seq.norm_scale * pl0[i]
                for j in range(i):
                    ip = float(np.sum(w * vals[i] * vals[j]))
                    assert abs(ip) <= 1e-8 * math.sqrt(pl0[i] * pl0[j])


def test_degrees_are_exact():
    ga = _analysis("c8_12")
    for i, p in enumerate(ga.global_seq.polys):
        assert p.degree == i


def test_recurrence_consistency():
    for name in ("k23", "petersen", "c6", "c8_12"):
        ga = _analysis(name)
        for seq in [ga.global_seq] + list(ga.local_seqs):
            ctx = seq.context
            w, vals = ctx.weights, seq.values
            m = seq.top_degree
            for i in range(m + 1):
                xv = ctx.nodes * vals[i]
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


# --- Hoffman polynomials -------------------------------------------------------

def test_hoffman_k2():
    ga = _analysis("k2")
    h = hoffman_polynomial(ga.global_seq, ga.spectrum)
    assert h.coeffs.tolist() == pytest.approx([1.0, 1.0], abs=1e-10)
    assert np.abs(evaluate_at_matrix(h, ga.graph) - 1.0).max() <= 1e-10  # H(A) = J


def test_hoffman_regular_gives_all_ones():
    for name in ("petersen", "c6", "k5", "c8_12"):
        ga = _analysis(name)
        h = hoffman_polynomial(ga.global_seq, ga.spectrum)
        assert np.abs(evaluate_at_matrix(h, ga.graph) - 1.0).max() <= 1e-7, name


def test_hoffman_k23_gives_jstar():
    ga = _analysis("k23")
    h = hoffman_polynomial(ga.global_seq, ga.spectrum)
    ha = evaluate_at_matrix(h, ga.graph)
    assert np.abs(ha - ga.wm.jstar).max() <= 1e-9
    # and in nu-normalization: (||nu||^2 / n) H(A) has entries nu_u nu_v
    nu = ga.perron.nu
    scaled = float(nu @ nu) / ga.n * ha
    assert np.abs(scaled - np.outer(nu, nu)).max() <= 1e-9


def test_hoffman_nonregular_is_not_j():
    ga = _analysis("p3")
    h = hoffman_polynomial(ga.global_seq, ga.spectrum)
    assert np.abs(evaluate_at_matrix(h, ga.graph) - 1.0).max() > 0.1


def test_hoffman_values_and_product_form():
    for name in ("k23", "petersen", "p3", "c8_12"):
        ga = _analysis(name)
        h = hoffman_polynomial(ga.global_seq, ga.spectrum)
        vals = h(ga.spectrum.lambdas)
        target = np.zeros(ga.d + 1)
        target[0] = ga.n
        assert np.abs(vals - target).max() <= 1e-8 * ga.n
        pi0 = float(np.prod(ga.lambda0 - ga.spectrum.lambdas[1:]))
        ref = Poly.from_roots(ga.spectrum.lambdas[1:], scale=ga.n / pi0)
        assert np.abs((h - ref).coeffs).max() <= 1e-8 * max(1.0, np.abs(ref.coeffs).max())


def test_hoffman_rejects_corrupted_values():
    # H + 1 misses H(lambda_i) = n * delta_0i at every eigenvalue
    ga = _analysis("k23")
    seq = ga.global_seq
    bad = dataclasses.replace(seq, sums=seq.sums[:-1] + (seq.sums[-1] + Poly.one(),))
    with pytest.raises(DegenerateMeasureError, match="characterization"):
        hoffman_polynomial(bad, ga.spectrum)


def test_hoffman_rejects_corrupted_product_form():
    # adding prod_i (x - lambda_i) keeps every H(lambda_i) but not the
    # product form (n / pi_0) prod_{i >= 1} (x - lambda_i)
    ga = _analysis("k23")
    seq = ga.global_seq
    vanishing = Poly.from_roots(ga.spectrum.lambdas)
    bad = dataclasses.replace(seq, sums=seq.sums[:-1] + (seq.sums[-1] + vanishing,))
    assert np.abs(bad.sums[-1](ga.spectrum.lambdas)
                  - seq.sums[-1](ga.spectrum.lambdas)).max() <= 1e-9
    with pytest.raises(DegenerateMeasureError, match="product form"):
        hoffman_polynomial(bad, ga.spectrum)


def test_hoffman_requires_global():
    ga = _analysis("k23")
    with pytest.raises(ValueError):
        hoffman_polynomial(ga.local_seqs[0], ga.spectrum)
    with pytest.raises(ValueError):
        local_prehoffman(ga.global_seq)


# --- local preHoffman ----------------------------------------------------------

def test_local_prehoffman_p3_center():
    ga = _analysis("p3")
    h = hoffman_polynomial(ga.global_seq, ga.spectrum)
    hu = local_prehoffman(ga.local_seqs[1])
    assert hu.degree == 1 and h.degree == 2
    a = np.asarray(ga.graph.adjacency)
    e1 = np.zeros(3)
    e1[1] = 1.0
    assert np.abs(apply_to_vector(hu, a, e1) - apply_to_vector(h, a, e1)).max() <= 1e-9


def test_local_prehoffman_lambda0_is_n():
    for name in ("k23", "petersen", "p3", "c8_12", "p5"):
        g = fx.named(name) if not name.startswith("p") or name == "petersen" \
            else fx.path(int(name[1:]))
        from spexcess.pipeline import analyze_graph
        ga = analyze_graph(g)
        for seq in ga.local_seqs:
            assert seq.q_lambda0[-1] == pytest.approx(ga.n, rel=1e-9)


def test_local_prehoffman_vertex_transitive_equals_global():
    ga = _analysis("petersen")
    h = hoffman_polynomial(ga.global_seq, ga.spectrum)
    for seq in ga.local_seqs:
        hu = local_prehoffman(seq)
        assert np.abs((hu - h).coeffs).max() <= 1e-8


def test_local_prehoffman_column_identity():
    for name in ("k23", "c8_12"):
        ga = _analysis(name)
        h = hoffman_polynomial(ga.global_seq, ga.spectrum)
        a = np.asarray(ga.graph.adjacency)
        for u in range(ga.n):
            hu = local_prehoffman(ga.local_seqs[u])
            e = np.zeros(ga.n)
            e[u] = 1.0
            diff = apply_to_vector(hu, a, e) - apply_to_vector(h, a, e)
            assert np.abs(diff).max() <= 1e-8, (name, u)


# --- mean of local products ------------------------------------------------------

def test_mean_of_local_products_identity():
    rng = np.random.default_rng(12)
    for name in ("k23", "petersen", "p3", "c8_12"):
        ga = _analysis(name)
        deg = min(ls.du for ls in ga.local_spectra)
        for _ in range(5):
            p = Poly(rng.standard_normal(deg + 1))
            q = Poly(rng.standard_normal(deg + 1))
            glob = ga.global_seq.context.inner(p, q)
            mean = np.mean([s.context.inner(p, q) for s in ga.local_seqs])
            assert abs(glob - mean) <= 1e-8 * max(1.0, abs(glob))


# --- matrix evaluation -----------------------------------------------------------

def test_evaluate_identity_and_adjacency():
    g = fx.complete(2)
    assert np.array_equal(evaluate_at_matrix(Poly.one(), g), np.eye(2))
    assert np.array_equal(evaluate_at_matrix(Poly.x(), g), np.asarray(g.adjacency))


def test_evaluate_matches_power():
    g = fx.petersen()
    a = np.asarray(g.adjacency)
    p = Poly([2.0, -1.0, 0.5, 1.0])
    ref = 2 * np.eye(10) - a + 0.5 * a @ a + a @ a @ a
    assert np.abs(evaluate_at_matrix(p, g) - ref).max() <= 1e-10
    vec = np.arange(10.0)
    assert np.abs(apply_to_vector(p, a, vec) - ref @ vec).max() <= 1e-9
