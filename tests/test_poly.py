import dataclasses
import math

import numpy as np
import pytest

from spexcess import fixtures as fx
from spexcess.errors import DegenerateMeasureError, DegreeError
from spexcess.graphs import distance_data
from spexcess.poly import (
    apply_to_vector,
    evaluate_at_matrix,
    hoffman_polynomial,
    predistance_polynomials,
)

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

def _k23_pieces():
    from spexcess.spectral import eigendecompose, local_spectra, perron_weights
    g = fx.k23()
    dd = distance_data(g)
    spec = eigendecompose(g)
    pw = perron_weights(spec)
    locs = local_spectra(spec, dd)
    return g, dd, spec, pw, locs


def _families(spec, locs, pw):
    gseq, = predistance_polynomials(spec.lambdas, [spec.mults / spec.n], [spec.d])
    lseqs = predistance_polynomials(spec.lambdas, [ls.local_mults for ls in locs],
                                    [ls.du for ls in locs], alpha=pw.alpha)
    return gseq, lseqs


def test_inner_product_constants():
    # <1, 1> is the total mass of the measure
    g, dd, spec, pw, locs = _k23_pieces()
    gseq, lseqs = _families(spec, locs, pw)
    assert gseq.weights.sum() == pytest.approx(1.0, abs=1e-12)
    for seq in lseqs:
        assert seq.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_inner_product_x_x_k23():
    _, _, spec, pw, locs = _k23_pieces()
    gseq, _ = _families(spec, locs, pw)
    # (1/n) tr(A^2) = 2|E|/n = 12/5
    assert float(gseq.weights @ spec.lambdas ** 2) == pytest.approx(12 / 5, rel=1e-12)


def test_inner_product_matches_trace_definition():
    g, dd, spec, pw, locs = _k23_pieces()
    gseq, lseqs = _families(spec, locs, pw)
    a = np.asarray(g.adjacency)
    rng = np.random.default_rng(1)
    for _ in range(5):
        p, q = rng.standard_normal(3), rng.standard_normal(3)
        pq_nodes = _at(p, spec.lambdas) * _at(q, spec.lambdas)
        pq_a = _power_eval(p, a) @ _power_eval(q, a)
        via_trace = np.trace(pq_a) / g.n
        assert float(gseq.weights @ pq_nodes) == pytest.approx(via_trace, rel=1e-9, abs=1e-9)
        for seq in lseqs:
            via_uu = pq_a[seq.vertex, seq.vertex]
            assert float(seq.weights @ pq_nodes) == pytest.approx(via_uu, rel=1e-9, abs=1e-9)


def test_degree_error():
    _, _, spec, pw, locs = _k23_pieces()
    # d + 1 = 3 nodes admit degrees 0..2 only
    with pytest.raises(DegreeError):
        predistance_polynomials(spec.lambdas, [spec.mults / spec.n], [3])
    # P_3 center has d_u = 1: quadratics are out of range locally
    from spexcess.pipeline import analyze_graph
    from spexcess.theorems import check_local_bound
    ga = analyze_graph(fx.path(3))
    assert ga.local_spectra[1].du == 1
    with pytest.raises(DegreeError):
        check_local_bound(ga, 1, j=1, r=[0.0, 0.0, 1.0])


def test_degenerate_measure_raises():
    nodes = np.array([2.0, 1.0, 1.0 + 1e-15])  # duplicated node
    with pytest.raises(DegenerateMeasureError):
        predistance_polynomials(nodes, [[0.25, 0.5, 0.25]], [2])


def test_local_context_requires_alpha():
    # local families take one Perron entry per row, the global one none
    _, _, spec, pw, locs = _k23_pieces()
    rows = [ls.local_mults for ls in locs]
    degrees = [ls.du for ls in locs]
    with pytest.raises(ValueError):
        predistance_polynomials(spec.lambdas, rows, degrees, alpha=pw.alpha[:2])
    seqs = predistance_polynomials(spec.lambdas, rows, degrees, alpha=pw.alpha)
    assert [s.vertex for s in seqs] == list(range(len(locs)))
    assert [s.norm_scale for s in seqs] == pytest.approx(pw.alpha ** 2)
    gseq, = predistance_polynomials(spec.lambdas, [spec.mults / spec.n], [spec.d])
    assert gseq.vertex is None and gseq.norm_scale == 1.0


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
    assert np.abs(a2 - ga.dd.distance_matrices[2]).max() <= 1e-7


def test_drg_fixtures_p_i_equals_a_i():
    for name in ("petersen", "c5", "k4", "c4"):
        ga = _analysis(name)
        for i in range(ga.D + 1):
            diff = evaluate_at_matrix(ga.global_seq.values[i], ga.spectrum) \
                - ga.dd.distance_matrices[i]
            assert np.abs(diff).max() <= 1e-7, (name, i)


def test_orthogonality_and_normalization():
    for name in ("k23", "petersen", "p3", "c8_12", "k13"):
        g = fx.named(name) if name != "k13" else fx.star(3)
        from spexcess.pipeline import analyze_graph
        ga = analyze_graph(g)
        for seq in [ga.global_seq] + list(ga.local_seqs):
            w, vals, pl0 = seq.weights, seq.values, seq.p_lambda0
            m = seq.top_degree
            assert np.all(pl0 > 0)
            for i in range(m + 1):
                nn = float(np.sum(w * vals[i] * vals[i]))
                assert abs(nn - seq.norm_scale * pl0[i]) <= 1e-8 * seq.norm_scale * pl0[i]
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
        for seq in [ga.global_seq] + list(ga.local_seqs):
            w, vals = seq.weights, seq.values
            m = seq.top_degree
            for i in range(m + 1):
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


# --- Hoffman polynomials -------------------------------------------------------

def test_hoffman_k2():
    ga = _analysis("k2")
    h = hoffman_polynomial(ga.global_seq, ga.spectrum)
    # H = 1 + x on the eigenvalues 1, -1
    assert h.tolist() == pytest.approx([2.0, 0.0], abs=1e-10)
    assert np.abs(evaluate_at_matrix(h, ga.spectrum) - 1.0).max() <= 1e-10  # H(A) = J


def test_hoffman_regular_gives_all_ones():
    for name in ("petersen", "c6", "k5", "c8_12"):
        ga = _analysis(name)
        h = hoffman_polynomial(ga.global_seq, ga.spectrum)
        assert np.abs(evaluate_at_matrix(h, ga.spectrum) - 1.0).max() <= 1e-7, name


def test_hoffman_k23_gives_jstar():
    ga = _analysis("k23")
    h = hoffman_polynomial(ga.global_seq, ga.spectrum)
    ha = evaluate_at_matrix(h, ga.spectrum)
    assert np.abs(ha - ga.wm.jstar).max() <= 1e-9
    # and in nu-normalization: (||nu||^2 / n) H(A) has entries nu_u nu_v
    nu = ga.perron.nu
    scaled = float(nu @ nu) / ga.n * ha
    assert np.abs(scaled - np.outer(nu, nu)).max() <= 1e-9


def test_hoffman_nonregular_is_not_j():
    ga = _analysis("p3")
    h = hoffman_polynomial(ga.global_seq, ga.spectrum)
    assert np.abs(evaluate_at_matrix(h, ga.spectrum) - 1.0).max() > 0.1


def test_hoffman_values_and_product_form():
    # H and (n / pi_0) prod_{i >= 1} (x - lambda_i) agree at all d + 1
    # eigenvalues; both have degree <= d, so they are the same polynomial
    for name in ("k23", "petersen", "p3", "c8_12"):
        ga = _analysis(name)
        lambdas = ga.spectrum.lambdas
        h = hoffman_polynomial(ga.global_seq, ga.spectrum)
        target = np.zeros(ga.d + 1)
        target[0] = ga.n
        assert np.abs(h - target).max() <= 1e-8 * ga.n
        pi0 = float(np.prod(ga.lambda0 - lambdas[1:]))
        product = ga.n / pi0 * np.prod(lambdas[:, None] - lambdas[None, 1:], axis=1)
        assert np.abs(h - product).max() <= 1e-8 * ga.n
        # the same H(A) as the power-basis evaluation of the product form
        coeffs = ga.n / pi0 * np.polynomial.polynomial.polyfromroots(lambdas[1:])
        ref = _power_eval(coeffs, np.asarray(ga.graph.adjacency))
        assert np.abs(evaluate_at_matrix(h, ga.spectrum) - ref).max() <= 1e-8 * ga.n


def test_hoffman_rejects_corrupted_values():
    # H + 1 misses H(lambda_i) = n * delta_0i at every eigenvalue
    ga = _analysis("k23")
    seq = ga.global_seq
    bad = dataclasses.replace(seq, values=seq.values + np.eye(len(seq.values))[-1][:, None])
    with pytest.raises(DegenerateMeasureError, match="characterization"):
        hoffman_polynomial(bad, ga.spectrum)


def test_hoffman_requires_global():
    ga = _analysis("k23")
    with pytest.raises(ValueError):
        hoffman_polynomial(ga.local_seqs[0], ga.spectrum)


# --- local preHoffman ----------------------------------------------------------
# H^u = q^u_{d_u}, the top sum polynomial of the local family at u

def test_local_prehoffman_p3_center():
    ga = _analysis("p3")
    h = hoffman_polynomial(ga.global_seq, ga.spectrum)
    seq = ga.local_seqs[1]
    assert seq.top_degree == 1 and ga.global_seq.top_degree == 2
    hu = seq.sum_values(seq.top_degree)
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
        for seq in ga.local_seqs:
            assert seq.q_lambda0[-1] == pytest.approx(ga.n, rel=1e-9)


def test_local_prehoffman_vertex_transitive_equals_global():
    ga = _analysis("petersen")
    h = hoffman_polynomial(ga.global_seq, ga.spectrum)
    for seq in ga.local_seqs:
        assert np.abs(seq.sum_values(seq.top_degree) - h).max() <= 1e-8


def test_local_prehoffman_column_identity():
    for name in ("k23", "c8_12"):
        ga = _analysis(name)
        h = hoffman_polynomial(ga.global_seq, ga.spectrum)
        a = np.asarray(ga.graph.adjacency)
        h_ref = ga.n / np.prod(ga.lambda0 - ga.spectrum.lambdas[1:]) \
            * np.polynomial.polynomial.polyfromroots(ga.spectrum.lambdas[1:])
        for u, seq in enumerate(ga.local_seqs):
            e = np.zeros(ga.n)
            e[u] = 1.0
            hu_e = apply_to_vector(seq.sum_values(seq.top_degree), ga.spectrum, e)
            assert np.abs(hu_e - apply_to_vector(h, ga.spectrum, e)).max() <= 1e-8, (name, u)
            assert np.abs(hu_e - _power_eval(h_ref, a) @ e).max() <= 1e-8, (name, u)


# --- mean of local products ------------------------------------------------------

def test_mean_of_local_products_identity():
    rng = np.random.default_rng(12)
    for name in ("k23", "petersen", "p3", "c8_12"):
        ga = _analysis(name)
        deg = min(ls.du for ls in ga.local_spectra)
        for _ in range(5):
            p = _at(rng.standard_normal(deg + 1), ga.spectrum.lambdas)
            q = _at(rng.standard_normal(deg + 1), ga.spectrum.lambdas)
            glob = float(ga.global_seq.weights @ (p * q))
            mean = np.mean([float(s.weights @ (p * q)) for s in ga.local_seqs])
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
