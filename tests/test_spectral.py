import math
import random

import numpy as np
import pytest

import corpus
from conftest import ALL_NAMES
from spexcess import fixtures as fx
from spexcess.errors import ConvergenceError, NonPositiveEigenvectorError
from spexcess.graphs import distance_data
from spexcess.spectral import (
    eigendecompose,
    local_spectra,
    perron_weights,
)

SQRT6 = math.sqrt(6.0)


def _random_graphs():
    rng = random.Random(3)
    graphs = [corpus.connected_er(rng, n, p) for n in (2, 5, 9, 14, 30)
              for p in (0.3, 0.6)]
    return graphs + [corpus.random_tree(rng, n) for n in (3, 12, 40)]


def _triangles(g):
    adj = [set(np.flatnonzero(row).tolist()) for row in g.adjacency]
    return sum(len(adj[u] & adj[v]) for u, v in g.edges) // 3


def _degrees(g):
    return g.adjacency.sum(axis=1)


def _class_vectors(spec):
    """V_i, the eigenvector columns of class i (contiguous, mults[i] wide)."""
    return np.split(spec.vectors, np.cumsum(spec.mults)[:-1], axis=1)


def _projectors(spec):
    """E_i = V_i V_i^T, built here from the eigenvectors of class i."""
    return [v @ v.T for v in _class_vectors(spec)]


def _lagrange_projector(a, spec, i):
    """E_i = (1/phi_i) prod_{j != i} (A - lambda_j I), independent of V."""
    prod = np.eye(len(a))
    phi = 1.0
    for j in range(spec.d + 1):
        if j != i:
            prod = prod @ (a - spec.lambdas[j] * np.eye(len(a)))
            phi *= spec.lambdas[i] - spec.lambdas[j]
    return prod / phi


def test_eigendecompose_random_graphs():
    for g in _random_graphs():
        spec = eigendecompose(g)
        a = np.asarray(g.adjacency)
        w, v = spec.lambdas[spec.class_index], spec.vectors
        assert np.all(np.diff(w) <= 0)
        assert v.flags.c_contiguous
        assert np.abs(v.T @ v - np.eye(g.n)).max() <= 1e-12
        assert np.abs(a @ v - v * w).max() <= 1e-10 * np.linalg.norm(a)
        # trace identities from the edge list, in eigenvalues and in classes
        assert abs(w.sum()) <= 1e-10 * g.n
        assert abs(np.sum(w ** 2) - 2 * g.edge_count) <= 1e-10 * g.n ** 2
        assert abs(np.sum(w ** 3) - 6 * _triangles(g)) <= 1e-9 * g.n ** 3
        assert abs(np.sum(spec.mults * spec.lambdas ** 2) - 2 * g.edge_count) \
            <= 1e-9 * g.n ** 2


@pytest.mark.parametrize("signs", ["all", "perron", "random"])
def test_results_do_not_depend_on_eigenvector_signs(monkeypatch, signs):
    # a Spectrum promises its layout, not its signs: negating any set of
    # eigenvector columns leaves every derived number bit for bit the same,
    # up to the whole analyze --witnesses report
    from spexcess import spectral
    from spexcess.pipeline import analyze_graph, run_all_checks
    from spexcess.report import analysis_report, to_json
    rng = np.random.default_rng(5)
    graphs = [fx.named(name) for name in ("k23", "petersen", "c8_12", "p3")]
    for g in graphs + _random_graphs()[::2]:
        spec = eigendecompose(g)
        flip = {"all": np.full(g.n, True), "perron": np.arange(g.n) == 0,
                "random": rng.random(g.n) < 0.5}[signs]
        flipped = spectral.Spectrum(spec.lambdas, spec.mults,
                                    np.where(flip, -spec.vectors, spec.vectors), spec.residuals)
        analyses = [analyze_graph(g)]
        with monkeypatch.context() as m:
            m.setattr(spectral, "eigendecompose", lambda *_a, **_k: flipped)
            analyses.append(analyze_graph(g))
            assert analyses[1].spectrum is flipped
        base, other = analyses
        for a, b in ((base.local_spectra.mults, other.local_spectra.mults),
                     (base.local_spectra.excess, other.local_spectra.excess),
                     (base.alpha, other.alpha),
                     (base.q_gaps.max_abs_diff, other.q_gaps.max_abs_diff)):
            assert np.array_equal(a, b)
        base_json, other_json = (to_json(analysis_report(ga, run_all_checks(ga), True))
                                 for ga in analyses)
        assert base_json == other_json


def test_eigendecompose_linalg_error_is_convergence_error(monkeypatch):
    def fail(_a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError) as info:
        eigendecompose(fx.k23())
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_k23_spectrum():
    spec = eigendecompose(fx.k23())
    assert np.abs(spec.lambdas - [SQRT6, 0.0, -SQRT6]).max() <= 1e-10
    assert spec.mults.tolist() == [1, 3, 1]
    assert spec.d == 2
    # characteristic polynomial is x^3 (x^2 - 6): brute-force oracle
    coeffs = np.poly(np.asarray(fx.k23().adjacency))
    assert np.abs(coeffs - [1, 0, -6, 0, 0, 0]).max() <= 1e-9


def test_k2_spectrum():
    spec = eigendecompose(fx.complete(2))
    assert np.abs(spec.lambdas - [1.0, -1.0]).max() <= 1e-12
    assert spec.mults.tolist() == [1, 1]


def test_petersen_spectrum_trace_identities():
    spec = eigendecompose(fx.petersen())
    assert np.abs(spec.lambdas - [3.0, 1.0, -2.0]).max() <= 1e-10
    assert spec.mults.tolist() == [1, 5, 4]
    lams, mults = spec.lambdas, spec.mults
    assert abs(np.sum(mults * lams)) <= 1e-9          # tr A = 0
    assert abs(np.sum(mults * lams ** 2) - 30) <= 1e-9  # tr A^2 = 2|E|


def test_eigendecompose_residuals():
    for name in ("k23", "petersen", "c8_12", "p3", "k5", "c6"):
        g = fx.named(name)
        spec = eigendecompose(g)
        a = np.asarray(g.adjacency)
        norm = np.linalg.norm(a)
        for i, v in enumerate(_class_vectors(spec)):
            assert np.linalg.norm(a @ v - spec.lambdas[i] * v, axis=0).max() <= 1e-8 * norm
        # Spectrum.residuals bounds each column's residual against its class,
        # up to the rounding of forming it
        res = np.linalg.norm(a @ spec.vectors - spec.vectors * spec.lambdas[spec.class_index],
                             axis=0)
        assert np.all(res <= spec.residuals + 4 * np.finfo(float).eps * spec.lambda0)


def test_multiplicities_sum_and_simple_top():
    for name in ("k23", "petersen", "c6", "k5"):
        spec = eigendecompose(fx.named(name))
        assert int(spec.mults.sum()) == spec.n
        assert spec.mults[0] == 1


def test_perron_k23():
    g = fx.k23()
    alpha = perron_weights(eigendecompose(g), _degrees(g))
    expected = np.array([math.sqrt(5) / 2] * 2 + [math.sqrt(5) / math.sqrt(6)] * 3)
    assert np.abs(alpha - expected).max() <= 1e-9
    assert abs(np.sum(alpha ** 2) - 5) <= 1e-12


def test_perron_regular_is_ones():
    # exact ones on a regular graph, not the eigensolver's 1 +- 1e-15
    for name in ("petersen", "c6", "k4", "c8_12"):
        g = fx.named(name)
        alpha = perron_weights(eigendecompose(g), _degrees(g))
        assert np.array_equal(alpha, np.ones(g.n))


def test_perron_p3():
    alpha = perron_weights(eigendecompose(fx.path(3)), np.array([1, 2, 1]))
    expected = np.array([math.sqrt(3) / 2, math.sqrt(6) / 2, math.sqrt(3) / 2])
    assert np.abs(alpha - expected).max() <= 1e-10


def test_perron_rejects_grouped_top():
    # a hand-built spectrum whose top class holds two columns (C_6's 2 and
    # one copy of 1): lambda_0 is not separated from lambda_1, a gap of 0
    from spexcess.spectral import Spectrum
    spec = eigendecompose(fx.cycle(6))
    merged = Spectrum(np.array([1.5, 1.0, -1.0, -2.0]), np.array([2, 1, 2, 1]),
                      spec.vectors, spec.residuals)
    with pytest.raises(NonPositiveEigenvectorError, match=r"^lambda_0 - lambda_1 = 0\.000e\+00 "
                       r"is at or below the 1e-07 max\(1, lambda_0\) floor$"):
        perron_weights(merged, _degrees(fx.cycle(6)))


def test_idempotent_algebra():
    for name in ("k23", "petersen", "p3", "c8_12"):
        g = fx.named(name)
        spec = eigendecompose(g)
        mats = _projectors(spec)
        total = np.sum(mats, axis=0)
        assert np.abs(total - np.eye(g.n)).max() <= 1e-8
        a = np.asarray(g.adjacency)
        for i, e in enumerate(mats):
            assert np.linalg.norm(e @ e - e) <= 1e-8
            assert np.linalg.norm(a @ e - spec.lambdas[i] * e) <= 1e-8 * max(
                1.0, abs(spec.lambda0))
            for j in range(i):
                assert np.linalg.norm(e @ mats[j]) <= 1e-8


def test_idempotents_match_lagrange_product():
    for name in ("k23", "petersen", "p3", "c5", "k4", "c8_12"):
        g = fx.named(name)
        spec = eigendecompose(g)
        a = np.asarray(g.adjacency)
        for i, e in enumerate(_projectors(spec)):
            assert np.linalg.norm(_lagrange_projector(a, spec, i) - e) <= 1e-6


def test_local_mults_match_lagrange_diagonal():
    for name in ("k23", "petersen", "p3", "c5", "k4", "c8_12", "k13"):
        g = fx.star(3) if name == "k13" else fx.named(name)
        spec = eigendecompose(g)
        mat = local_spectra(spec).mults
        a = np.asarray(g.adjacency)
        for i in range(spec.d + 1):
            diag = np.diag(_lagrange_projector(a, spec, i))
            assert np.abs(mat[:, i] - diag).max() <= 1e-8, (name, i)


def test_e0_is_perron_projector():
    g = fx.k23()
    spec = eigendecompose(g)
    alpha = perron_weights(spec, _degrees(g))
    e0 = _projectors(spec)[0]
    assert np.abs(e0 - np.outer(alpha, alpha) / 5).max() <= 1e-10


def test_k2_idempotents():
    mats = _projectors(eigendecompose(fx.complete(2)))
    assert np.abs(mats[0] - 0.5).max() <= 1e-12
    assert np.abs(mats[1] - [[0.5, -0.5], [-0.5, 0.5]]).max() <= 1e-12


def test_local_spectrum_p3():
    g = fx.path(3)
    dd = distance_data(g)
    spec = eigendecompose(g)
    locs = local_spectra(spec)
    end, center = locs.mults[0], locs.mults[1]
    assert center[1] <= 1e-12  # no mass at eigenvalue 0
    assert locs.du[1] == 1 and dd.ecc[1] == 1  # the center is extremal
    assert locs.du[0] == 2 and dd.ecc[0] == 2  # so is an end
    assert np.all(end > 1e-3)


def test_local_mults_sum_to_one_and_aggregate():
    for name in ("k23", "petersen", "p3", "c8_12"):
        g = fx.named(name)
        dd = distance_data(g)
        spec = eigendecompose(g)
        alpha = perron_weights(spec, _degrees(g))
        locs = local_spectra(spec)
        mat = locs.mults
        assert np.abs(mat.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.abs(mat.sum(axis=0) - spec.mults).max() <= 1e-9
        # m_u(lambda_0) = alpha_u^2 / n
        assert np.abs(mat[:, 0] - alpha ** 2 / g.n).max() <= 1e-9
        assert np.all(dd.ecc <= locs.du)


def test_eigenvector_sign_determinism():
    g = fx.petersen()
    s1 = eigendecompose(g)
    s2 = eigendecompose(g)
    assert np.array_equal(s1.vectors, s2.vectors)


def test_eigendecompose_permutation_stability():
    # spectrum must be invariant under relabeling
    rng = random.Random(2)
    g = fx.named("c8_12")
    perm = list(range(g.n))
    rng.shuffle(perm)
    s1 = eigendecompose(g)
    s2 = eigendecompose(corpus.relabel(g, perm))
    assert np.abs(s1.lambdas - s2.lambdas).max() <= 1e-9
    assert s1.mults.tolist() == s2.mults.tolist()


def _presence_ratios(spec, mults):
    """sqrt(m_u(lambda_i)) / s_i for i >= 1, class by class as the module
    note states it: s_i is the norm of class i's residuals over lambda_i's
    gap to its nearest class, less both classes' largest residual."""
    starts = np.cumsum(spec.mults) - spec.mults
    res = [spec.residuals[s:s + k] for s, k in zip(starts, spec.mults)]
    shrunk = [spec.lambdas[i] - spec.lambdas[i + 1] - res[i].max() - res[i + 1].max()
              for i in range(spec.d)]
    out = np.empty((spec.n, spec.d))
    for i in range(1, spec.d + 1):
        s = math.sqrt(sum(r * r for r in res[i])) / min(shrunk[i - 1:i + 1])
        out[:, i - 1] = np.sqrt(mults[:, i]) / s
    return out


@pytest.mark.parametrize("graphs", ["fixtures", "atlas", "analyzed", "wide"])
def test_presence_margins(request, graphs):
    # each vertex keeps d_u of the lambda_i (i >= 1), and its margins are
    # the smallest kept and largest dropped ratio, infinite where it keeps
    # or drops none.  Kept ratios sit far above 1 + sqrt 2 and dropped
    # ones far below (at least 2.8e6 and at most 0.25 over 1,491 graphs),
    # so a support decided near the rule fails here
    if graphs == "fixtures":
        entries = [(name, request.getfixturevalue("analyses")(name)) for name in ALL_NAMES]
    else:
        entries = [(name, ga) for name, ga, _reports in request.getfixturevalue(graphs)]
    rule = 1.0 + math.sqrt(2.0)
    for name, ga in entries:
        ls = ga.local_spectra
        ratios = _presence_ratios(ga.spectrum, ls.mults)
        for u, (row, du, (low, high)) in enumerate(zip(ratios, ls.du, ls.margins.T)):
            kept, dropped = row[row > rule], row[row <= rule]
            assert len(kept) == du, (name, u)
            assert low == pytest.approx(min(kept, default=math.inf), rel=1e-12), (name, u)
            assert high == pytest.approx(max(dropped, default=-math.inf), rel=1e-12), (name, u)
            assert low > rule >= high, (name, u)
            assert (du == 0 or low >= 1e3) and (du == ga.d or high <= 1.0), (name, u, low, high)
