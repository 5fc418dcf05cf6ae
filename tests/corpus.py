"""Seeded random-graph corpora and the property batteries run over them.

The main corpus mixes connected Erdos-Renyi graphs and uniform random trees
(Pruefer decode) with n <= 12.  The wide corpus holds graphs with many
distinct eigenvalues (d up to about 60).  Batteries return failure-message
lists so both the property tests and the timed acceptance criterion can
share them.
"""

import heapq
import random

import networkx as nx
import numpy as np

from spexcess.graphs import Graph
from spexcess.pipeline import analyze_graph, run_all_checks

SEED = 20250809
# the benchmark's wide-spectrum draw: the first 41 wide graphs are its shapes
WIDE_SEED = 7


def connected_er(rng, n, p):
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        try:
            return Graph.from_edges(n, edges)
        except Exception:
            continue


def random_tree(rng, n):
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph.from_edges(n, edges)


def build_corpus(seed=SEED):
    """>= 100 small connected graphs: ER at three densities plus trees."""
    rng = random.Random(seed)
    graphs = []
    for n in range(4, 13):
        for p in (0.25, 0.4, 0.6):
            graphs.append((f"er{n}p{p}a", connected_er(rng, n, p)))
            graphs.append((f"er{n}p{p}b", connected_er(rng, n, p)))
        for k in range(6):
            graphs.append((f"tree{n}x{k}", random_tree(rng, n)))
    return graphs


def build_wide_corpus(seed=WIDE_SEED):
    """ER(n, 0.3) for n = 18, 24, 30, then 10 trees with n = 30, then
    ER(60, 0.3), 10 graphs per family, plus the Tutte graph (d = 30)."""
    rng = random.Random(seed)
    graphs = []
    for n in (18, 24, 30):
        graphs.extend((f"er{n}x{k}", connected_er(rng, n, 0.3)) for k in range(10))
    graphs.extend((f"tree30x{k}", random_tree(rng, 30)) for k in range(10))
    graphs.extend((f"er60x{k}", connected_er(rng, 60, 0.3)) for k in range(10))
    tutte = nx.convert_node_labels_to_integers(nx.tutte_graph(), ordering="sorted")
    graphs.append(("tutte", Graph.from_edges(tutte.number_of_nodes(), tutte.edges())))
    return graphs


def analyze_corpus(graphs):
    """Entries are (name, GraphAnalysis, theorem reports)."""
    out = []
    for name, g in graphs:
        ga = analyze_graph(g)
        out.append((name, ga, run_all_checks(ga)))
    return out


# --- property batteries ------------------------------------------------------


def battery_mean_of_local_products(analyzed, rng=None, tol=1e-8):
    """<p,q> over the graph equals the vertex average of the local products.

    p and q are random polynomials of degree <= d, given by their values on
    the d+1 distinct eigenvalues.
    """
    rng = rng or np.random.default_rng(SEED)
    fails = []
    for name, ga, _reports in analyzed:
        local_w = np.stack([s.weights for s in ga.local_seqs])
        for _ in range(3):
            pq = rng.standard_normal(ga.d + 1) * rng.standard_normal(ga.d + 1)
            glob = float(ga.global_seq.weights @ pq)
            local_mean = float(np.mean(local_w @ pq))
            scale = max(1.0, abs(glob))
            if abs(glob - local_mean) > tol * scale:
                fails.append(f"{name}: <p,q> {glob} vs mean {local_mean}")
    return fails


def battery_orthogonality(analyzed, tol=1e-12):
    """<p_i, p_j> = delta_ij * s * p_i(lambda_0) with p_i(lambda_0) > 0, for
    the global family (s = 1) and every local one (s = alpha_u^2); the
    error is normalized by s * sqrt(p_i(lambda_0) p_j(lambda_0))."""
    fails = []
    for name, ga, _reports in analyzed:
        for seq in (ga.global_seq,) + ga.local_seqs:
            pl0 = seq.p_lambda0
            if not np.all(pl0 > 0):
                fails.append(f"{name}: vertex {seq.vertex}: p_i(lambda0) <= 0")
                continue
            gram = (seq.values * seq.weights) @ seq.values.T
            target = np.diag(seq.norm_scale * pl0)
            scale = seq.norm_scale * np.sqrt(np.outer(pl0, pl0))
            err = float(np.abs((gram - target) / scale).max())
            if err > tol:
                fails.append(f"{name}: vertex {seq.vertex}: orthogonality error {err:.2e}")
    return fails


def battery_local_multiplicities(analyzed, tol=1e-9):
    """sum_u m_u(lambda_i) = m(lambda_i) and sum_i m_u(lambda_i) = 1."""
    fails = []
    for name, ga, _reports in analyzed:
        mat = np.stack([ls.local_mults for ls in ga.local_spectra])
        col = mat.sum(axis=0) - ga.spectrum.mults
        row = mat.sum(axis=1) - 1.0
        if np.abs(col).max() > tol * ga.n:
            fails.append(f"{name}: column sums off by {np.abs(col).max():.2e}")
        if np.abs(row).max() > tol:
            fails.append(f"{name}: row sums off by {np.abs(row).max():.2e}")
    return fails


def battery_eccentricity_bound(analyzed):
    """ecc(u) <= d_u for every vertex."""
    fails = []
    for name, ga, _reports in analyzed:
        for ls in ga.local_spectra:
            if ls.eccentricity > ls.du:
                fails.append(f"{name}: vertex {ls.vertex} ecc {ls.eccentricity} > du {ls.du}")
    return fails


def battery_inequality_slacks(analyzed, tol=1e-7):
    """Every inequality comparison of every check has slack >= -tol."""
    fails = []
    for name, _ga, reports in analyzed:
        for rep in reports:
            for v in rep.inequality_violations(tol):
                fails.append(f"{name}: {v}")
    return fails


def battery_hoffman(analyzed, tol=1e-8):
    """sum_i p_i(lambda_0) = n and H(lambda_i) = n*delta_0i."""
    fails = []
    for name, ga, _reports in analyzed:
        n = ga.n
        total = float(ga.global_seq.q_lambda0[-1])
        if abs(total - n) > tol * n:
            fails.append(f"{name}: sum p_i(lambda0) = {total} != {n}")
        h_vals = ga.global_seq.values.sum(axis=0)
        target = np.zeros(ga.d + 1)
        target[0] = n
        err = np.abs(h_vals - target).max()
        if err > tol * n:
            fails.append(f"{name}: H(lambda_i) off by {err:.2e}")
    return fails


def battery_weighted_degree(analyzed, tol=1e-9):
    """(1/alpha_u) sum_{v~u} alpha_v = lambda_0 at every vertex."""
    fails = []
    for name, ga, _reports in analyzed:
        err = np.abs(ga.stats.avg_weighted_degree - ga.lambda0).max()
        if err > tol * max(1.0, ga.lambda0):
            fails.append(f"{name}: weighted degree off by {err:.2e}")
    return fails


def battery_oracle_agreement(analyzed):
    """T32 verdict == pseudo-DR oracle per vertex; P35 == level >= m."""
    fails = []
    for name, _ga, reports in analyzed:
        for rep in reports:
            if rep.details.get("oracle_agrees") is False:
                fails.append(f"{name}: {rep.theorem_id} {rep.params}: {rep.verdict}")
    return fails


ALL_BATTERIES = (
    battery_mean_of_local_products,
    battery_orthogonality,
    battery_local_multiplicities,
    battery_eccentricity_bound,
    battery_inequality_slacks,
    battery_hoffman,
    battery_weighted_degree,
    battery_oracle_agreement,
)


def run_full_suite(seed=SEED):
    """Fresh corpus build plus every battery; returns (n_graphs, failures)."""
    analyzed = analyze_corpus(build_corpus(seed))
    failures = []
    for battery in ALL_BATTERIES:
        failures.extend(battery(analyzed))
    return len(analyzed), failures
