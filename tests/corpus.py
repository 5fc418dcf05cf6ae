"""Seeded random-graph corpora and the property batteries run over them.

The main corpus mixes connected Erdos-Renyi graphs and uniform random trees
(Pruefer decode) with n <= 12.  The wide corpus holds graphs with many
distinct eigenvalues (d up to about 60).  Batteries return failure-message
lists so both the property tests and the timed acceptance criterion can
share them.
"""

import functools
import heapq
import random

import networkx as nx
import numpy as np

from spexcess.classify import DEFAULT_ORACLE_TOL
from spexcess.graphs import Graph
from spexcess.pipeline import analyze_graph, run_all_checks
from spexcess.poly import evaluate_at_matrix, predistance_polynomials
from spexcess.spectral import class_sums, top_p_lambda0

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


def lollipop(m, L):
    """K_m with a path of L more vertices hung on clique vertex m - 1: its
    Perron entries fall geometrically along the path."""
    clique = [(i, j) for i in range(m) for j in range(i + 1, m)]
    return Graph.from_edges(m + L, clique + [(v, v + 1) for v in range(m - 1, m + L - 1)])


def barbell(m, L):
    """Two copies of K_m joined by a path of L more vertices: lambda_0 -
    lambda_1 shrinks fast as m and L grow (5.1e-08 at m = L = 8)."""
    clique = [(i, j) for i in range(m) for j in range(i + 1, m)]
    mirror = [(i + m + L, j + m + L) for i, j in clique]
    return Graph.from_edges(2 * m + L, clique + mirror + [(v, v + 1) for v in range(m - 1, m + L)])


def spider(k, L):
    """k paths of L vertices joined at the centre 0, n = kL + 1: leg a holds
    1 + aL .. (a + 1)L, outwards."""
    legs = [(0 if i == 0 else 1 + a * L + i - 1, 1 + a * L + i)
            for a in range(k) for i in range(L)]
    return Graph.from_edges(k * L + 1, legs)


def bethe_tree(children):
    """The generalized Bethe tree rooted at 0 in which every vertex at depth
    i has ``children[i]`` children, numbered level by level."""
    edges, level, n = [], [0], 1
    for c in children:
        below = list(range(n, n + c * len(level)))
        edges += [(level[k // c], v) for k, v in enumerate(below)]
        level, n = below, n + len(below)
    return Graph.from_edges(n, edges)


def cone(g):
    """The apex 0 joined to every vertex of ``g``, whose vertex v becomes v + 1."""
    return Graph.from_edges(g.n + 1, [(0, v + 1) for v in range(g.n)]
                            + [(u + 1, v + 1) for u, v in g.edges])


def relabel(g, perm):
    """The graph with vertex u renamed perm[u]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


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
    graphs.append(("tutte", from_networkx(nx.tutte_graph())))
    return graphs


def build_atlas():
    """The 995 connected graphs with 2 <= n <= 7 of networkx's graph atlas,
    named by their atlas index."""
    return [(f"atlas{i}", Graph.from_edges(h.number_of_nodes(), h.edges()))
            for i, h in enumerate(nx.graph_atlas_g())
            if h.number_of_nodes() >= 2 and nx.is_connected(h)]


def from_networkx(h):
    """The ``Graph`` of the networkx graph ``h``, its nodes numbered in sorted order."""
    h = nx.convert_node_labels_to_integers(h, ordering="sorted")
    return Graph.from_edges(h.number_of_nodes(), h.edges())


def build_modular_cases():
    """Regular graphs below partial distance-regularity level D - 1, where
    only the modular test decides whether the graph is distance-polynomial:
    name -> (graph, the verdict of the eigenvector projection it replaced).
    C4 x C6, C6 x C6 and circulant(20, {1, 4}) commute with every A_i and
    are not distance-polynomial; of the prisms C_n x K2, n = 6..12, those
    with n = 8 and 12 are not."""
    K, C = nx.complete_graph, nx.cycle_graph

    def box(*factors):
        return functools.reduce(nx.cartesian_product, factors)

    cases = {
        "k3xc7": (box(K(3), C(7)), True), "c5xc5": (box(C(5), C(5)), True),
        "moebius-kantor": (nx.moebius_kantor_graph(), True),
        "circulant16-1-3": (nx.circulant_graph(16, [1, 3]), True),
        "circulant24-1-5-7": (nx.circulant_graph(24, [1, 5, 7]), True),
        "k2xk3xk4": (box(K(2), K(3), K(4)), True),
        "c4xc6": (box(C(4), C(6)), False), "c6xc6": (box(C(6), C(6)), False),
        "circulant20-1-4": (nx.circulant_graph(20, [1, 4]), False),
        "truncated-tetrahedron": (nx.truncated_tetrahedron_graph(), False),
        "frucht": (nx.frucht_graph(), False), "tutte": (nx.tutte_graph(), False),
    }
    cases.update((f"prism{n}", (nx.circular_ladder_graph(n), n not in (8, 12)))
                 for n in range(6, 13))
    return {name: (from_networkx(h), dp) for name, (h, dp) in cases.items()}


def analyze_corpus(graphs):
    """Entries are (name, GraphAnalysis, theorem reports)."""
    out = []
    for name, g in graphs:
        ga = analyze_graph(g)
        out.append((name, ga, run_all_checks(ga)))
    return out


# two primes below 2^20, so a product of residues stays below 2^40 in int64
KRYLOV_PRIMES = (1048573, 1048571)


def _inverse_mod(x, p):
    """x^(p - 2) mod p elementwise: the inverse of each nonzero residue."""
    out, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            out = out * x % p
        x, e = x * x % p, e >> 1
    return out


def _powers_mod(adjacency, p, count):
    """A^0, ..., A^(count - 1) modulo p for each graph in the stack
    ``adjacency`` (graphs, n, n), as a list of int64 stacks."""
    a = np.asarray(adjacency, dtype=np.int64)
    powers = [np.broadcast_to(np.eye(a.shape[-1], dtype=np.int64), a.shape)]
    for _ in range(count - 1):
        powers.append(a @ powers[-1] % p)
    return powers


def _ranks_mod(m, p):
    """The rank modulo p of each matrix in the int64 stack ``m`` (batch,
    rows, cols), by Gaussian elimination on all of them at once; ``m`` is
    overwritten.  The columns of each matrix must be an injective image of
    a Krylov sequence x, Bx, B^2 x, ..., so that once a column lies in the
    span of those before it every later one does too: the first column that
    adds nothing to any matrix ends the elimination."""
    b, n, cols = m.shape
    batch, rows = np.arange(b), np.arange(n)
    rank = np.zeros(b, dtype=np.int64)
    for c in range(cols):
        cand = (m[:, :, c] != 0) & (rows >= rank[:, None])
        has = cand.any(axis=1)
        if not has.any():
            break
        top = np.minimum(rank, n - 1)
        piv = np.where(has, cand.argmax(axis=1), top)
        pivot_row = m[batch, piv]
        pivot_row = pivot_row * np.where(has, _inverse_mod(pivot_row[:, c], p), 1)[:, None] % p
        m[batch, piv] = m[batch, top]
        m[batch, top] = pivot_row
        factor = m[:, :, c] * ((rows > top[:, None]) & has[:, None])
        m[:, :, c:] = (m[:, :, c:] - factor[:, :, None] * pivot_row[:, None, c:]) % p
        rank += has
    return rank


def krylov_dims(adjacency, p):
    """dim span{A^k e_u : k >= 0} modulo the prime p for every vertex u of
    every graph in the stack ``adjacency`` (graphs, n, n), as an int array
    (graphs, n): the rank of the Krylov matrix [e_u, Ae_u, ..., A^(n-1) e_u],
    all vertices of all graphs at once.  Over the rationals it is d_u + 1,
    the size of u's local support; modulo p it can only be lower, so two
    primes that agree confirm it."""
    g, n, _ = np.shape(adjacency)
    # batch (graph, u): rows are coordinates, column k is A^k e_u
    powers = np.stack(_powers_mod(adjacency, p, n), axis=-1)
    return _ranks_mod(powers.transpose(0, 2, 1, 3).reshape(g * n, n, n), p).reshape(g, n)


def distinct_eigenvalue_counts(adjacency, p):
    """The rank modulo the prime p of the moment Hankel matrix (tr A^(i+j)),
    0 <= i, j <= n, for each graph in the stack ``adjacency`` (graphs, n, n).
    Over the rationals H = sum_k m_k v_k v_k^T, v_k = (lambda_k^i)_i a
    Vandermonde column, so its rank is d + 1, the number of distinct
    eigenvalues; column j is the image of diag(lambda)^j 1 under the
    injective map x -> V diag(m) x.  Modulo p it can only be lower, so two
    primes that agree confirm it.  No eigenvector is read."""
    n = np.shape(adjacency)[-1]
    moments = np.stack([np.trace(a, axis1=1, axis2=2) % p
                        for a in _powers_mod(adjacency, p, 2 * n + 1)], axis=-1)
    hankel = np.stack([moments[:, i:i + n + 1] for i in range(n + 1)], axis=1)
    return _ranks_mod(hankel, p)


# --- property batteries ------------------------------------------------------


def battery_mean_of_local_products(analyzed, rng=None, tol=1e-8):
    """<p,q> over the graph equals the vertex average of the local products.

    p and q are random polynomials of degree <= d, given by their values on
    the d+1 distinct eigenvalues.
    """
    rng = rng or np.random.default_rng(SEED)
    fails = []
    for name, ga, _reports in analyzed:
        local_w = ga.local_spectra.mults
        for _ in range(3):
            pq = rng.standard_normal(ga.d + 1) * rng.standard_normal(ga.d + 1)
            glob = float(ga.spectrum.mults / ga.n @ pq)
            local_mean = float(np.mean(local_w @ pq))
            scale = max(1.0, abs(glob))
            if abs(glob - local_mean) > tol * scale:
                fails.append(f"{name}: <p,q> {glob} vs mean {local_mean}")
    return fails


def local_family(ga, u, degree=None):
    """Vertex u's local family to ``degree`` (default d_u), from its own
    one-measure call (the pipeline builds no local family)."""
    degree = ga.local_spectra.du[u] if degree is None else degree
    return predistance_polynomials(ga.spectrum.lambdas, ga.local_spectra.mults[u],
                                   int(degree), scale=ga.alpha[u] ** 2)


def full_local_families(ga):
    """Every vertex's local family to degree d_u, indexed by vertex."""
    return [local_family(ga, u) for u in range(ga.n)]


def cut_local_families(ga):
    """{u: local family cut at degree ecc_u} for every vertex with ecc_u <
    d_u: the rows of P31's all-vertex pass (``theorems.check_local_bound``
    runs them as one stack), each from its own one-measure call."""
    short = np.flatnonzero(ga.dd.ecc < ga.local_spectra.du).tolist()
    return {u: local_family(ga, u, ga.dd.ecc[u]) for u in short}


def all_families(ga):
    """(vertex, weights, scale s, family) for the global family (vertex
    None, s = 1), the local ones cut at ecc_u < d_u and every full local
    one (s = alpha_u^2)."""
    mults, alpha = ga.local_spectra.mults, ga.alpha
    return ([(None, ga.spectrum.mults / ga.n, 1.0, ga.global_seq)]
            + [(u, mults[u], alpha[u] ** 2, seq)
               for u, seq in [*cut_local_families(ga).items(),
                              *enumerate(full_local_families(ga))]])


def battery_orthogonality(analyzed, tol=1e-12):
    """<p_i, p_j> = delta_ij * s * p_i(lambda_0) with p_i(lambda_0) > 0 for
    every family of ``all_families``; the error is normalized by
    s * sqrt(p_i(lambda_0) p_j(lambda_0))."""
    fails = []
    for name, ga, _reports in analyzed:
        for u, weights, s, seq in all_families(ga):
            pl0 = seq.p_lambda0
            if not np.all(pl0 > 0):
                fails.append(f"{name}: vertex {u}: p_i(lambda0) <= 0")
                continue
            gram = (seq.values * weights) @ seq.values.T
            target = np.diag(s * pl0)
            scale = s * np.sqrt(np.outer(pl0, pl0))
            err = float(np.abs((gram - target) / scale).max())
            if err > tol:
                fails.append(f"{name}: vertex {u}: orthogonality error {err:.2e}")
    return fails


def battery_local_multiplicities(analyzed, tol=1e-9):
    """sum_u m_u(lambda_i) = m(lambda_i) and sum_i m_u(lambda_i) = 1."""
    fails = []
    for name, ga, _reports in analyzed:
        mat = ga.local_spectra.mults
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
        for u, (ecc, du) in enumerate(zip(ga.dd.ecc.tolist(), ga.local_spectra.du.tolist())):
            if ecc > du:
                fails.append(f"{name}: vertex {u} ecc {ecc} > du {du}")
    return fails


def battery_inequality_slacks(analyzed, tol=1e-7):
    """Every inequality row of every check has slack >= -tol * max(1, |lhs|,
    |rhs|), read from the slack column, not from the row state."""
    fails = []
    for name, _ga, reports in analyzed:
        for rep in reports:
            if rep.kind != "inequality":
                continue
            scale = np.maximum(1.0, np.maximum(abs(rep.lhs), abs(rep.rhs)))
            fails.extend(f"{name}: {rep.theorem_id}: {rep.label_text(i)}: "
                         f"lhs={float(rep.lhs[i])!r} > rhs={float(rep.rhs[i])!r}"
                         for i in np.flatnonzero(rep.slack < -tol * scale))
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
        err = np.abs((ga.dd.dist == 1) @ ga.alpha / ga.alpha - ga.lambda0).max()
        if err > tol * max(1.0, ga.lambda0):
            fails.append(f"{name}: weighted degree off by {err:.2e}")
    return fails


def battery_oracle_agreement(analyzed):
    """T32 verdict == pseudo-DR oracle per vertex; P35 == level >= m."""
    fails = []
    for name, _ga, reports in analyzed:
        for rep in reports:
            agrees = rep.details.get("oracle_agrees", True)
            fails.extend(f"{name}: {rep.theorem_id}: oracle disagreement: {rep.verdict_text(i)}"
                         for i in np.flatnonzero(np.logical_not(agrees)))
    return fails


def reference_pseudo_dr(u, dd, alpha, adjacency, tol=DEFAULT_ORACLE_TOL):
    """The per-root, per-radius loop the batched oracle replaced.

    Returns (is_pdr, numbers, violation) for root u, with the same
    constancy test, means and first-violation order.
    """
    du_row = dd.dist[u]
    numbers = np.zeros((3, int(dd.ecc[u]) + 1))
    for i in range(int(dd.ecc[u]) + 1):
        members = np.flatnonzero(du_row == i)
        rows = adjacency[members]
        prev = (du_row == i - 1) if i >= 1 else np.zeros(dd.n, dtype=bool)
        triple = [rows @ (alpha * mask) / alpha[members]
                  for mask in (prev, du_row == i, du_row == i + 1)]
        for k, (which, vals) in enumerate(zip("cab", triple)):
            spread = float(vals.max() - vals.min())
            if spread > tol * max(1.0, float(np.abs(vals).max())):
                v = int(members[np.argmin(vals)])
                w = int(members[np.argmax(vals)])
                return False, None, (i, v, w, float(vals.min()), float(vals.max()), which)
            numbers[k, i] = vals.mean()
    return True, numbers, None


def violations_by_vertex(cls) -> dict:
    """``Classification.pdr_violations`` as {u: (i, v, w, value_v, value_w,
    which)} over the vertices that are not pseudo-distance-regular."""
    cols = cls.pdr_violations
    rows = zip(*(cols[k].tolist() for k in ("radius", "v", "w", "value_v", "value_w", "which")))
    return dict(zip(np.flatnonzero(~cls.is_pdr).tolist(), rows))


def battery_pseudo_dr_reference(analyzed, tol=1e-12):
    """The batched pseudo-DR oracle against the per-root reference loop:
    is_pdr, the violation's radius, vertices and triple exactly, and the
    numbers and violation values to ``tol`` relative to max(1, |value|)."""
    fails = []

    def close(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return x.shape == y.shape and bool(
            np.all(np.abs(x - y) <= tol * np.maximum(1.0, np.abs(y))))

    for name, ga, _reports in analyzed:
        cls = ga.classification
        violations = violations_by_vertex(cls)
        for u in range(ga.n):
            is_pdr, numbers, violation = reference_pseudo_dr(
                u, ga.dd, ga.alpha, ga.graph.adjacency, ga.eq_tol)
            got = violations.get(u)
            if cls.is_pdr[u] != is_pdr:
                fails.append(f"{name}: vertex {u}: is_pdr {cls.is_pdr[u]}")
            elif is_pdr and not close(cls.pdr_numbers[u, :, :ga.dd.ecc[u] + 1], numbers):
                fails.append(f"{name}: vertex {u}: numbers differ")
            elif not is_pdr and (
                    got[:3] + got[5:] != violation[:3] + violation[5:]
                    or not close(got[3:5], violation[3:5])):
                fails.append(f"{name}: vertex {u}: violation {got} vs {violation}")
    return fails


def battery_distance_regular_networkx(analyzed):
    """The distance-regularity oracle against networkx, with the b, c and a rows."""
    fails = []
    for name, ga, _reports in analyzed:
        h = nx.Graph(ga.graph.edges)
        h.add_nodes_from(range(ga.n))
        cls = ga.classification
        if cls.is_distance_regular != nx.is_distance_regular(h):
            fails.append(f"{name}: is_distance_regular {cls.is_distance_regular}")
        elif cls.is_distance_regular:
            b, c = nx.intersection_array(h)
            # a_i = k - b_i - c_i with b_D = c_0 = 0
            a = [b[0] - bi - ci for bi, ci in zip(list(b) + [0], [0] + list(c))]
            got = cls.intersection_array
            if (got["b"], got["c"], got["a"]) != (list(b), list(c), a):
                fails.append(f"{name}: intersection array {got} vs {b}, {c}")
    return fails


def battery_local_excess_closed_form(analyzed, tol=1e-13):
    """T32's closed-form p^u_{d_u}(lambda_0) against the top value of the
    vertex's full Lanczos family, within tol * max(1, |p|)."""
    fails = []
    for name, ga, _reports in analyzed:
        for u, (du, got, seq) in enumerate(zip(ga.local_spectra.du.tolist(),
                                               ga.local_spectra.excess.tolist(),
                                               full_local_families(ga))):
            p = float(seq.p_lambda0[du])
            if abs(got - p) > tol * max(1.0, abs(p)):
                fails.append(f"{name}: vertex {u}: closed form {got!r} vs Lanczos {p!r}")
    return fails


def battery_global_excess_closed_form(analyzed, tol=1e-13):
    """The spectral excess formula n / (pi_0^2 sum_k 1 / (m_k pi_k^2)), with
    pi_k = prod_{i != k} |lambda_k - lambda_i| in plain products, against
    the Lanczos p_d(lambda_0) within tol * max(1, |p|), and the log-space
    ``top_p_lambda0`` against it within 1e-12 relative."""
    fails = []
    for name, ga, _reports in analyzed:
        lambdas, mults = ga.spectrum.lambdas, ga.spectrum.mults
        gaps = np.abs(lambdas[:, None] - lambdas[None, :]) + np.eye(ga.d + 1)
        pi = gaps.prod(axis=1)
        formula = ga.n / (pi[0] ** 2 * np.sum(1.0 / (mults * pi ** 2)))
        p = float(ga.global_seq.p_lambda0[ga.d])
        logs = float(top_p_lambda0(lambdas, mults / ga.n,
                                   np.ones(ga.d + 1, dtype=bool), 1.0))
        if abs(formula - p) > tol * max(1.0, abs(p)):
            fails.append(f"{name}: formula {formula!r} vs Lanczos {p!r}")
        if abs(logs - formula) > 1e-12 * formula:
            fails.append(f"{name}: top_p_lambda0 {logs!r} vs formula {formula!r}")
    return fails


def reference_partial_dr_level(ga, tol=DEFAULT_ORACLE_TOL):
    """The largest m <= min(D, d) with p_i(A) = A_i entrywise, within
    tol * max(1, n), for all i <= m, with p_i(A) built from the global
    family and the eigenvectors (the spectral route the sweep replaced)."""
    level = 0
    for i in range(1, min(ga.D, ga.d) + 1):
        diff = evaluate_at_matrix(ga.global_seq.values[i], ga.spectrum) - (ga.dd.dist == i)
        if np.abs(diff).max() > tol * max(1.0, ga.n):
            break
        level = i
    return level


def reference_distance_polynomial(ga, tol=DEFAULT_ORACLE_TOL):
    """Whether each A_i lies within tol * n, in Frobenius norm, of its
    orthogonal projection sum_k (tr(A_i E_k) / m_k) E_k onto the span of the
    E_k = V_k V_k^T, built from the eigenvectors (the spectral route that
    the modular test replaced)."""
    spec, v = ga.spectrum, ga.spectrum.vectors
    for i in range(ga.D + 1):
        a = (ga.dd.dist == i).astype(float)
        coef = class_sums(np.einsum("uk,uk->k", v, a @ v), spec) / spec.mults
        if np.linalg.norm(a - (v * coef.take(spec.class_index)) @ v.T) > tol * ga.n:
            return False
    return True


def battery_partial_dr_level_reference(analyzed):
    """The combinatorial partial distance-regularity level against
    ``reference_partial_dr_level``, and distance-regular iff that level is D."""
    fails = []
    for name, ga, _reports in analyzed:
        cls, level = ga.classification, reference_partial_dr_level(ga)
        if cls.partial_dr_level != level:
            fails.append(f"{name}: level {cls.partial_dr_level} vs p_i(A) = A_i "
                         f"level {level}")
        if cls.is_distance_regular != (level == ga.D):
            fails.append(f"{name}: is_distance_regular {cls.is_distance_regular} "
                         f"with p_i(A) = A_i level {level} of D = {ga.D}")
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
    battery_pseudo_dr_reference,
    battery_distance_regular_networkx,
    battery_partial_dr_level_reference,
    battery_local_excess_closed_form,
    battery_global_excess_closed_form,
)


def run_full_suite(seed=SEED):
    """Fresh corpus build plus every battery; returns (n_graphs, failures)."""
    analyzed = analyze_corpus(build_corpus(seed))
    failures = []
    for battery in ALL_BATTERIES:
        failures.extend(battery(analyzed))
    return len(analyzed), failures
