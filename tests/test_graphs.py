import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from spexcess import fixtures as fx
from spexcess.errors import DisconnectedError, LoopOrMultiEdgeError, ParseError
from spexcess.graphs import (
    Graph,
    distance_data,
    graph6_bytes,
    load_graph,
    parse_graph6,
)

K23_EDGELIST = "0 2\n0 3\n0 4\n1 2\n1 3\n1 4"


def test_load_k23_edgelist():
    g = load_graph(K23_EDGELIST)
    assert g.n == 5
    assert g.edge_count == 6
    assert sorted(g.adjacency.sum(axis=1)) == [2, 2, 2, 3, 3]


def test_load_single_edge():
    g = load_graph("0 1")
    assert g.n == 2 and g.edge_count == 1


def test_disconnected_rejected():
    with pytest.raises(DisconnectedError, match="connected"):
        load_graph("0 1\n2 3")
    with pytest.raises(DisconnectedError, match="connected"):
        Graph.from_edges(4, [(0, 1), (2, 3)])
    a = np.zeros((4, 4))
    a[[0, 1, 2, 3], [1, 0, 3, 2]] = 1.0
    g = Graph(4, ((0, 1), (2, 3)), a)  # built past from_edges's check
    for _ in range(2):  # a failed BFS keeps nothing, so it raises again
        with pytest.raises(DisconnectedError, match="connected"):
            distance_data(g)
    assert distance_data(Graph.from_edges(1, [])).diameter == 0


def test_one_bfs_per_graph(monkeypatch, tmp_path, capsys):
    # from_edges decides connectivity by the BFS and keeps its result in
    # the cached property g.distances: distance_data returns that object,
    # and analyze runs no second BFS
    from spexcess import graphs
    from spexcess.cli import main
    result, calls = graphs.DistanceData, []  # built once per BFS, at its end

    def counted(**fields):
        calls.append(len(fields["dist"]))
        return result(**fields)

    monkeypatch.setattr(graphs, "DistanceData", counted)
    g = load_graph(K23_EDGELIST)
    assert calls == [5]
    assert distance_data(g) is distance_data(g) is g.distances
    assert calls == [5]
    twin = Graph(g.n, g.edges, g.adjacency)  # built past from_edges: its own BFS
    assert distance_data(twin) is not distance_data(g)
    assert calls == [5, 5]
    for name in ("k23", "petersen", "c8_12"):
        graph, path = fx.named(name), tmp_path / f"{name}.el"
        path.write_bytes(fx.edgelist_bytes(graph))
        calls.clear()
        assert main(["analyze", str(path), "--witnesses"]) == 0
        assert calls == [graph.n]
    capsys.readouterr()


def test_loop_rejected():
    with pytest.raises(LoopOrMultiEdgeError):
        load_graph("0 0\n0 1")


def test_duplicate_edge_rejected():
    with pytest.raises(LoopOrMultiEdgeError):
        load_graph("0 1\n1 0")


@pytest.mark.parametrize("n, edges, error", [
    (4, [(0, 1, 2), (1, 2, 3)], "pairs"), (4, [(0, 1), (1, 2, 3)], "pairs"),
    (4, [0, 1, 1, 2, 2, 3], "pairs"), (3, [(0, 2.9), (0, 1)], "integers"),
    (3, np.array([[0.0, 1.0], [1.0, 2.0]]), "integers"),
    (3, [("0", "1"), ("1", "2")], "integers"), (2, [(0, None)], "integers"),
    (2, [(0, 1), (0, 2 ** 63)], "out of range"), (2, [(0, 1), (0, 2 ** 70)], "out of range"),
    (2, np.array([[0, 1], [0, 2 ** 63]], dtype=np.uint64), "out of range")])
def test_from_edges_reads_only_integer_pairs(n, edges, error):
    # reshaping to pairs read triples as a path and casting to int64 read
    # 2.9 as 2; an id past int64 stays out of range
    with pytest.raises(ParseError, match=error):
        Graph.from_edges(n, edges)


def test_comments_and_blank_lines():
    g = load_graph("# K2 plus commentary\n\n0 1\n")
    assert g.n == 2


def test_non_dense_ids_rejected():
    with pytest.raises(ParseError, match="dense"):
        load_graph("0 1\n1 3\n3 0")


def test_malformed_line_rejected():
    with pytest.raises(ParseError):
        load_graph("0 1 2")
    with pytest.raises(ParseError):
        load_graph("a b")
    with pytest.raises(ParseError):
        load_graph("")


@pytest.mark.parametrize("text", ["0 1\n1 2\n2 0_3\n3 0", "0 1\n1 2\n2 1_0"])
def test_digit_grouping_ids_rejected(text):
    # int() reads "0_3" as 3 and "1_0" as 10
    with pytest.raises(ParseError, match="line 3: non-integer vertex id"):
        load_graph(text)


@pytest.mark.parametrize("fmt, text", [("edgelist", "0 1\n1 \u00e9"), ("graph6", "B\u00e9"),
                                       ("graph6", "B\ud800")])
def test_non_ascii_text_is_a_parse_error(fmt, text):
    # a str fails as its UTF-8 bytes do
    for data in (text, text.encode("utf-8", errors="surrogatepass")):
        with pytest.raises(ParseError):
            load_graph(data, fmt=fmt)
    comment = "# caf\u00e9\n0 1"
    assert load_graph(comment).n == load_graph(comment.encode()).n == 2


def test_graph6_roundtrip_fixtures():
    for name, factory in fx.BUNDLED.items():
        g = factory()
        again = load_graph(graph6_bytes(g), fmt="graph6")
        assert again.edges == g.edges, name


def test_graph6_against_networkx():
    for name in ("petersen", "k23", "c6"):
        g = fx.named(name)
        ref_graph = nx.Graph()
        ref_graph.add_nodes_from(range(g.n))  # node order fixes the byte layout
        ref_graph.add_edges_from(g.edges)
        ref = nx.to_graph6_bytes(ref_graph, header=False).strip()
        assert graph6_bytes(g) == ref
        n, edges = parse_graph6(ref)
        assert n == g.n and tuple(sorted(edges)) == g.edges


def test_graph6_header_accepted():
    g = fx.petersen()
    data = b">>graph6<<" + graph6_bytes(g)
    assert load_graph(data, fmt="graph6").edges == g.edges


def test_graph6_bad_bytes():
    with pytest.raises(ParseError):
        parse_graph6(b"\x1f\x00")
    with pytest.raises(ParseError):
        parse_graph6(b"")


def test_graph6_one_graph_per_file():
    with pytest.raises(ParseError, match="one graph per file"):
        load_graph(b"A_\nBw\n", fmt="graph6")
    # surrounding blank lines and CRLF endings are still one graph
    assert load_graph(b">>graph6<<\r\nBw\r\n\n", fmt="graph6").edge_count == 3


def test_distance_data_k23():
    dd = distance_data(fx.k23())
    assert dd.diameter == 2
    assert all(dd.ecc == 2)


def test_distance_data_k2():
    dd = distance_data(fx.complete(2))
    assert dd.diameter == 1
    assert dd.dist.tolist() == [[0, 1], [1, 0]]


def test_distance_data_petersen():
    g = fx.petersen()
    dd = distance_data(g)
    assert dd.diameter == 2
    for u in range(10):
        assert np.count_nonzero(dd.dist[u] == 2) == 6


def test_distance_partition_invariants():
    for name in ("k23", "petersen", "p3", "c6", "c8_12"):
        g = fx.named(name)
        dd = distance_data(g)
        stack = sum(dd.dist == i for i in range(dd.diameter + 1))
        assert np.array_equal(stack, np.ones((g.n, g.n)))
        assert np.array_equal(dd.dist == 0, np.eye(g.n))
        assert np.array_equal(dd.dist == 1, g.adjacency)
        assert dd.diameter == dd.ecc.max()
        assert dd.diameter <= g.n - 1
        for u in range(g.n):
            # balls are increasing unions of spheres and end at V
            acc = set()
            for i in range(dd.diameter + 1):
                acc |= set(np.flatnonzero(dd.dist[u] == i).tolist())
                assert set(np.flatnonzero(dd.dist[u] <= i).tolist()) == acc
            assert len(np.flatnonzero(dd.dist[u] <= dd.ecc[u])) == g.n


def test_distances_match_networkx():
    rng = random.Random(11)
    graphs = []
    for _ in range(20):
        n = rng.randrange(4, 11)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.45]
        try:
            graphs.append(Graph.from_edges(n, edges))
        except Exception:
            continue
    # long diameters: one frontier product per level, up to D = 39
    graphs += [fx.path(40), fx.cycle(60)]
    tree_rng = random.Random(60)
    graphs += [corpus.random_tree(tree_rng, 60) for _ in range(10)]
    graphs += [g for _name, g in corpus.build_wide_corpus()]
    for g in graphs:
        dd = distance_data(g)
        ref = nx.Graph(list(g.edges))
        ref.add_nodes_from(range(g.n))
        lengths = dict(nx.all_pairs_shortest_path_length(ref))
        expected = np.array([[lengths[u][v] for v in range(g.n)] for u in range(g.n)])
        assert np.array_equal(dd.dist, expected)
        assert np.array_equal(dd.ecc, expected.max(axis=1))
        assert dd.diameter == expected.max()


def test_triangle_inequality_and_edges():
    g = fx.named("c8_12")
    dd = distance_data(g)
    n = g.n
    for u in range(n):
        for v in range(n):
            assert (dd.dist[u, v] == 1) == ((min(u, v), max(u, v)) in set(g.edges))
            for w in range(n):
                assert dd.dist[u, w] <= dd.dist[u, v] + dd.dist[v, w]


def test_eccentricity_invariant_under_relabeling():
    rng = random.Random(5)
    g = fx.named("k23")
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = corpus.relabel(g, perm)
    dd_g, dd_h = distance_data(g), distance_data(h)
    assert sorted(dd_g.ecc) == sorted(dd_h.ecc)
    assert dd_g.diameter == dd_h.diameter
    for u in range(g.n):
        assert dd_g.ecc[u] == dd_h.ecc[perm[u]]


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    edges = {(min(u, v), max(u, v))
             for u, v in ((i, rng.randrange(i)) for i in range(1, n))}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                edges.add((i, j))
    return Graph.from_edges(n, sorted(edges))


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_graph6_roundtrip_random(g):
    assert load_graph(graph6_bytes(g), fmt="graph6").edges == g.edges


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_edgelist_roundtrip_random(g):
    text = "\n".join(f"{u} {v}" for u, v in g.edges)
    assert load_graph(text).edges == g.edges
