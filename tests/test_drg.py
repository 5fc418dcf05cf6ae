"""Larger distance-regular graphs from networkx, end to end.

Each graph goes through ``analyze_graph`` and ``run_all_checks``; the
combinatorial oracle must find the intersection array networkx computes,
and no check may report a violation.
"""

import itertools
import random

import networkx as nx
import numpy as np
import pytest

from corpus import relabel
from spexcess.graphs import Graph
from spexcess.pipeline import analyze_graph, run_all_checks
from spexcess.report import collect_violations
from spexcess.theorems import CODES


def _johnson(n, k):
    subsets = [frozenset(s) for s in itertools.combinations(range(n), k)]
    return nx.Graph((i, j) for (i, s), (j, t) in itertools.combinations(enumerate(subsets), 2)
                    if len(s & t) == k - 1)


DRGS = {
    "heawood": nx.heawood_graph,
    "dodecahedron": nx.dodecahedral_graph,
    "desargues": nx.desargues_graph,
    "hoffman-singleton": nx.hoffman_singleton_graph,
    "kneser-7-2": lambda: nx.kneser_graph(7, 2),
    "paley-29": lambda: nx.Graph(nx.paley_graph(29).to_undirected()),
    "johnson-8-2": lambda: _johnson(8, 2),
    "q6": lambda: nx.hypercube_graph(6),
    "q8": lambda: nx.hypercube_graph(8),
}


def _graph(h):
    h = nx.convert_node_labels_to_integers(h, ordering="sorted")
    return Graph.from_edges(h.number_of_nodes(), h.edges())


@pytest.mark.parametrize("name", sorted(DRGS))
def test_networkx_drg(name):
    h = DRGS[name]()
    b, c = nx.intersection_array(h)
    ga = analyze_graph(_graph(h))
    reports = run_all_checks(ga)
    cls = ga.classification
    assert cls.is_distance_regular
    assert cls.intersection_array["b"] == list(b)
    assert cls.intersection_array["c"] == list(c)
    assert cls.is_distance_polynomial
    assert cls.partial_dr_level == ga.d == ga.D
    assert cls.is_pdr.all()
    assert not collect_violations(reports)


def _verdicts(ga, reports, original):
    """Every verdict, keyed and worded by the original vertex ids."""
    cls = ga.classification
    out = {
        "spectrum": (ga.spectrum.mults.tolist(), ga.spectrum.lambdas.round(8).tolist()),
        "classification": (cls.is_regular, cls.is_distance_regular,
                           cls.intersection_array, cls.partial_dr_level,
                           cls.is_distance_polynomial,
                           sorted(original[u] for u in np.flatnonzero(cls.is_pdr)),
                           sorted(original[u] for u in
                                  np.flatnonzero(ga.dd.ecc == ga.local_spectra.du))),
    }
    for r in reports:
        for k in range(len(r.verdict)):  # P31 and T32 by vertex, the rest by j, m or link
            params = tuple(sorted((name, original[col[k]] if name == "vertex" else col[k].item())
                                  for name, col in r.params.items()))
            out[(r.theorem_id, params)] = (bool(r.equality_holds[k]), CODES[r.verdict[k]])
    return out


def test_q6_relabelled_same_verdicts():
    g = _graph(nx.hypercube_graph(6))
    perm = list(range(g.n))
    random.Random(11).shuffle(perm)
    original = {new: old for old, new in enumerate(perm)}
    ga = analyze_graph(g)
    ga_perm = analyze_graph(relabel(g, perm))
    assert _verdicts(ga_perm, run_all_checks(ga_perm), original) == \
        _verdicts(ga, run_all_checks(ga), list(range(g.n)))
