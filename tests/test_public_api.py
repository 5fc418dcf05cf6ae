import dataclasses

import numpy as np

import spexcess
from spexcess import fixtures as fx


def test_every_exported_name_resolves():
    missing = [name for name in spexcess.__all__ if not hasattr(spexcess, name)]
    assert not missing
    assert len(set(spexcess.__all__)) == len(spexcess.__all__)


def test_public_surface_is_pinned():
    # a name added to or dropped from the package shows up here
    assert spexcess.__all__ == [
        "Classification",
        "ColumnReport",
        "DistanceData",
        "ExcessStats",
        "Graph",
        "GraphAnalysis",
        "LocalSpectra",
        "PolySequence",
        "Spectrum",
        "Tolerances",
        "WeightedMatrices",
        "analyze_graph",
        "check_chain",
        "check_distance_polynomial_sufficient",
        "check_harmonic_bound",
        "check_lee_weng",
        "check_local_bound",
        "check_local_spet",
        "check_partial_dr_inequality",
        "check_partial_dr_matrix",
        "classify_graph",
        "distance_data",
        "eigendecompose",
        "errors",
        "evaluate_at_matrix",
        "excess_stats",
        "graph6_bytes",
        "is_distance_polynomial",
        "load_graph",
        "local_spectra",
        "perron_weights",
        "predistance_polynomials",
        "read_graph_file",
        "run_all_checks",
        "weighted_matrices",
    ]


def test_spectrum_and_graph_fields_are_pinned():
    # one class layout: class i is the next mults[i] columns of vectors
    fields = [f.name for f in dataclasses.fields(spexcess.Spectrum)]
    assert fields == ["lambdas", "mults", "vectors"]
    assert [f.name for f in dataclasses.fields(spexcess.Graph)] == ["n", "edges", "adjacency"]


def test_per_vertex_fields_are_pinned():
    # per-vertex data is one array over the vertices, stored once
    fields = [f.name for f in dataclasses.fields(spexcess.LocalSpectra)]
    assert fields == ["mults", "du", "excess"]
    fields = [f.name for f in dataclasses.fields(spexcess.Classification)]
    assert fields == ["is_regular", "is_distance_regular", "intersection_array", "is_pdr",
                      "pdr_numbers", "pdr_violations", "partial_dr_level"]
    fields = [f.name for f in dataclasses.fields(spexcess.ExcessStats)]
    assert fields == ["ball_norms", "sphere_norms", "harmonic_means", "delta_star"]


def test_perron_weights_is_one_read_only_array():
    # one normalization, ||alpha||^2 = n, and no wrapper around it
    for g in (fx.k23(), fx.petersen()):
        alpha = spexcess.perron_weights(spexcess.eigendecompose(g), g.adjacency.sum(axis=1))
        assert type(alpha) is np.ndarray and alpha.shape == (g.n,)
        assert not alpha.flags.writeable


def test_column_report_fields_are_pinned():
    # every check returns one ColumnReport; a certificate's gaps go with its
    # report rows, or with none when reports share them
    assert spexcess.ColumnReport._fields == (
        "theorem_id", "label", "kind", "lhs", "rhs", "slack", "state", "verdict",
        "equality_holds", "params", "details", "certificate", "q_gaps", "tail_gap",
        "witness_fn")
    assert spexcess.theorems.Certificate._fields == ("name", "max_abs_diff", "tol", "rows")


def test_poly_sequence_fields_are_pinned():
    # one family of one measure: its weights and scale stay with the caller
    fields = [f.name for f in dataclasses.fields(spexcess.PolySequence)]
    assert fields == ["values", "rec_a", "rec_b", "rec_c"]
