"""Spectral-excess machinery for finite connected graphs.

Computes the spectrum (LAPACK eigendecomposition), local spectra read from
the eigenvectors, the global and local predistance polynomial families (kept
as their values on the distinct eigenvalues, built in one batched Lanczos
pass each, evaluated at A through the eigenvectors) and Perron-weighted
distance statistics of a connected graph, and evaluates the
inequality/equality characterizations connecting them
(pseudo-distance-regularity, partial distance-regularity, the
distance-polynomial property), cross-validated against independent
combinatorial oracles.
"""

from . import errors
from .classify import (
    Classification,
    classify_graph,
    is_distance_polynomial,
    is_distance_regular,
    is_pseudo_dr_around,
    partial_dr_level,
)
from .graphs import (
    DistanceData,
    Graph,
    degree_profile,
    distance_data,
    graph6_bytes,
    load_graph,
    read_graph_file,
)
from .pipeline import GraphAnalysis, Tolerances, analyze_graph, run_all_checks
from .poly import (
    PolySequence,
    evaluate_at_matrix,
    hoffman_polynomial,
    predistance_polynomials,
)
from .spectral import (
    LocalSpectrum,
    PerronWeights,
    Spectrum,
    eigendecompose,
    local_spectra,
    local_spectrum,
    perron_weights,
)
from .theorems import (
    TheoremReport,
    check_chain,
    check_distance_polynomial_sufficient,
    check_harmonic_bound,
    check_lee_weng,
    check_local_bound,
    check_local_spet,
    check_partial_dr_inequality,
    check_partial_dr_matrix,
)
from .weighted import ExcessStats, WeightedMatrices, excess_stats, weighted_matrices

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "DistanceData",
    "ExcessStats",
    "Graph",
    "GraphAnalysis",
    "LocalSpectrum",
    "PerronWeights",
    "PolySequence",
    "Spectrum",
    "TheoremReport",
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
    "degree_profile",
    "distance_data",
    "eigendecompose",
    "errors",
    "evaluate_at_matrix",
    "excess_stats",
    "graph6_bytes",
    "hoffman_polynomial",
    "is_distance_polynomial",
    "is_distance_regular",
    "is_pseudo_dr_around",
    "load_graph",
    "local_spectra",
    "local_spectrum",
    "partial_dr_level",
    "perron_weights",
    "predistance_polynomials",
    "read_graph_file",
    "run_all_checks",
    "weighted_matrices",
]
