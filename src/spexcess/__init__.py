"""Spectral-excess machinery for finite connected graphs.

Computes, for a connected graph, the spectrum (LAPACK eigendecomposition),
the local spectra of every vertex as arrays read from the eigenvectors, the
global predistance polynomial family (values on the distinct eigenvalues,
evaluated at A through the eigenvectors), the local families' values at
lambda_0 that the checks read, and Perron-weighted distance statistics,
which read no polynomial.  ``theorems`` evaluates the characterizations
connecting the two sides (pseudo-distance-regularity, partial distance-
regularity, the distance-polynomial property), cross-validated against
independent combinatorial oracles.  Per-vertex data is one array each.
"""

from . import errors
from .classify import (
    Classification,
    classify_graph,
    is_distance_polynomial,
)
from .graphs import (
    DistanceData,
    Graph,
    distance_data,
    graph6_bytes,
    load_graph,
    read_graph_file,
)
from .pipeline import GraphAnalysis, Tolerances, analyze_graph, run_all_checks
from .poly import PolySequence, evaluate_at_matrix, predistance_polynomials
from .spectral import (
    LocalSpectra,
    Spectrum,
    eigendecompose,
    local_spectra,
    perron_weights,
)
from .theorems import (
    ColumnReport,
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
