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

The package binds its modules and ``__version__`` only: import each name
from its module (``from spexcess.pipeline import analyze_graph``).
"""

from . import classify, errors, graphs, pipeline, poly, spectral, theorems, weighted

__version__ = "0.1.0"
