"""End-to-end analysis pipeline: one record whose stages are built on
first read, ``classification`` holding every oracle verdict.

``analyze_graph`` pairs a graph with its equality tolerance and computes
nothing (eigenvalue classes and local supports take no tolerance:
``spectral``'s module note).  Each stage of ``GraphAnalysis`` is a cached
property whose body names the stages it reads, so a check pays only for
what its theorem reads, and a stage that raises does so at that read,
sparing the checks that never read it.  ``run_all_checks`` runs every
theorem at its admissible parameters, each as columns (over its vertices,
j, m, links or hypotheses) in one array pass; with
``report.analysis_report`` it reads every stage.  The one polynomial
family built is the global one; P31's local numbers are no stage, as its
check computes them at the rows it reports (``theorems``).
J* is one array (``jstar``); a check takes A*_i and S*_j as its masks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import classify, poly, spectral, theorems, weighted
from .graphs import DistanceData, Graph, distance_data


@dataclass(frozen=True)
class GraphAnalysis:
    """Everything derived from one graph, frozen: each stage and each matrix
    identity that checks share is built on first read and kept.  ``eq_tol``
    is the relative tolerance of every equality."""

    graph: Graph
    eq_tol: float

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def D(self) -> int:
        return self.dd.diameter

    @property
    def d(self) -> int:
        return self.spectrum.d

    @property
    def lambda0(self) -> float:
        return self.spectrum.lambda0

    @property
    def spectral_excess(self) -> float:
        """p_{>=D}(lambda_0) = n - q_{D-1}(lambda_0), n when D = 0."""
        return float(self.n - (self.global_seq.q_lambda0[self.D - 1] if self.D else 0.0))

    @functools.cached_property
    def dd(self) -> DistanceData:
        return distance_data(self.graph)

    @functools.cached_property
    def spectrum(self) -> spectral.Spectrum:
        return spectral.eigendecompose(self.graph)

    @functools.cached_property
    def alpha(self) -> np.ndarray:
        return spectral.perron_weights(self.spectrum, self.graph.adjacency.sum(axis=1))

    @functools.cached_property
    def local_spectra(self) -> spectral.LocalSpectra:
        return spectral.local_spectra(self.spectrum)

    @functools.cached_property
    def global_seq(self) -> poly.PolySequence:
        spec = self.spectrum
        return poly.predistance_polynomials(spec.lambdas, spec.mults / spec.n, spec.d)

    @functools.cached_property
    def jstar(self) -> np.ndarray:
        return weighted.weighted_matrices(self.alpha)

    @functools.cached_property
    def stats(self) -> weighted.ExcessStats:
        return weighted.excess_stats(self.dd, self.alpha)

    @functools.cached_property
    def classification(self) -> classify.Classification:
        return classify.classify_graph(self.dd, self.alpha, tol=self.eq_tol)

    @functools.cached_property
    def min_du(self) -> int:
        return int(self.local_spectra.du.min())

    @functools.cached_property
    def q_gaps(self) -> theorems.Certificate:
        """q_j(A) = S*_j for j = 0..min(D, d), one gap per j, read by T34-P36."""
        return theorems.q_gap_certificate(self)

    @functools.cached_property
    def tail_identity(self) -> tuple:
        """(p_{>=D}(A), A*_D, the certificate of their gap), shared by T33
        and T37's link (i)."""
        return theorems.tail_identity(self)


def analyze_graph(g: Graph, eq_tol: float = classify.DEFAULT_ORACLE_TOL) -> GraphAnalysis:
    """The analysis of ``g``, each stage built when it is first read."""
    return GraphAnalysis(g, eq_tol)


def run_all_checks(ga: GraphAnalysis) -> list:
    """Every theorem at every admissible parameter, in a deterministic order:
    P31, T32, T33, T34, P35, P36, T37, T38, each as one
    ``theorems.ColumnReport``: P31 and T32 over all vertices, T34 over j,
    P35 and P36 over m, T33 as one row, T37's two links and T38's two
    hypotheses as two rows."""
    reports = [theorems.check_local_bound(ga), theorems.check_local_spet(ga),
               theorems.check_lee_weng(ga), theorems.check_harmonic_bound(ga),
               theorems.check_partial_dr_matrix(ga), theorems.check_partial_dr_inequality(ga)]
    if ga.D >= 1:
        reports.append(theorems.check_chain(ga))
    if ga.D >= 2:
        reports.append(theorems.check_distance_polynomial_sufficient(ga))
    return reports
