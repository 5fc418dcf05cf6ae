"""End-to-end analysis pipeline: one bundle holding every derived object.

``analyze_graph`` runs the whole chain (distances -> spectrum -> Perron
weights -> local spectra -> polynomial families -> weighted matrices ->
excess statistics -> combinatorial classification) and
``run_all_checks`` evaluates every theorem at its admissible parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classify, poly, spectral, theorems, weighted
from .graphs import DistanceData, Graph, distance_data


@dataclass(frozen=True)
class Tolerances:
    """Numerical knobs, defaults as documented per module.

    ``presence`` is the most consequential: it decides membership of an
    eigenvalue in a local spectrum and therefore d_u and extremality.
    """

    grouping: float = spectral.DEFAULT_GROUPING_TOL
    presence: float = spectral.DEFAULT_PRESENCE_TOL
    equality: float = 1e-7


@dataclass(frozen=True)
class GraphAnalysis:
    """Everything derived from one graph, immutable and shareable."""

    graph: Graph
    tols: Tolerances
    dd: DistanceData
    spectrum: spectral.Spectrum
    perron: spectral.PerronWeights
    local_spectra: tuple[spectral.LocalSpectrum, ...]
    global_seq: poly.PolySequence
    local_seqs: tuple[poly.PolySequence, ...]
    wm: weighted.WeightedMatrices
    stats: weighted.ExcessStats
    classification: classify.Classification

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
    def min_du(self) -> int:
        return min(ls.du for ls in self.local_spectra)


def analyze_graph(g: Graph, tols: Tolerances | None = None) -> GraphAnalysis:
    tols = tols or Tolerances()
    dd = distance_data(g)
    spec = spectral.eigendecompose(g, grouping_tol=tols.grouping)
    pw = spectral.perron_weights(spec)
    locals_ = spectral.local_spectra(spec, dd, presence_tol=tols.presence)
    (gseq,) = poly.predistance_polynomials(spec.lambdas, [spec.mults / spec.n],
                                           [spec.d])
    lseqs = poly.predistance_polynomials(
        spec.lambdas, [ls.local_mults for ls in locals_],
        [ls.du for ls in locals_], alpha=pw.alpha)
    wm = weighted.weighted_matrices(dd, pw)
    stats = weighted.excess_stats(dd, pw, gseq)
    cls = classify.classify_graph(g, dd, pw, spec, gseq, locals_,
                                  tol=tols.equality)
    return GraphAnalysis(
        graph=g, tols=tols, dd=dd, spectrum=spec, perron=pw,
        local_spectra=locals_, global_seq=gseq, local_seqs=lseqs,
        wm=wm, stats=stats, classification=cls,
    )


def run_all_checks(ga: GraphAnalysis) -> list[theorems.TheoremReport]:
    """Every theorem at every admissible parameter, in a deterministic order."""
    reports = []
    for u in range(ga.n):
        reports.append(theorems.check_local_bound(ga, u))
    for u in range(ga.n):
        reports.append(theorems.check_local_spet(ga, u))
    reports.append(theorems.check_lee_weng(ga))
    for j in range(ga.min_du + 1):
        reports.append(theorems.check_harmonic_bound(ga, j))
    for m in range(1, min(ga.D, ga.d) + 1):
        reports.append(theorems.check_partial_dr_matrix(ga, m))
        if m <= ga.min_du:
            reports.append(theorems.check_partial_dr_inequality(ga, m))
    if ga.D >= 1:
        reports.append(theorems.check_chain(ga))
    if ga.D >= 2:
        reports.append(theorems.check_distance_polynomial_sufficient(ga))
    return reports
