"""End-to-end analysis pipeline: one bundle holding every derived object.

``analyze_graph`` runs the whole chain (distances -> spectrum -> Perron
weights -> local spectra -> polynomial family -> weighted matrices ->
excess statistics -> combinatorial classification) and
``run_all_checks`` evaluates every theorem at its admissible parameters,
each as columns (over its vertices, j, m, links or hypotheses) in one
array pass.

The pipeline builds one polynomial family, the global one, to degree d,
and no local family.  The spectral excess p_{>=D}(lambda_0) comes from it
(``GraphAnalysis.spectral_excess``), since the weighted statistics read no
polynomial.  Of vertex u, P31 reads one number, q^u_j(lambda_0)
at j = min(ecc_u, d_u): n at j = d_u (see ``poly``), and at j = ecc_u <
d_u the value from one batched Stieltjes pass over all such vertices
(``poly.top_q_lambda0``).  ``GraphAnalysis.local_q_lambda0`` keeps them.
T32's p^u_{d_u}(lambda_0) is ``LocalSpectra.excess``, in closed form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import classify, poly, spectral, theorems, weighted
from ._util import readonly as _readonly
from .graphs import DistanceData, Graph, distance_data


@dataclass(frozen=True)
class Tolerances:
    """Numerical knobs, defaults as documented per module.

    ``presence`` is the most consequential: it decides membership of an
    eigenvalue in a local spectrum and therefore d_u and extremality.
    """

    grouping: float = spectral.DEFAULT_GROUPING_TOL
    presence: float = spectral.DEFAULT_PRESENCE_TOL
    equality: float = classify.DEFAULT_ORACLE_TOL


@dataclass(frozen=True)
class GraphAnalysis:
    """Everything derived from one graph, shareable and frozen.  The matrix
    identities that checks share are built on first read and kept.

    ``local_q_lambda0[u]`` is q^u_j(lambda_0) at j = min(ecc_u, d_u): n
    where ecc_u >= d_u.
    """

    graph: Graph
    tols: Tolerances
    dd: DistanceData
    spectrum: spectral.Spectrum
    alpha: np.ndarray
    local_spectra: spectral.LocalSpectra
    global_seq: poly.PolySequence
    local_q_lambda0: np.ndarray
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
    def spectral_excess(self) -> float:
        """p_{>=D}(lambda_0) = n - q_{D-1}(lambda_0), n when D = 0."""
        return float(self.n - (self.global_seq.q_lambda0[self.D - 1] if self.D else 0.0))

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


def analyze_graph(g: Graph, tols: Tolerances | None = None) -> GraphAnalysis:
    tols = tols or Tolerances()
    dd = distance_data(g)
    spec = spectral.eigendecompose(g, grouping_tol=tols.grouping)
    alpha = spectral.perron_weights(spec, g.adjacency.sum(axis=1))
    locals_ = spectral.local_spectra(spec, presence_tol=tols.presence)
    gseq = poly.predistance_polynomials(spec.lambdas, spec.mults / spec.n, spec.d)
    short = (dd.ecc < locals_.du).nonzero()[0]
    local_q = np.full(g.n, float(g.n))
    if short.size:
        local_q[short] = poly.top_q_lambda0(spec.lambdas, locals_.mults[short],
                                            dd.ecc[short], alpha[short] ** 2)
    wm = weighted.weighted_matrices(dd, alpha)
    stats = weighted.excess_stats(dd, alpha)
    cls = classify.classify_graph(dd, alpha, spec, tol=tols.equality)
    return GraphAnalysis(
        graph=g, tols=tols, dd=dd, spectrum=spec, alpha=alpha,
        local_spectra=locals_, global_seq=gseq,
        local_q_lambda0=_readonly(local_q),
        wm=wm, stats=stats, classification=cls,
    )


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
