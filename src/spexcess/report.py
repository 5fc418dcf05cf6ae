"""JSON report assembly (schema version 10).

Floats are printed in Python's shortest round-trip form.  A test pins the
key layout of the K_{2,3} report; the version stays 10 while it holds (7
dropped ``tolerances.presence`` and 8 ``tolerances.grouping``: local
supports and eigenvalue classes take no tolerance; 9
``classification.distancePolynomialResiduals``: the verdict is exact; 10
the margins, and two raw arrays only as witnesses).
Each value is printed once, and none that other keys give: the Perron
vector in one normalization (``perron.alpha``, ||alpha||^2 = n), u
extremal where ``localSpectra.eccentricity`` equals ``du``, the pseudo-
distance-regular vertices as flags.  ``graph.isRegular`` repeats
``classification.isRegular`` on purpose: the benchmark's verifier reads
both.  Per-vertex and per-index data are columns: ``localSpectra`` one list
per field (``presenceMargin`` the ``LocalSpectra.margins``, null for none),
and ``theoremColumns`` the ``codes`` that state and verdict columns index,
then the columns of each
``theorems.ColumnReport``: P31 and T32 by vertex, T33 as one row, T34 by
j, P35 and P36 by m, T37 by link and T38 by hypothesis (i = D, D - 1).  A
label or detail equal on every row is one value.  A ``certificate`` has one
gap per row in ``rows``: P31's scalar-equal rows, T37's link (ii).  Two
shared gaps are printed once, before the first report that reads them:
``tailGap``, max|p_{>=D}(A) - A*_D|, which T33 and T37's link (i) read, and
``qGaps``, max|q_j(A) - S*_j| for j = 0..min(D, d): T34 reads row j below
D (saturation decides the rest), P35 and P36 rows m - 1 and m.  Witnesses,
printed only with ``--witnesses``: P31 a vector pair per certified row;
T33 p_{>=D}(A) and A*_D; T34 its rows with j < D stacked, eta those whose
state is equal or ambiguous; T37 its weighted excess per vertex; T38 none;
``localSpectra.localMultiplicities``, every m_u(lambda_i); and the first
violation of each u not pseudo-distance-regular, as the columns of
``classification.pseudoDistanceRegular.violation``, which also has a flag
per vertex and the numbers at radii 0..ecc(u) of the flagged u concatenated.
P31's ``equalityHolds`` needs u extremal, so "bound attained" can come with
``equalityHolds`` false.  Values are JSON-ready as built.
"""

from __future__ import annotations

import json

import numpy as np

from .pipeline import GraphAnalysis
from .theorems import CODES, VIOLATED, ColumnReport

SCHEMA_VERSION = 10


def _arr(a):
    return np.asarray(a, dtype=float).tolist()


def _columns(d: dict) -> dict:
    return {k: np.asarray(v).tolist() for k, v in d.items()}


def _gaps(c) -> dict:
    return {"name": c.name, "tolerance": c.tol, "maxAbsDiff": np.asarray(c.max_abs_diff).tolist()}


def column_report_dict(r: ColumnReport, include_witnesses: bool = False) -> dict:
    """One family as columns (module note)."""
    out = {"params": _columns(r.params)}
    if r.label is not None:
        out["comparison"] = {"label": r.label, "kind": r.kind, "lhs": r.lhs.tolist(),
                             "rhs": r.rhs.tolist(), "slack": r.slack.tolist(),
                             "state": r.state.tolist()}
    out.update(equalityHolds=r.equality_holds.tolist(), verdict=r.verdict.tolist(),
               details=_columns(r.details))
    c = r.certificate
    if c is not None:
        out["certificate"] = {"name": c.name, "tolerance": c.tol, "rows": c.rows.tolist(),
                              "maxAbsDiff": c.max_abs_diff.tolist()}
    if include_witnesses and r.witness_fn is not None:
        out["witnesses"] = {k: _arr(v) for k, v in r.witness_fn().items()}
    return out


def theorem_columns_dict(reports, include_witnesses: bool = False) -> dict:
    """The code table, then each ``ColumnReport`` under its theorem id, each
    shared gap once before the first report that reads it."""
    out = {"codes": list(CODES)}
    for r in reports:
        for key, shared in (("tailGap", r.tail_gap), ("qGaps", r.q_gaps)):
            if shared is not None and key not in out:
                out[key] = _gaps(shared)
        out[r.theorem_id] = column_report_dict(r, include_witnesses)
    return out


def classification_dict(ga: GraphAnalysis, include_witnesses: bool = False) -> dict:
    cls = ga.classification
    radii = np.arange(ga.D + 1) <= ga.dd.ecc[:, None]
    numbers = cls.pdr_numbers.transpose(1, 0, 2)[:, radii & cls.is_pdr[:, None]]
    return {
        "isRegular": cls.is_regular,
        "isDistanceRegular": cls.is_distance_regular,
        "intersectionArray": cls.intersection_array,
        "pseudoDistanceRegular": {
            "isPseudoDistanceRegular": cls.is_pdr.tolist(),
            "pseudoIntersectionNumbers": dict(zip("cab", numbers.tolist())),
            **({"violation": _columns(cls.pdr_violations)} if include_witnesses else {}),
        },
        "partialDistanceRegularLevel": cls.partial_dr_level,
        "isDistancePolynomial": cls.is_distance_polynomial,
    }


def analysis_report(ga: GraphAnalysis, reports: list, include_witnesses: bool = False) -> dict:
    """The analyze report of ``ga`` and its checks (``run_all_checks``)."""
    seq, ls = ga.global_seq, ga.local_spectra
    return {
        "schemaVersion": SCHEMA_VERSION,
        "graph": {
            "n": ga.n,
            "edgeCount": ga.graph.edge_count,
            "diameter": ga.D,
            "distinctEigenvalues": ga.d + 1,
            "isRegular": ga.classification.is_regular,
            "degrees": ga.graph.adjacency.sum(axis=1).astype(int).tolist(),
        },
        "tolerances": {"equality": float(ga.eq_tol)},
        "spectrum": {"lambdas": _arr(ga.spectrum.lambdas),
                     "multiplicities": ga.spectrum.mults.tolist()},
        "perron": {"lambda0": float(ga.lambda0), "alpha": _arr(ga.alpha)},
        "localSpectra": {
            "eccentricity": ga.dd.ecc.tolist(), "du": ls.du.tolist(),
            "presenceMargin": dict(zip(("smallestKept", "largestDropped"), np.where(
                np.isfinite(ls.margins), ls.margins, None).tolist())),
            **({"localMultiplicities": ls.mults.tolist()} if include_witnesses else {}),
        },
        "polynomials": {
            "pAtLambda0": _arr(seq.p_lambda0),
            "qAtLambda0": _arr(seq.q_lambda0),
            "recurrence": {"a": _arr(seq.rec_a), "b": _arr(seq.rec_b), "c": _arr(seq.rec_c)},
        },
        "excess": {
            "deltaStar": _arr(ga.stats.delta_star),
            "harmonicMeans": _arr(ga.stats.harmonic_means),
            "spectralExcess": ga.spectral_excess,
            "nMinusHarmonicDMinus1": float(ga.stats.n_minus_harmonic),
        },
        "theoremColumns": theorem_columns_dict(reports, include_witnesses),
        "classification": classification_dict(ga, include_witnesses),
    }


def collect_violations(reports: list) -> list[str]:
    """The internal errors of each report: its rows in state violated (only an
    inequality's can be), then its rows whose ``details["oracle_agrees"]`` is false."""
    out = []
    for r in reports:
        if r.state is not None:  # P35 has no comparison
            out += [f"{r.theorem_id}: {r.label_text(i)}: lhs={float(r.lhs[i])!r} > "
                    f"rhs={float(r.rhs[i])!r}" for i in (r.state == VIOLATED).nonzero()[0]]
        if "oracle_agrees" in r.details:
            out += [f"{r.theorem_id}: oracle disagreement: {r.verdict_text(i)}"
                    for i in np.flatnonzero(np.logical_not(r.details["oracle_agrees"]))]
    return out


def to_json(payload, pretty: bool = False) -> str:
    """Strict JSON: a NaN or infinity anywhere raises ValueError.  The
    payload is built fresh from dicts and lists, so it cannot be circular
    and the encoder skips that check."""
    return json.dumps(payload, indent=2 if pretty else None, allow_nan=False,
                      check_circular=False)
