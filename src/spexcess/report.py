"""JSON report assembly (schema version 2).

Numeric fields are serialized with Python's shortest round-trip float
representation (>= 15 significant digits).  Structure is stable: a test pins
the key layout of the K_{2,3} report, and the version stays 2 while that
layout holds.  Version 2 dropped the monomial coefficients of the global
family; its recurrence and ``pAtLambda0`` fix it.  A T34 report with j >= D,
decided by the saturation rule of ``theorems``, carries no certificate and
no witnesses.  P31's ``equalityHolds`` means "the vector certificate passes
and u is extremal", so a non-extremal vertex can read "bound attained" with
``equalityHolds`` false.

The checks build every comparison and certificate number as a Python float
and every ``params`` and ``details`` value as a plain bool, int, float, str,
None, list, tuple or dict of those: they are JSON-ready by construction, and
``theorem_report_dict`` passes them through with no conversion.  Each
per-vertex array becomes a list with one ``tolist``.
"""

from __future__ import annotations

import json

import numpy as np

from .classify import DEFAULT_ORACLE_TOL
from .pipeline import GraphAnalysis
from .theorems import TheoremReport

SCHEMA_VERSION = 2


def _arr(a):
    return np.asarray(a, dtype=float).tolist()


def comparison_dict(c) -> dict:
    return {
        "label": c.label,
        "lhs": c.lhs,
        "rhs": c.rhs,
        "slack": c.slack,
        "kind": c.kind,
        "state": c.state,
        "scalarEqual": c.scalar_equal,
    }


def certificate_dict(c) -> dict:
    return {
        "name": c.name,
        "maxAbsDiff": c.max_abs_diff,
        "tolerance": c.tol,
        "passes": c.passes,
    }


def theorem_report_dict(r: TheoremReport, include_witnesses: bool = False) -> dict:
    out = {
        "theoremId": r.theorem_id,
        "params": r.params,
        "comparisons": [comparison_dict(c) for c in r.comparisons],
        "certificates": [certificate_dict(c) for c in r.certificates],
        "equalityHolds": r.equality_holds,
        "verdict": r.verdict,
        "details": r.details,
    }
    if include_witnesses and r.witnesses is not None:
        out["witnesses"] = {k: _arr(v) for k, v in r.witnesses.items()}
    return out


def classification_dict(ga: GraphAnalysis) -> dict:
    cls = ga.classification
    pseudo = []
    for u, (is_pdr, ecc, numbers) in enumerate(zip(
            cls.is_pdr.tolist(), ga.dd.ecc.tolist(), cls.pdr_numbers.tolist())):
        entry = {"vertex": u, "isPseudoDistanceRegular": is_pdr}
        if is_pdr:
            entry["pseudoIntersectionNumbers"] = {
                k: row[:ecc + 1] for k, row in zip("cab", numbers)}
        else:
            entry["violation"] = list(cls.pdr_violations[u])
        pseudo.append(entry)
    return {
        "isRegular": cls.is_regular,
        "isDistanceRegular": cls.is_distance_regular,
        "intersectionArray": cls.intersection_array,
        "pseudoDistanceRegularVertices": np.flatnonzero(cls.is_pdr).tolist(),
        "pseudoDistanceRegular": pseudo,
        "partialDistanceRegularLevel": cls.partial_dr_level,
        "isDistancePolynomial": cls.is_distance_polynomial,
        "distancePolynomialResiduals": _arr(cls.distance_poly_residuals),
        "extremalVertices": np.flatnonzero(ga.dd.ecc == ga.local_spectra.du).tolist(),
    }


def analysis_report(ga: GraphAnalysis, reports: list[TheoremReport],
                    include_witnesses: bool = False) -> dict:
    degrees = ga.graph.adjacency.sum(axis=1)
    seq, ls = ga.global_seq, ga.local_spectra
    return {
        "schemaVersion": SCHEMA_VERSION,
        "graph": {
            "n": ga.n,
            "edgeCount": ga.graph.edge_count,
            "diameter": ga.D,
            "distinctEigenvalues": ga.d + 1,
            "isRegular": ga.classification.is_regular,
            "degrees": [int(x) for x in degrees],
        },
        "tolerances": {
            "grouping": float(ga.tols.grouping),
            "presence": float(ga.tols.presence),
            "equality": float(ga.tols.equality),
        },
        "spectrum": {
            "lambdas": _arr(ga.spectrum.lambdas),
            "multiplicities": [int(m) for m in ga.spectrum.mults],
        },
        "perron": {
            "lambda0": float(ga.lambda0),
            "alpha": _arr(ga.perron.alpha),
            "nu": _arr(ga.perron.nu),
        },
        "localSpectra": [
            {"vertex": u, "eccentricity": ecc, "du": du, "isExtremal": ecc == du,
             "localMultiplicities": mults}
            for u, (ecc, du, mults) in enumerate(zip(
                ga.dd.ecc.tolist(), ls.du.tolist(), ls.mults.tolist()))
        ],
        "polynomials": {
            "pAtLambda0": _arr(seq.p_lambda0),
            "qAtLambda0": _arr(seq.q_lambda0),
            "recurrence": {
                "a": _arr(seq.rec_a),
                "b": _arr(seq.rec_b),
                "c": _arr(seq.rec_c),
            },
        },
        "excess": {
            "deltaStar": _arr(ga.stats.delta_star),
            "harmonicMeans": _arr(ga.stats.harmonic_means),
            "spectralExcess": ga.spectral_excess,
            "nMinusHarmonicDMinus1": float(ga.stats.n_minus_harmonic),
            "avgWeightedDegree": _arr(ga.stats.avg_weighted_degree),
        },
        "theorems": [theorem_report_dict(r, include_witnesses) for r in reports],
        "classification": classification_dict(ga),
    }


def collect_violations(reports: list[TheoremReport],
                       tol: float = DEFAULT_ORACLE_TOL) -> list[str]:
    """Inequality violations and oracle disagreements (internal errors)."""
    out = []
    for r in reports:
        out.extend(r.inequality_violations(tol))
        if r.details.get("oracle_agrees") is False:
            out.append(f"{r.theorem_id}: oracle disagreement: {r.verdict}")
    return out


def to_json(payload, pretty: bool = False) -> str:
    """Strict JSON: a NaN or infinity anywhere raises ValueError.  The
    payload is built fresh from dicts and lists, so it cannot be circular
    and the encoder skips that check."""
    return json.dumps(payload, indent=2 if pretty else None, allow_nan=False,
                      check_circular=False)
