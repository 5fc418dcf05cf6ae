"""JSON report assembly (schema version 2).

Numeric fields are serialized with Python's shortest round-trip float
representation (>= 15 significant digits).  Structure is stable: a test pins
the key layout of the K_{2,3} report.  Version 2 dropped the monomial
coefficients of the global family; its recurrence and ``pAtLambda0`` fix it.
"""

from __future__ import annotations

import json

import numpy as np

from .pipeline import GraphAnalysis
from .theorems import TheoremReport

SCHEMA_VERSION = 2


def _num(x):
    return float(x)


def _arr(a):
    return np.asarray(a, dtype=float).tolist()


def comparison_dict(c) -> dict:
    return {
        "label": c.label,
        "lhs": _num(c.lhs),
        "rhs": _num(c.rhs),
        "slack": _num(c.slack),
        "kind": c.kind,
        "state": c.state,
        "scalarEqual": c.scalar_equal,
    }


def certificate_dict(c) -> dict:
    return {
        "name": c.name,
        "maxAbsDiff": _num(c.max_abs_diff),
        "tolerance": _num(c.tol),
        "passes": c.passes,
    }


def theorem_report_dict(r: TheoremReport, include_witnesses: bool = False) -> dict:
    out = {
        "theoremId": r.theorem_id,
        "params": {k: (int(v) if isinstance(v, (int, np.integer)) else v)
                   for k, v in r.params.items()},
        "comparisons": [comparison_dict(c) for c in r.comparisons],
        "certificates": [certificate_dict(c) for c in r.certificates],
        "equalityHolds": r.equality_holds,
        "verdict": r.verdict,
        "details": _plain(r.details),
    }
    if include_witnesses and r.witnesses is not None:
        out["witnesses"] = {k: _arr(v) for k, v in r.witnesses.items()}
    return out


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def classification_dict(ga: GraphAnalysis) -> dict:
    cls = ga.classification
    pseudo = []
    for r in cls.pseudo_dr:
        entry = {"vertex": r.vertex, "isPseudoDistanceRegular": r.is_pdr}
        if r.numbers is not None:
            entry["pseudoIntersectionNumbers"] = {
                "c": _arr(r.numbers[0]),
                "a": _arr(r.numbers[1]),
                "b": _arr(r.numbers[2]),
            }
        if r.violation is not None:
            entry["violation"] = _plain(list(r.violation))
        pseudo.append(entry)
    return {
        "isRegular": cls.is_regular,
        "isDistanceRegular": cls.is_distance_regular,
        "intersectionArray": _plain(cls.intersection_array),
        "pseudoDistanceRegularVertices": list(cls.pseudo_dr_vertices),
        "pseudoDistanceRegular": pseudo,
        "partialDistanceRegularLevel": cls.partial_dr_level,
        "isDistancePolynomial": cls.is_distance_polynomial,
        "distancePolynomialResiduals": _arr(cls.distance_poly_residuals),
        "extremalVertices": list(cls.extremal_vertices),
    }


def analysis_report(ga: GraphAnalysis, reports: list[TheoremReport],
                    include_witnesses: bool = False) -> dict:
    degrees = ga.graph.adjacency.sum(axis=1)
    seq = ga.global_seq
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
            "grouping": _num(ga.tols.grouping),
            "presence": _num(ga.tols.presence),
            "equality": _num(ga.tols.equality),
        },
        "spectrum": {
            "lambdas": _arr(ga.spectrum.lambdas),
            "multiplicities": [int(m) for m in ga.spectrum.mults],
        },
        "perron": {
            "lambda0": _num(ga.lambda0),
            "alpha": _arr(ga.perron.alpha),
            "nu": _arr(ga.perron.nu),
        },
        "localSpectra": [
            {
                "vertex": ls.vertex,
                "eccentricity": ls.eccentricity,
                "du": ls.du,
                "isExtremal": ls.is_extremal,
                "localMultiplicities": _arr(ls.local_mults),
            }
            for ls in ga.local_spectra
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
            "spectralExcess": _num(ga.stats.spectral_excess),
            "nMinusHarmonicDMinus1": _num(ga.stats.n_minus_harmonic),
            "avgWeightedDegree": _arr(ga.stats.avg_weighted_degree),
        },
        "theorems": [theorem_report_dict(r, include_witnesses) for r in reports],
        "classification": classification_dict(ga),
    }


def collect_violations(reports: list[TheoremReport], tol: float = 1e-7) -> list[str]:
    """Inequality violations and oracle disagreements (internal errors)."""
    out = []
    for r in reports:
        out.extend(r.inequality_violations(tol))
        if r.details.get("oracle_agrees") is False:
            out.append(f"{r.theorem_id}: oracle disagreement: {r.verdict}")
    return out


def to_json(payload, pretty: bool = False) -> str:
    """Strict JSON: a NaN or infinity anywhere raises ValueError."""
    return json.dumps(payload, indent=2 if pretty else None, allow_nan=False)
