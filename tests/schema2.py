"""Rebuild schema-2 ``spexcess analyze`` stdout from schema-3 or schema-4
stdout.

    from schema2 import to_v2
    text_v2 = to_v2(text_v3_or_v4)

Schema 3 holds the per-vertex blocks as columns (see ``spexcess.report``);
schema 2 held one object per vertex.  ``to_v2`` turns the columns back
into those objects, in schema 2's key order, and puts back the copies that
schema 3 prints once: T32's pseudo-intersection numbers and first
violation (from ``classification.pseudoDistanceRegular``), its
eccentricity (from ``localSpectra``), and T37's ``p_geqD_at_A`` and
``Astar_D`` witnesses (from T33).

Schema 4 also holds T34 (by j), P35 and P36 (by m) as columns beside P31
and T32, under ``theoremColumns``, with the q-gap vector printed once as
``qGaps``, and the pseudo-distance-regularity violations as columns.  A
schema-4 document is first taken back to schema 3 (``_v4_to_v3``): one
report object per row of each of the three families, with its
certificates read from ``qGaps``, P31's ``r_degree`` (a copy of ``j``),
the codes of schema 3 and the violation lists.

Floats pass through ``json`` unchanged, so the result is byte-identical to
what the schema-2 program printed.  Any text that is not a schema-3 or
schema-4 ``analyze`` document is returned as is.  ``tests/snapshot.py
compare`` converts with it before comparing.
"""

from __future__ import annotations

import json


def _split(flat: list, lengths: list) -> list:
    out, start = [], 0
    for n in lengths:
        out.append(flat[start:start + n])
        start += n
    return out


def _local_spectra(ls: dict) -> list:
    return [{"vertex": u, "eccentricity": e, "du": du, "isExtremal": x,
             "localMultiplicities": m}
            for u, (e, du, x, m) in enumerate(zip(
                ls["eccentricity"], ls["du"], ls["isExtremal"], ls["localMultiplicities"]))]


def _pseudo_dr(block: dict, ecc: list) -> tuple[list, list, list]:
    """Schema-2 entries, and per vertex the numbers (None) and violation
    (None) that T32 repeats."""
    flags = block["isPseudoDistanceRegular"]
    lengths = [e + 1 for e, flag in zip(ecc, flags) if flag]
    numbers = iter(zip(*(_split(block["pseudoIntersectionNumbers"][k], lengths)
                         for k in "cab")))
    violations = iter(block["violation"])
    entries, per_numbers, per_violation = [], [], []
    for u, flag in enumerate(flags):
        entry = {"vertex": u, "isPseudoDistanceRegular": flag}
        if flag:
            rows = list(next(numbers))
            entry["pseudoIntersectionNumbers"] = dict(zip("cab", rows))
            per_numbers.append(rows)
            per_violation.append(None)
        else:
            entry["violation"] = next(violations)
            per_numbers.append(None)
            per_violation.append(entry["violation"])
        entries.append(entry)
    return entries, per_numbers, per_violation


def _local_rows(theorem_id: str, block: dict, codes: list) -> list:
    """One schema-2 report object per row of a ``localTheorems`` block."""
    params, comp = block["params"], block["comparison"]
    cert = block.get("certificate")
    cert_at = {} if cert is None else dict(zip(cert["rows"], cert["maxAbsDiff"]))
    witnesses = block.get("witnesses")
    wit_at = {}
    if witnesses is not None:
        wit_at = {row: {k: v[i] for k, v in witnesses.items()}
                  for i, row in enumerate(cert["rows"])}
    rows = []
    for k in range(len(comp["lhs"])):
        row_params = {name: col[k] for name, col in params.items()}
        state = codes[comp["state"][k]]
        certificates = []
        if k in cert_at:
            gap = cert_at[k]
            certificates.append({"name": cert["name"], "maxAbsDiff": gap,
                                 "tolerance": cert["tolerance"],
                                 "passes": gap <= cert["tolerance"]})
        row = {
            "theoremId": theorem_id,
            "params": row_params,
            "comparisons": [{"label": comp["label"].format(**row_params),
                             "lhs": comp["lhs"][k], "rhs": comp["rhs"][k],
                             "slack": comp["slack"][k], "kind": comp["kind"],
                             "state": state, "scalarEqual": state == "equal"}],
            "certificates": certificates,
            "equalityHolds": block["equalityHolds"][k],
            "verdict": codes[block["verdict"][k]].format(vertex=row_params["vertex"]),
            "details": {name: col[k] for name, col in block["details"].items()},
        }
        if k in wit_at:
            row["witnesses"] = wit_at[k]
        rows.append(row)
    return rows


def _convert(doc: dict) -> dict:
    ls, cls = doc["localSpectra"], doc["classification"]
    ecc = ls["eccentricity"]
    entries, numbers, violations = _pseudo_dr(cls["pseudoDistanceRegular"], ecc)
    local = doc["localTheorems"]
    witnesses = "witnesses" in local["P31"]
    p31 = _local_rows("P31", local["P31"], local["codes"])
    t32 = _local_rows("T32", local["T32"], local["codes"])
    for u, row in enumerate(t32):
        row["details"]["eccentricity"] = ecc[u]
        if violations[u] is not None:
            row["details"]["oracle_violation"] = violations[u]
        if witnesses and numbers[u] is not None:
            row["witnesses"] = {"pseudo_intersection_numbers": numbers[u]}
    theorems = doc["theorems"]
    if witnesses:
        t33 = next(t for t in theorems if t["theoremId"] == "T33")["witnesses"]
        for t in theorems:
            if t["theoremId"] == "T37":
                t["witnesses"] = {"p_geqD_at_A": t33["p_geqD_at_A"],
                                  "Astar_D": t33["Astar_D"], **t["witnesses"]}
    out = {k: doc[k] for k in ("graph", "tolerances", "spectrum", "perron")}
    out = {"schemaVersion": 2, **out, "localSpectra": _local_spectra(ls),
           "polynomials": doc["polynomials"], "excess": doc["excess"],
           "theorems": p31 + t32 + theorems}
    out["classification"] = {k: entries if k == "pseudoDistanceRegular" else v
                             for k, v in cls.items()}
    return out


# schema 4 appended the codes of T34, P35 and P36 to schema 3's table
_V3_CODES = 16


def _row_text(template: str, row: dict) -> str:
    return template.format(**row, **({"m-1": row["m"] - 1} if "m" in row else {}))


def _family_rows(theorem_id: str, block: dict, codes: list, gaps: dict,
                 diameter: int) -> list:
    """One schema-3 report object per row of a T34, P35 or P36 block."""
    comp, details = block.get("comparison"), block["details"]
    witnesses = block.get("witnesses")
    if witnesses is not None:  # stacked over the rows with j < D
        q_at_a, sstar, eta = (iter(witnesses[k]) for k in ("q_j_at_A", "Sstar_j", "eta"))

    def certificate(j):
        gap = gaps["maxAbsDiff"][j]
        return {"name": gaps["name"].format(j=j), "maxAbsDiff": gap,
                "tolerance": gaps["tolerance"], "passes": gap <= gaps["tolerance"]}

    rows = []
    for k, index in enumerate(next(iter(block["params"].values()))):
        params = {name: col[k] for name, col in block["params"].items()}
        comparisons, state = [], None
        if comp is not None:
            state = codes[comp["state"][k]]
            comparisons.append({"label": _row_text(comp["label"], params),
                                "lhs": comp["lhs"][k], "rhs": comp["rhs"][k],
                                "slack": comp["slack"][k], "kind": comp["kind"],
                                "state": state, "scalarEqual": state == "equal"})
        if theorem_id == "T34":
            certificates = [certificate(index)] if index < diameter else []
        else:
            certificates = [certificate(index - 1), certificate(index)]
        row = {"theoremId": theorem_id, "params": params, "comparisons": comparisons,
               "certificates": certificates, "equalityHolds": block["equalityHolds"][k],
               "verdict": _row_text(codes[block["verdict"][k]], params),
               "details": {name: col[k] if isinstance(col, list) else col
                           for name, col in details.items()}}
        if witnesses is not None and theorem_id == "T34" and index < diameter:
            row["witnesses"] = {"q_j_at_A": next(q_at_a), "Sstar_j": next(sstar)}
            if state in ("equal", "ambiguous"):
                row["witnesses"]["eta"] = next(eta)
        rows.append(row)
    return rows


def _v4_to_v3(doc: dict) -> dict:
    columns = doc["theoremColumns"]
    codes, gaps, diameter = columns["codes"], columns.get("qGaps"), doc["graph"]["diameter"]
    p31 = dict(columns["P31"])
    p31["params"] = {**p31["params"], "r_degree": p31["params"]["j"]}
    t34, p35, p36 = (_family_rows(tid, columns[tid], codes, gaps, diameter)
                     for tid in ("T34", "P35", "P36"))
    p36_at = {row["params"]["m"]: row for row in p36}
    families = t34 + [r for p35_row in p35 for r in (p35_row, p36_at.get(p35_row["params"]["m"]))
                      if r is not None]
    t33, *rest = doc["theorems"]
    cls = dict(doc["classification"])
    block = cls["pseudoDistanceRegular"]
    violation = block["violation"]
    cls["pseudoDistanceRegular"] = {
        **block, "violation": [list(v) for v in zip(*(violation[k] for k in (
            "radius", "v", "w", "value_v", "value_w", "which")))]}
    out = {k: v for k, v in doc.items() if k not in ("theoremColumns", "theorems",
                                                    "classification")}
    out["schemaVersion"] = 3
    out["localTheorems"] = {"codes": codes[:_V3_CODES], "P31": p31, "T32": columns["T32"]}
    out["theorems"] = [t33] + families + rest
    out["classification"] = cls
    return out


def to_v2(stdout: str) -> str:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return stdout
    if not isinstance(doc, dict) or doc.get("schemaVersion") not in (3, 4) or "graph" not in doc:
        return stdout
    if doc["schemaVersion"] == 4:
        doc = _v4_to_v3(doc)
    return json.dumps(_convert(doc), allow_nan=False, check_circular=False) + "\n"
