"""Reference checks on one ``spexcess analyze`` outcome.

A graph earns a verified verdict only when every check passes; otherwise
``failure_reason`` names the first one that did not.  Nothing here imports
``spexcess``: the expectations come from ``workloads.reference``.
"""

from __future__ import annotations

import json

from workloads import VALUE_TOL

INVARIANT_MARK = "invariant violated"


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in JSON output")


def strict_json(text: str):
    """``json.loads`` that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _first_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[0] if lines else ""


def failure_reason(rc, stdout: str, stderr: str, error: str | None, ref: dict) -> str | None:
    """None when the outcome is a verified verdict, else a one-line reason."""
    if error is not None:
        return f"uncaught {error}"
    if rc != 0:
        return f"exit {rc}: {_first_line(stderr)}"
    if INVARIANT_MARK in stderr:
        return f"exit 0 with '{INVARIANT_MARK}' on stderr"
    try:
        report = strict_json(stdout)
    except ValueError as exc:
        return f"bad JSON: {exc}"
    try:
        return _compare(report, ref)
    except (KeyError, TypeError, IndexError) as exc:
        return f"report lacks a field: {type(exc).__name__}: {exc}"


def _compare(report: dict, ref: dict) -> str | None:
    graph = report["graph"]
    for key in ("n", "edgeCount", "diameter"):
        if graph[key] != ref[key]:
            return f"graph.{key} = {graph[key]}, networkx says {ref[key]}"
    spectrum = report["spectrum"]
    if spectrum["multiplicities"] != ref["multiplicities"]:
        return (f"multiplicities {spectrum['multiplicities']} != eigvalsh "
                f"{ref['multiplicities']}")
    scale = max(1.0, abs(ref["lambdas"][0]))
    worst = max(abs(a - b) for a, b in zip(spectrum["lambdas"], ref["lambdas"]))
    if worst > VALUE_TOL * scale:
        return f"lambdas differ from eigvalsh by {worst:.3e} > {VALUE_TOL:g} * {scale:g}"
    cls = report["classification"]
    if graph["isRegular"] != ref["isRegular"] or cls["isRegular"] != ref["isRegular"]:
        return f"isRegular = {graph['isRegular']}, networkx says {ref['isRegular']}"
    if cls["isDistanceRegular"] != ref["isDistanceRegular"]:
        return (f"isDistanceRegular = {cls['isDistanceRegular']}, networkx says "
                f"{ref['isDistanceRegular']}")
    if ref["intersectionArray"] is not None:
        b, c = ref["intersectionArray"]
        got = cls["intersectionArray"]
        if got is None or got["b"] != b or got["c"] != c:
            return f"intersection array {got} != networkx {{b: {b}, c: {c}}}"
    return None
