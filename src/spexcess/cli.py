"""Command-line interface.

Commands:

* ``spexcess analyze PATH``  -- full pipeline, AnalysisReport JSON on stdout
* ``spexcess check PATH --theorem ID [--vertex U] [--j J] [--m M]``
                             -- one TheoremReport JSON (with witnesses)
* ``spexcess fixtures --out DIR`` -- write the bundled fixture graphs

Exit codes: 0 success, 2 input error, 3 numerical failure (a LAPACK
eigensolver failure, a Perron vector entry or a vertex's lambda_0 mass at or
below its threshold, or a singular spectral measure; the number of distinct
eigenvalues is no limit), 4 internal invariant violated (an inequality
violation, an oracle disagreement, or a NaN or infinity in the JSON output,
which is then not printed).  Tolerance flags (--group-tol, --presence-tol,
--eq-tol) are mirrored by the environment variables SPEXCESS_TOL_GROUP,
SPEXCESS_TOL_PRESENCE and SPEXCESS_TOL_EQ; a flag wins over its variable.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import fixtures, theorems
from .errors import (
    ConvergenceError,
    DegenerateMeasureError,
    DegreeError,
    DisconnectedError,
    HypothesisError,
    LoopOrMultiEdgeError,
    MissingParamError,
    NonPositiveEigenvectorError,
    ParseError,
    SpexcessError,
)
from .graphs import read_graph_file
from .pipeline import Tolerances, analyze_graph, run_all_checks
from .report import analysis_report, collect_violations, theorem_report_dict, to_json

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4

_INPUT_ERRORS = (ParseError, DisconnectedError, LoopOrMultiEdgeError,
                 MissingParamError, HypothesisError, DegreeError,
                 FileNotFoundError, IsADirectoryError, PermissionError)
_NUMERICAL_ERRORS = (ConvergenceError, NonPositiveEigenvectorError,
                     DegenerateMeasureError)

ENV_PREFIX = "SPEXCESS_TOL_"
_TOL_SPECS = (
    # (flag, env suffix, Tolerances field, help)
    ("--group-tol", "GROUP", "grouping", "eigenvalue grouping tolerance"),
    ("--presence-tol", "PRESENCE", "presence",
     "local-multiplicity presence threshold (sets d_u)"),
    ("--eq-tol", "EQ", "equality", "relative equality tolerance"),
)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("path", help="graph file")
    parser.add_argument("--format", choices=("auto", "edgelist", "graph6"),
                        default="auto", help="input format (default: by extension)")
    for flag, env, _field, text in _TOL_SPECS:
        parser.add_argument(flag, type=float, default=None,
                            help=f"{text} (env {ENV_PREFIX}{env})")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")


def _resolve_tolerances(args) -> Tolerances:
    values = {}
    for flag, env, field, _text in _TOL_SPECS:
        val = getattr(args, flag.lstrip("-").replace("-", "_"))
        if val is None:
            raw = os.environ.get(ENV_PREFIX + env)
            if raw is not None:
                try:
                    val = float(raw)
                except ValueError:
                    raise ParseError(f"bad value for {ENV_PREFIX}{env}: {raw!r}") from None
        if val is not None:
            if not 0.0 < val < 1.0:
                raise ParseError(f"tolerance {flag} must be in (0, 1), got {val}")
            values[field] = val
    return Tolerances(**values)


def _load(args):
    fmt = None if args.format == "auto" else args.format
    return read_graph_file(args.path, fmt=fmt)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spexcess",
        description="Spectral-excess analysis of finite connected graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run the full pipeline on one graph")
    _add_common(p_an)
    p_an.add_argument("--witnesses", action="store_true",
                      help="include witness matrices in theorem reports")

    p_ck = sub.add_parser("check", help="evaluate a single theorem")
    _add_common(p_ck)
    p_ck.add_argument("--theorem", required=True, choices=theorems.THEOREM_IDS)
    p_ck.add_argument("--vertex", type=int, default=None,
                      help="root vertex (P31, T32)")
    p_ck.add_argument("--j", type=int, default=None, help="radius j (T34; optional for P31)")
    p_ck.add_argument("--m", type=int, default=None, help="level m (P35, P36)")

    p_fx = sub.add_parser("fixtures", help="write the bundled fixture graphs")
    p_fx.add_argument("--out", required=True, help="target directory")
    return parser


def _dispatch_check(ga, args) -> theorems.TheoremReport:
    tid = args.theorem
    if tid in ("P31", "T32"):
        if args.vertex is None:
            raise MissingParamError(f"--theorem {tid} requires --vertex")
        if not 0 <= args.vertex < ga.n:
            raise ParseError(f"vertex {args.vertex} out of range 0..{ga.n - 1}")
    if tid == "P31":
        return theorems.check_local_bound(ga, args.vertex, j=args.j)
    if tid == "T32":
        return theorems.check_local_spet(ga, args.vertex)
    if tid == "T33":
        return theorems.check_lee_weng(ga)
    if tid == "T34":
        if args.j is None:
            raise MissingParamError("--theorem T34 requires --j")
        return theorems.check_harmonic_bound(ga, args.j)
    if tid in ("P35", "P36"):
        if args.m is None:
            raise MissingParamError(f"--theorem {tid} requires --m")
        if tid == "P35":
            return theorems.check_partial_dr_matrix(ga, args.m)
        return theorems.check_partial_dr_inequality(ga, args.m)
    if tid == "T37":
        return theorems.check_chain(ga)
    return theorems.check_distance_polynomial_sufficient(ga)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fixtures":
            written = fixtures.write_fixtures(args.out)
            print(to_json({"written": written, "directory": args.out}))
            return EXIT_OK
        tols = _resolve_tolerances(args)
        g = _load(args)
        ga = analyze_graph(g, tols)
        if args.command == "analyze":
            reports = run_all_checks(ga)
            payload = analysis_report(ga, reports,
                                      include_witnesses=args.witnesses)
        else:
            reports = [_dispatch_check(ga, args)]
            payload = theorem_report_dict(reports[0], include_witnesses=True)
        try:
            text = to_json(payload, pretty=args.pretty)
        except ValueError as exc:  # NaN or infinity in the payload
            print(f"invariant violated: {exc}", file=sys.stderr)
            return EXIT_INVARIANT
        print(text)
        violations = collect_violations(reports, tols.equality)
        if violations:
            for v in violations:
                print(f"invariant violated: {v}", file=sys.stderr)
            return EXIT_INVARIANT
        return EXIT_OK
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SpexcessError as exc:  # any stragglers count as input problems
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
