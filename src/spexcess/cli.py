"""Command-line interface.

Commands:

* ``spexcess analyze PATH``  -- full pipeline, AnalysisReport JSON on stdout
* ``spexcess check PATH --theorem ID [--vertex U] [--j J] [--m M]``
                             -- one theorem in the ``theoremColumns``
                             layout of ``analyze``, with witnesses: for
                             P31, T32 and T34-P36 the row of the
                             ``analyze`` pass, for T33, T37 and T38 all of
                             their rows
* ``spexcess fixtures --out DIR`` -- write the bundled fixture graphs

Exit codes: 0 success; 3 numerical failure in a stage that the command
reads, and ``check`` reads only its theorem's (a LAPACK eigensolver
failure, a gap lambda_0 - lambda_1, a Perron vector entry or a vertex's
lambda_0 mass at or below its floor, a singular spectral measure (classes
within their residuals or a broken-down recurrence, which a one-vertex
P31 check runs on that vertex's measure only) or primes at odds on
distance-polynomiality; d is unbounded); 2 any other ``SpexcessError`` (among
them a ``check`` flag that the theorem requires and lacks, or does not
take, rejected before the graph is read, and one out of range: ``--vertex``
before any stage, ``--j`` once d_u is known, and P35's and P36's ``--m``
against min(D, d) before P36 reads d_u), any OS error, also on writing
stdout: ``analyze ... | head -c 300`` ends "error: [Errno 32] Broken pipe",
and a ``MemoryError``, such as the n x n adjacency of a path too long for
the memory at hand (an allocation that succeeds lazily and is killed later
never reaches ``main``); 4 internal invariant violated (a row in state
violated, an oracle disagreement, or a NaN or infinity in the JSON output,
which is then not printed).  ``--eq-tol`` is the one tolerance, in (0, 1).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import classify, fixtures, theorems
from .errors import (
    ConvergenceError,
    DegenerateMeasureError,
    MissingParamError,
    NonPositiveEigenvectorError,
    ParseError,
    SpexcessError,
)
from .graphs import read_graph_file
from .pipeline import analyze_graph, run_all_checks
from .report import analysis_report, collect_violations, theorem_columns_dict, to_json

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4

_NUMERICAL_ERRORS = (ConvergenceError, NonPositiveEigenvectorError, DegenerateMeasureError)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("path", help="graph file")
    parser.add_argument("--format", choices=("auto", "edgelist", "graph6"),
                        default="auto", help="input format (default: by extension)")
    parser.add_argument("--eq-tol", type=float, default=classify.DEFAULT_ORACLE_TOL,
                        help="relative equality tolerance")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spexcess",
        description="Spectral-excess analysis of finite connected graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run the full pipeline on one graph")
    _add_common(p_an)
    p_an.add_argument("--witnesses", action="store_true",
                      help="also print the raw arrays behind the verdicts")

    p_ck = sub.add_parser("check", help="evaluate a single theorem")
    _add_common(p_ck)
    p_ck.add_argument("--theorem", required=True, choices=_CHECKS)
    p_ck.add_argument("--vertex", type=int, default=None,
                      help="root vertex (P31, T32)")
    p_ck.add_argument("--j", type=int, default=None, help="radius j (T34; optional for P31)")
    p_ck.add_argument("--m", type=int, default=None, help="level m (P35, P36)")

    p_fx = sub.add_parser("fixtures", help="write the bundled fixture graphs")
    p_fx.add_argument("--out", required=True, help="target directory")
    return parser


# theorem id -> (the flags it requires, the flags it may take, its check on (ga, args))
_CHECKS = {
    "P31": (("vertex",), ("j",), lambda ga, a: theorems.check_local_bound(ga, a.vertex, j=a.j)),
    "T32": (("vertex",), (), lambda ga, a: theorems.check_local_spet(ga, a.vertex)),
    "T33": ((), (), lambda ga, a: theorems.check_lee_weng(ga)),
    "T34": (("j",), (), lambda ga, a: theorems.check_harmonic_bound(ga, a.j)),
    "P35": (("m",), (), lambda ga, a: theorems.check_partial_dr_matrix(ga, a.m)),
    "P36": (("m",), (), lambda ga, a: theorems.check_partial_dr_inequality(ga, a.m)),
    "T37": ((), (), lambda ga, a: theorems.check_chain(ga)),
    "T38": ((), (), lambda ga, a: theorems.check_distance_polynomial_sufficient(ga)),
}


def _check_flags(args):
    """Reject a flag the theorem requires and lacks, then one it does not take."""
    required, optional, _check = _CHECKS[args.theorem]
    for flag in required:
        if getattr(args, flag) is None:
            raise MissingParamError(f"--theorem {args.theorem} requires --{flag}")
    for flag in ("vertex", "j", "m"):
        if flag not in required + optional and getattr(args, flag) is not None:
            raise MissingParamError(f"--theorem {args.theorem} takes no --{flag}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fixtures":
            written = fixtures.write_fixtures(args.out)
            print(to_json({"written": written, "directory": args.out}))
            return EXIT_OK
        if not 0.0 < args.eq_tol < 1.0:
            raise ParseError(f"tolerance --eq-tol must be in (0, 1), got {args.eq_tol}")
        if args.command == "check":
            _check_flags(args)
        g = read_graph_file(args.path, fmt=None if args.format == "auto" else args.format)
        ga = analyze_graph(g, eq_tol=args.eq_tol)
        if args.command == "analyze":
            reports = run_all_checks(ga)
            payload = analysis_report(ga, reports, include_witnesses=args.witnesses)
        else:
            reports = [_CHECKS[args.theorem][2](ga, args)]
            payload = theorem_columns_dict(reports, include_witnesses=True)
        try:
            text = to_json(payload, pretty=args.pretty)
        except ValueError as exc:  # NaN or infinity in the payload
            print(f"invariant violated: {exc}", file=sys.stderr)
            return EXIT_INVARIANT
        print(text)
        violations = collect_violations(reports)
        for v in violations:
            print(f"invariant violated: {v}", file=sys.stderr)
        return EXIT_INVARIANT if violations else EXIT_OK
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SpexcessError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
