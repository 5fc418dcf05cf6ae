"""Time and memory of the pipeline on a few large graphs, one child each.

    PYTHONPATH=src python tests/scale.py [--repeat K] [NAME ...]

For every named graph (default: all of them) and each of K runs (default
1), a fresh child process builds the graph, times the analysis
(``analyze_graph``, which builds no stage, then ``run_all_checks``, which
builds each stage at its first read), the report (``analysis_report``,
which also builds any stage that no check read) and its encoding
(``to_json``, the bytes ``spexcess analyze`` prints without the final
newline) and reports its peak resident set size.  The child runs
with BLAS on one thread, pinned to one CPU, so runs compare across
machines with the same core speed.  Graphs:

* ``er200`` -- ER(200, 0.06) and ``er400`` -- ER(400, 0.03), each drawn by
  ``corpus.connected_er`` from ``random.Random(1)``;
* ``c500`` -- the cycle C500;
* ``q10`` -- the hypercube Q10.

Each run prints one line; with K > 1 a last line per graph gives the best
analysis time and the largest peak RSS.  The script is not collected by
pytest.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _hypercube(k: int):
    from spexcess.graphs import Graph
    n = 1 << k
    return Graph.from_edges(n, [(u, u ^ (1 << b)) for u in range(n)
                                for b in range(k) if u < u ^ (1 << b)])


def build(name: str):
    from spexcess import fixtures as fx
    if name == "c500":
        return fx.cycle(500)
    if name == "q10":
        return _hypercube(10)
    # only the ER graphs import corpus (and networkx with it), so the other
    # graphs' peak RSS measures the program alone
    import corpus
    n, p = {"er200": (200, 0.06), "er400": (400, 0.03)}[name]
    return corpus.connected_er(random.Random(1), n, p)


NAMES = ("er200", "er400", "c500", "q10")


def child(name: str) -> None:
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    sys.path.insert(0, HERE)
    from spexcess.pipeline import analyze_graph, run_all_checks
    from spexcess.report import analysis_report, to_json
    g = build(name)
    marks = [time.perf_counter()]
    ga = analyze_graph(g)
    reports = run_all_checks(ga)
    marks.append(time.perf_counter())
    payload = analysis_report(ga, reports)
    marks.append(time.perf_counter())
    text = to_json(payload)
    marks.append(time.perf_counter())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = dict(zip(("analysis_s", "report_s", "json_s"),
                     (b - a for a, b in zip(marks, marks[1:]))))
    print(json.dumps({"name": name, "n": g.n, "d": ga.d, "D": ga.D, **times,
                      "json_bytes": len(text.encode()), "peak_rss_mb": peak_mb}))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        child(argv[1])
        return 0
    repeat = 1
    if argv[:1] == ["--repeat"]:
        repeat, argv = int(argv[1]), argv[2:]
    names = argv or list(NAMES)
    unknown = sorted(set(names) - set(NAMES))
    if unknown:
        print(f"unknown graphs {unknown}; choose from {list(NAMES)}", file=sys.stderr)
        return 2
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    for name in names:
        runs = []
        for _ in range(repeat):
            out = subprocess.run([sys.executable, __file__, "--child", name],
                                 env=env, capture_output=True, text=True, check=True)
            run = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append(run)
            print(f"{name}: n={run['n']} d={run['d']} D={run['D']} "
                  f"analyze_graph + run_all_checks {run['analysis_s']:.3f} s, "
                  f"analysis_report {run['report_s']:.3f} s, "
                  f"to_json {run['json_s']:.3f} s ({run['json_bytes']} bytes), "
                  f"peak RSS {run['peak_rss_mb']:.0f} MB", flush=True)
        if repeat > 1:
            best = min(r["analysis_s"] for r in runs)
            peak = max(r["peak_rss_mb"] for r in runs)
            print(f"{name}: best of {repeat}: analyze_graph + run_all_checks {best:.3f} s, "
                  f"largest peak RSS {peak:.0f} MB", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
