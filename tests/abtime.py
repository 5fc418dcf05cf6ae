"""Paired timing of two checkouts on one benchmark workload.

    python tests/abtime.py BASE_SRC CHANGE_SRC [--workload NAME] [--seed S] [--passes K]

Writes the workload's graph files with ``bench/workloads.build`` (imported,
not modified) into a temporary directory, then starts two long-lived
workers, one per checkout: each imports ``spexcess`` from its ``src``
directory, runs with BLAS on one thread and is pinned to the same CPU.
After one warm-up pass each, the workers take turns running whole passes
of ``cli.main(["analyze", PATH])`` over the files, K pairs (default 20)
in the order AB BA AB ..., so both sides see the same host speed.

Prints, for each side, the sum over graphs of each graph's fastest call
and the median pass time with its quartiles, then how many paired passes
the change won, in all and split by order: among the AB pairs (base ran
first) and among the BA pairs (change ran first).  A count that leans by
order shows up there, so run the base against itself beside every A/B run.
The last line applies the claim rule: the change must win at least nine
tenths of the pairs (a tie counts for neither side), and the gap between
the median passes must exceed the base's spread, the distance between its
quartiles; the gap is printed as a share of that spread.
Defaults: ``--workload wide-spectrum --seed 1``.  The script is not
collected by pytest.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _workloads():
    path = os.path.join(HERE, os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def worker(cpu: int) -> None:
    """Answer one line per request on stdin: the file list first (a JSON
    list), then ``pass`` for one timed pass (a JSON list of per-call
    seconds back) until ``quit``."""
    os.sched_setaffinity(0, {cpu})
    import spexcess
    from spexcess import cli
    reply = sys.stdout
    reply.write(json.dumps(os.path.abspath(spexcess.__file__)) + "\n")
    reply.flush()
    paths = json.loads(sys.stdin.readline())
    for line in sys.stdin:
        if line.strip() != "pass":
            break
        times = []
        for path in paths:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                cli.main(["analyze", path])
                times.append(time.perf_counter() - start)
        reply.write(json.dumps(times) + "\n")
        reply.flush()


class Side:
    def __init__(self, src: str, cpu: int):
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                   **{var: "1" for var in BLAS_VARS})
        self.proc = subprocess.Popen([sys.executable, __file__, "--worker", str(cpu)],
                                     env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.passes = []
        module = json.loads(self.proc.stdout.readline())
        if not module.startswith(os.path.abspath(src) + os.sep):
            self.proc.kill()
            raise SystemExit(f"spexcess imported from {module}, not from {src}")

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def run_pass(self) -> list[float]:
        self.send("pass")
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.send("quit")
            self.proc.wait(timeout=60)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        worker(int(argv[1]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", default="wide-spectrum")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=20)
    args = parser.parse_args(argv)
    cpu = sorted(os.sched_getaffinity(0))[-1]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [e["path"] for e in _workloads().build(args.workload, args.seed, tmp)]
        sides = [Side(args.base_src, cpu)]
        try:
            sides.append(Side(args.change_src, cpu))
            for side in sides:
                side.send(json.dumps(paths))
                side.run_pass()  # warm-up
            for i in range(args.passes):
                for side in sides[::1 if i % 2 == 0 else -1]:
                    side.passes.append(side.run_pass())
        finally:
            for side in sides:
                side.close()
    totals = []
    for label, side in zip(("base", "change"), sides):
        best = sum(min(calls) for calls in zip(*side.passes))
        per_pass = [sum(p) for p in side.passes]
        q1, median, q3 = statistics.quantiles(per_pass, n=4)
        totals.append((best, per_pass, median, q3 - q1))
        print(f"{label}: sum of per-graph minima {best * 1e3:.1f} ms, median pass "
              f"{median * 1e3:.1f} ms [q1 {q1 * 1e3:.1f}, q3 {q3 * 1e3:.1f}]")
    (base_best, base_passes, base_median, spread), (change_best, change_passes,
                                                    change_median, _) = totals
    wins = [c < b for b, c in zip(base_passes, change_passes)]
    ab, ba = wins[0::2], wins[1::2]
    print(f"{args.workload} seed {args.seed}, {len(paths)} graphs, CPU {cpu}: "
          f"{base_best / change_best:.3f}x by the sums of minima; change faster "
          f"in {sum(wins)} of {args.passes} paired passes ({sum(ab)} of {len(ab)} AB, "
          f"{sum(ba)} of {len(ba)} BA)")
    gap = base_median - change_median
    share = gap / spread if spread else float("nan")
    met = sum(wins) >= 0.9 * len(wins) and gap > spread
    print(f"median gap {gap * 1e3:.2f} ms = {share:.2f}x the base's quartile spread "
          f"{spread * 1e3:.2f} ms; claim rule (>= 9/10 pairs won and gap > spread) "
          f"{'met' if met else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
