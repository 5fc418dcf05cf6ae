"""Benchmark of ``spexcess analyze``, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload drg-ladder --seed 1 --seconds 15 --trace 0

The run builds the workload's graph files from the seed, times start-up
plus ``import spexcess`` in fresh interpreters, then runs the CLI over the
graphs in one fresh child process (see child.py) and checks every output
against networkx and ``np.linalg.eigvalsh`` (see verify.py).  BLAS runs on
one thread and the run is pinned to one CPU.  Times are scaled to a
reference host speed (see calibrate.py).

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The line before it
records the environment and the outcome for each graph.  Inputs, per-run
outputs and the span file go to ``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import networkx as nx

import calibrate
import tracer
import workloads
from verify import failure_reason

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

BLAS_THREADS = 1
SETUP_SAMPLES = 10
MIN_PASSES = 3
TRACE_MIN_PASSES = 2  # of each kind, untraced and traced, in a traced run
DEADLINE_S = 170.0
# exit codes that may end a run without an incorrect answer: 3 is the
# documented numerical refusal (today's d >= 17 breakdown)
REFUSAL_EXITS = (3,)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _check_module(module_file: str):
    if not os.path.abspath(module_file).startswith(os.path.join(ROOT, "src") + os.sep):
        raise BenchError(f"spexcess imported from {module_file}, not from {ROOT}/src")


def setup_sample(env: dict) -> float:
    """Scaled seconds from starting a child interpreter until ``import spexcess`` is done."""
    before = calibrate.kernel_s()
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, CHILD, "setup"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import spexcess failed:\n{proc.stderr.strip()}")
    info = json.loads(proc.stdout)
    _check_module(info["module"])
    kernel = (before + calibrate.kernel_s()) / 2.0
    return calibrate.scaled(info["imported_at"] - t0, kernel)


def run_child(spec: dict, workdir: str, timeout: float) -> dict:
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "child-result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run([sys.executable, CHILD, "loop", spec_path, result_path],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"the analysis loop did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"the analysis loop failed:\n{proc.stderr.strip()}")
    with open(result_path) as fh:
        result = json.load(fh)
    _check_module(result["module"])
    return result


def judge(entries: list[dict], outcomes: list[list[dict]]) -> list[list[str | None]]:
    """Failure reason (None = verified verdict) for every distinct outcome."""
    return [
        [failure_reason(o["rc"], o["stdout"], o["stderr"], o["error"], e["ref"]) for o in seen]
        for e, seen in zip(entries, outcomes)
    ]


def graph_records(entries, outcomes, reasons) -> list[dict]:
    records = []
    for e, seen, why in zip(entries, outcomes, reasons):
        first_bad = next((r for r in why if r is not None), None)
        records.append({
            "name": e["name"], "n": e["ref"]["n"], "d": e["ref"]["d"],
            "exit": [o["rc"] for o in seen] if len(seen) > 1 else seen[0]["rc"],
            "reason": first_bad,
        })
    return records


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def pass_seconds(passes: list[dict]) -> float:
    """Seconds for one pass: the sum over graphs of each graph's fastest scaled call.

    The fastest rather than the median: the kernel tracks the host's speed
    well for long numpy-heavy calls but over-corrects short ones.  From the
    call times of ten runs per workload (2-vCPU Xeon VM), the spread, IQR /
    median, was 1.4-4.3% this way and 2.3-6.6% with per-graph medians.
    """
    return sum(min(p["scaled_s"][i] for p in passes) for i in range(len(passes[0]["keys"])))


def verdicts_per_pass(passes: list[dict], verified: list[list[bool]]) -> float:
    return sum(verified[i][k] for p in passes for i, k in enumerate(p["keys"])) / len(passes)


def end_to_end(passes, verified, setup: list[float], maxrss_kb: int) -> dict:
    verdicts = verdicts_per_pass(passes, verified)
    return {
        "verdicts_per_s": _metric(verdicts / pass_seconds(passes), "1/s"),
        "verified_share": _metric(verdicts / len(passes[0]["keys"]), "share"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(maxrss_kb / 1024.0, "MB"),
    }


def per_layer(result: dict) -> dict:
    untraced = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    k = len(traced)
    metrics = {}
    for name, tot in result["layers"].items():
        metrics[f"{name}.self_s"] = _metric(tot["self_s"] / k, "s")
        metrics[f"{name}.calls"] = _metric(tot["calls"] / k, "count")
    for name in tracer.COUNT_FAILED:
        metrics[f"{name}.failed"] = _metric(result["failed"].get(name, 0) / k, "count")
    for name in tracer.COUNT_BYTES:
        metrics[f"{name}.bytes"] = _metric(result["nbytes"].get(name, 0) / k, "bytes_computed")
    base = pass_seconds(untraced)
    metrics["trace.wall_s"] = _metric(sum(sum(p["scaled_s"]) for p in traced) / k, "s")
    metrics["trace.untraced_s"] = _metric(base, "s")
    metrics["trace.overhead_share"] = _metric(pass_seconds(traced) / base - 1.0, "share")
    metrics["trace.spans"] = _metric(result["spans"] / k, "count")
    return metrics


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  limit: int | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (record, result).

    ``limit`` keeps only the first graphs of the workload (smoke test).
    Metrics are per pass over the workload's graphs.
    """
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "spexcess", "__init__.py")):
        raise BenchError(f"no spexcess sources under {ROOT}/src")
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    entries = workloads.build(workload, seed, os.path.join(workdir, "graphs"), limit)
    env = child_env()
    setup_sample(env)  # first import writes bytecode; not counted
    # half the set-up samples before the loop and half after it
    setup = [] if trace else [setup_sample(env) for _ in range(SETUP_SAMPLES // 2)]
    spec = {
        "graphs": [{"name": e["name"], "path": e["path"]} for e in entries],
        "warmup": min(range(len(entries)), key=lambda i: entries[i]["ref"]["n"]),
        "seconds": seconds,
        "min_passes": TRACE_MIN_PASSES if trace else MIN_PASSES,
        "trace": trace,
        "spans_path": os.path.join(workdir, "spans.jsonl"),
    }
    result = run_child(spec, workdir, DEADLINE_S - (time.monotonic() - started))
    if not trace:
        setup += [setup_sample(env) for _ in range(SETUP_SAMPLES - len(setup))]
    reasons = judge(entries, result["outcomes"])
    verified = [[r is None for r in why] for why in reasons]
    passes = result["passes"]
    attempted = sum(len(p["keys"]) for p in passes)
    failed = sum(not verified[i][k] for p in passes for i, k in enumerate(p["keys"]))
    correct = all(
        why is None or o["rc"] in REFUSAL_EXITS
        for seen, reasons_g in zip(result["outcomes"], reasons)
        for o, why in zip(seen, reasons_g)
    )
    untraced = [p for p in passes if not p["traced"]]
    metrics = per_layer(result) if trace else end_to_end(
        untraced, verified, setup, result["maxrss_kb"])
    record = {
        "env": {
            "python": result["python"], "numpy": result["numpy"],
            "networkx": nx.__version__, "machine": platform.machine(),
            "nproc": os.cpu_count(), "cpus": sorted(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "workload": workload, "seed": seed,
            "seconds": seconds, "trace": int(trace), "passes": len(passes),
            "kernel_s_median": statistics.median(result["kernel_s"]),
            "kernel_reference_s": calibrate.REFERENCE_S,
            "setup_samples_s": setup,
        },
        # unscaled: verified verdicts over the raw seconds of the untraced calls
        "raw_verdicts_per_s": verdicts_per_pass(untraced, verified) * len(untraced)
        / sum(sum(p["call_s"]) for p in untraced),
        "graphs": graph_records(entries, result["outcomes"], reasons),
        "tracer_skipped": result.get("skipped", []),
    }
    with open(os.path.join(workdir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record, {"correct": correct, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one CPU for this process and every child, so the calibration kernel
    # and the calls it scales run on the same CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        record, result = run_benchmark(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for g in record["graphs"]:
        if g["reason"] is not None:
            print(f"{g['name']} (n={g['n']}, d={g['d']}): {g['reason']}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
