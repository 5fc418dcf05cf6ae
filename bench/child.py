"""Benchmark child process: one fresh interpreter per run.

``python child.py setup`` imports spexcess and prints the monotonic clock
reading right after the import, so the parent can time start-up plus import.

``python child.py loop SPEC RESULT`` runs ``spexcess.cli.main(["analyze",
path])`` in-process over the graphs in SPEC, one at a time (a closed loop
with a single caller), in whole passes until SPEC's ``seconds`` have
elapsed and at least ``min_passes`` are done.  A timer signal times the
calibration kernel (calibrate.py) every ``CALIBRATE_EVERY_S``, also inside
calls, and each call's own time is scaled by the kernel times during and
around it.  It writes every distinct outcome, each call's raw and scaled
time and the peak RSS to RESULT.  With ``trace`` set, every other pass runs under the tracer, which
adds per-layer totals.
"""

import time

import spexcess

IMPORTED_AT = time.monotonic()

import bisect  # noqa: E402  (the import above is what gets timed)
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
from spexcess import cli  # noqa: E402

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402

CALIBRATE_EVERY_S = 0.1


class Calibration:
    """Kernel samples every ``CALIBRATE_EVERY_S``, taken by a timer signal.

    The samples also land inside long calls, between two bytecodes of the
    program, so a call's speed is judged from the whole of its time; their
    own time is taken out of the call's.  Use as a context manager around
    the timed loop.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel: list[float] = []
        self._busy = False

    def _sample(self, *_signal):
        if self._busy:  # a tick that lands inside a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        k = calibrate.kernel_s()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.kernel.append(k)
        self._busy = False

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scaled(self, start: float, end: float) -> float:
        """A call's own time on the reference host.

        Uses the samples inside the call and the nearest one on each side.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        inside = range(first, last)
        own = (end - start) - sum(self.ends[i] - self.starts[i] for i in inside)
        kernel = self.kernel[first - 1:last + 1]
        return calibrate.scaled(own, sum(kernel) / len(kernel))


def _call(path: str, seen: list) -> tuple[int, float, float]:
    """One CLI call; returns the index of its outcome in ``seen``, start and end."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["analyze", path])
    except (Exception, SystemExit) as exc:  # a crash is an outcome to report
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    outcome = (rc, out.getvalue(), err.getvalue(), error)
    for i, prev in enumerate(seen):
        if prev == outcome:
            return i, start, end
    seen.append(outcome)
    return len(seen) - 1, start, end


def _pass(graphs, outcomes, tracer=None) -> dict:
    """One pass over ``graphs``; with a tracer, also each call's span range."""
    keys, times, spans = [], [], []
    for i, (name, path) in enumerate(graphs):
        if tracer is not None:
            tracer.trace_id = name
            spans.append(len(tracer.spans))
        key, start, end = _call(path, outcomes[i])
        keys.append(key)
        times.append((start, end))
    if tracer is not None:
        spans.append(len(tracer.spans))
    return {"traced": tracer is not None, "keys": keys, "times": times, "span_bounds": spans}


def _passes(graphs, seconds, min_passes, outcomes) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(_pass(graphs, outcomes))
    return passes


def _traced_passes(graphs, seconds, min_passes, outcomes, tracer) -> list[dict]:
    """Untraced and traced passes in turn, so both see the same host speed."""
    passes = []
    start = time.perf_counter()
    while len(passes) < 2 * min_passes or time.perf_counter() - start < seconds:
        passes.append(_pass(graphs, outcomes))
        tracer.install()
        try:
            passes.append(_pass(graphs, outcomes, tracer))
        finally:
            tracer.restore()
    return passes


def _layer_totals(tracer, passes) -> dict:
    """Per span name: self seconds (scaled like their call) and call count."""
    self_s = tracer.self_times()
    totals = {name: {"self_s": 0.0, "calls": 0} for name in tracing.span_names()}
    for p in passes:
        if not p["traced"]:
            continue
        bounds = p["span_bounds"]
        for c, (raw, scaled) in enumerate(zip(p["call_s"], p["scaled_s"])):
            for s in range(bounds[c], bounds[c + 1]):
                name = tracer.spans[s][0]
                totals[name]["self_s"] += self_s[s] * scaled / raw
                totals[name]["calls"] += 1
    return totals


def loop(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    graphs = [(g["name"], g["path"]) for g in spec["graphs"]]
    outcomes = [[] for _ in graphs]
    # untimed warm-up call: lazy imports and first-call costs finish here
    _call(graphs[spec["warmup"]][1], [])
    tracer = tracing.Tracer() if spec["trace"] else None
    with Calibration() as cal:
        if tracer is None:
            passes = _passes(graphs, spec["seconds"], spec["min_passes"], outcomes)
        else:
            passes = _traced_passes(graphs, spec["seconds"], spec["min_passes"],
                                    outcomes, tracer)
    for p in passes:
        times = p.pop("times")
        p["call_s"] = [end - start for start, end in times]
        p["scaled_s"] = [cal.scaled(start, end) for start, end in times]
    result = {
        "module": spexcess.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "kernel_s": cal.kernel,
        "passes": passes,
        "outcomes": [
            [{"rc": rc, "stdout": out, "stderr": err, "error": error}
             for rc, out, err, error in seen]
            for seen in outcomes
        ],
    }
    if tracer is not None:
        tracer.write_spans(spec["spans_path"])
        result.update(layers=_layer_totals(tracer, passes), failed=tracer.failed,
                      nbytes=tracer.nbytes, skipped=tracer.skipped,
                      spans=len(tracer.spans))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        print(json.dumps({"imported_at": IMPORTED_AT, "module": spexcess.__file__}))
        return 0
    if argv[:1] == ["loop"] and len(argv) == 3:
        return loop(argv[1], argv[2])
    print("usage: child.py setup | child.py loop SPEC RESULT", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
