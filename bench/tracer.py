"""Spans around the public functions of each ``spexcess`` layer, from outside.

``Tracer.install`` replaces every module attribute that *is* one of the
listed functions with a timing wrapper -- in the defining module and in
every ``spexcess`` module that imported the name directly -- and
``Tracer.restore`` puts the originals back.  Listed names that no longer
exist are skipped and reported, so the tracer survives renames and
deletions in the program.

Spans carry a name, start, end, parent span and a trace id (the graph
name).  They are kept in memory; ``self_times`` gives each span's self time
(the span minus the time its child spans cover), and ``write_spans`` writes
them out at the end of the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time

import numpy as np

# layer (module) -> public functions whose spans are recorded
LAYERS = {
    "graphs": ("read_graph_file", "distance_data"),
    "spectral": ("eigendecompose", "jacobi_eigh", "perron_weights",
                 "idempotents", "local_spectra"),
    "poly": ("predistance_polynomials", "evaluate_at_matrix", "apply_to_vector"),
    "weighted": ("weighted_matrices", "excess_stats"),
    "classify": ("classify_graph", "is_distance_regular", "is_pseudo_dr_around",
                 "is_distance_polynomial", "partial_dr_level"),
    "theorems": ("check_local_bound", "check_local_spet", "check_lee_weng",
                 "check_harmonic_bound", "check_partial_dr_matrix",
                 "check_partial_dr_inequality", "check_chain",
                 "check_distance_polynomial_sufficient"),
    "report": ("analysis_report", "to_json"),
    "cli": ("main",),
    "pipeline": ("analyze_graph", "run_all_checks"),
}
# functions whose result size is counted (computed from array sizes)
COUNT_BYTES = ("graphs.distance_data", "spectral.idempotents",
               "weighted.weighted_matrices", "report.to_json")
# functions whose raises are counted
COUNT_FAILED = ("poly.predistance_polynomials",)

PACKAGE = "spexcess"


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def computed_bytes(obj, seen=None) -> int:
    """Bytes of the numpy arrays and strings reachable from ``obj``.

    Walks dataclass fields, tuples and lists; each array counts once.
    This is a size computed from shapes and dtypes, not a measurement.
    """
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(computed_bytes(getattr(obj, f.name), seen)
                   for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(computed_bytes(x, seen) for x in obj)
    return 0


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        # span: [name, trace_id, parent index or -1, start, end]
        self.spans: list[list] = []
        self.trace_id = ""
        self.failed: dict[str, int] = {}
        self.nbytes: dict[str, int] = {}
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_bytes = name in COUNT_BYTES
        count_failed = name in COUNT_FAILED
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, self.trace_id, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[4] = clock()
                if count_failed:
                    self.failed[name] = self.failed.get(name, 0) + 1
                raise
            finally:
                stack.pop()
            rec[4] = clock()
            if count_bytes:
                self.nbytes[name] = self.nbytes.get(name, 0) + computed_bytes(out)
            return out

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name in span_names():
            mod_name, fn_name = name.split(".")
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            original = getattr(mod, fn_name, None)
            if not callable(original):
                self.skipped.append(name)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def restore(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [end - start for _name, _tid, _parent, start, end in self.spans]
        for _name, _tid, parent, start, end in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def write_spans(self, path: str):
        """One JSON array per line: id, parent, name, trace id, start, end."""
        with open(path, "w") as fh:
            for i, (name, tid, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, tid, start, end]) + "\n")
