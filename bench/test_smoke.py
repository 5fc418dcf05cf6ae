"""Smoke test of the benchmark on a tiny input.

Run from the repository root: ``python3 -m pytest -q bench``
"""

import json
import math
import os

import pytest

import run
import tracer
from verify import failure_reason

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(trace):
    record, result = run.run_benchmark("small-corpus", seed=3, seconds=0.0,
                                       trace=trace, limit=3)
    metrics = result["metrics"]
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(metrics) == expected
    assert not [k for k, v in metrics.items() if math.isnan(v["value"])]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert [g["reason"] for g in record["graphs"]] == [None] * 3
    if trace:
        self_total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
        assert 0.0 < self_total <= metrics["trace.wall_s"]["value"]


def test_tracer_skips_missing_names_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(run.ROOT, "src"))
    from spexcess import graphs, pipeline

    original = graphs.distance_data
    monkeypatch.setitem(tracer.LAYERS, "graphs", ("distance_data", "no_such_function"))
    t = tracer.Tracer()
    t.install()
    try:
        assert pipeline.distance_data is graphs.distance_data is not original
    finally:
        t.restore()
    assert t.skipped == ["graphs.no_such_function"]
    assert pipeline.distance_data is original and graphs.distance_data is original


def test_reference_checks_reject_nan_and_wrong_counts():
    ref = {"n": 2, "edgeCount": 1, "diameter": 1}
    assert "non-finite" in failure_reason(0, '{"graph": NaN}', "", None, ref)
    wrong_n = json.dumps({"graph": {"n": 3, "edgeCount": 1, "diameter": 1}})
    assert failure_reason(0, wrong_n, "", None, ref).startswith("graph.n = 3")
    assert failure_reason(3, "", "numerical failure: x\n", None, ref).startswith("exit 3")
