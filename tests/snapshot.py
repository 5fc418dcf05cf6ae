"""Snapshots of ``spexcess analyze``, with and without ``--witnesses``, and
``spexcess check`` over a fixed set of inputs.

    python tests/snapshot.py write OUT.json
    python tests/snapshot.py compare A.json B.json

``write`` runs ``cli.main`` in-process and records each call's stdout,
stderr and exit code under its argv, joined by spaces.  It runs
``analyze PATH --witnesses`` on 512 inputs:

* the 13 bundled fixtures, each as ``.el`` and as ``.g6``;
* K1,3, P4, P5, C30, C32, C40, Q6, lollipop(6, 6) and er16 (the golden
  ``corpus.connected_er(random.Random(2), 16, 0.2)``, whose 16 vertices
  all have ecc(u) < d_u) as edge lists;
* the 108-graph property corpus and the 51-graph wide corpus
  (``tests/corpus.py``) as edge lists;
* seeds 1 and 2 of the three benchmark workloads, written by
  ``bench/workloads.build`` (imported, not modified).

It also runs plain ``analyze PATH`` on the 318 workload inputs, the call
that the benchmark times.  It then runs ``check`` for every theorem on the
13 fixtures' edge lists, P5, lollipop(6, 6) and er16, 2066 calls: each flag a
theorem requires at every value from -1 to n, and each flag it may take
also absent, as ``cli._CHECKS`` of the snapshotted checkout lists them.

Files are written under a temporary directory and passed by relative path,
so the records do not depend on where the run happens.  The ``spexcess``
that runs is the first one on ``sys.path``: set PYTHONPATH to another
checkout's ``src`` to snapshot that checkout.  Its directory is recorded.

``compare`` prints the ``spexcess`` directory of each side ("unknown" in
older files) and warns when they are the same: two snapshots of one
checkout always compare equal.  It compares each record as written
(stdout, stderr and exit code) and prints every call whose record
differs, the non-float fields that differ (exit code, stderr, strings,
integers, booleans, keys and list lengths) and the largest scaled gap
|a - b| / max(1, |a|, |b|) between two floats a and b at the same place:
relative for large values, absolute near 0, so rounding noise on a value
near 0 reads as noise.  It then prints, for every field path with list
indices dropped (``stdout.theoremColumns.T37.comparison.lhs``), the
largest scaled and the largest absolute gap between two floats there, over
all calls.  Last it prints each distinct non-float difference with list
indices dropped (``stdout.perron: keys ['nu']``) and the number of calls
that show it, so a schema change reads as one short list.  The counts of
differing records are given per command.  It exits 1 when any record
differs and 0 when all are identical.
"""

from __future__ import annotations

import collections
import contextlib
import importlib.util
import io
import itertools
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOAD_SEEDS = (1, 2)
MAX_FIELDS_SHOWN = 20
MAX_REPR = 160


def _workloads():
    path = os.path.join(HERE, os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _extras():
    import random

    import networkx as nx

    import corpus
    from spexcess import fixtures as fx
    from spexcess.graphs import Graph

    q6 = nx.convert_node_labels_to_integers(nx.hypercube_graph(6), ordering="sorted")
    return [("k13", fx.star(3)), ("p4", fx.path(4)), ("p5", fx.path(5)),
            ("c30", fx.cycle(30)), ("c32", fx.cycle(32)), ("c40", fx.cycle(40)),
            ("q6", Graph.from_edges(q6.number_of_nodes(), q6.edges())),
            ("lollipop6_6", corpus.lollipop(6, 6)),
            ("er16", corpus.connected_er(random.Random(2), 16, 0.2))]


def check_calls(path: str, n: int) -> list[list[str]]:
    """The argv of every ``check`` call on the graph at ``path`` with n
    vertices, from the flags that ``check`` of the snapshotted checkout
    requires and takes."""
    from spexcess.cli import _CHECKS

    calls = []
    for theorem, (required, optional, _check) in _CHECKS.items():
        choices = [[[f"--{flag}", str(x)] for x in range(-1, n + 1)] for flag in required]
        choices += [[[]] + [[f"--{flag}", str(x)] for x in range(-1, n + 1)]
                    for flag in optional]
        for flags in itertools.product(*choices):
            calls.append(["check", path, "--theorem", theorem] + sum(flags, []))
    return calls


def write_inputs() -> list[list[str]]:
    """Write every input below the current directory; return the argv of
    every call (module note)."""
    import corpus
    from spexcess import fixtures as fx
    from spexcess.graphs import read_graph_file

    paths = [os.path.join("fixtures", name) for name in fx.write_fixtures("fixtures")]
    for group, graphs in (("extra", _extras()), ("corpus", corpus.build_corpus()),
                          ("wide", corpus.build_wide_corpus())):
        os.makedirs(group, exist_ok=True)
        for name, g in graphs:
            path = os.path.join(group, name + ".el")
            with open(path, "wb") as fh:
                fh.write(fx.edgelist_bytes(g))
            paths.append(path)
    workloads, timed = _workloads(), []
    for workload in workloads.WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            entries = workloads.build(workload, seed, f"{workload}-{seed}")
            timed.extend(e["path"] for e in entries)
    calls = [["analyze", path, "--witnesses"] for path in paths + timed]
    calls += [["analyze", path] for path in timed]
    swept = ([os.path.join("fixtures", name + ".el") for name in sorted(fx.BUNDLED)]
             + [os.path.join("extra", name + ".el") for name in ("p5", "lollipop6_6", "er16")])
    for path in swept:
        calls += check_calls(path, read_graph_file(path).n)
    return calls


def run(argv: list[str]) -> dict:
    from spexcess import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def write(target: str) -> None:
    import spexcess

    target = os.path.abspath(target)
    records = {}
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for argv in write_inputs():
                records[" ".join(argv)] = run(argv)
        finally:
            os.chdir(start)
    with open(target, "w") as fh:
        json.dump({"spexcess": os.path.dirname(os.path.abspath(spexcess.__file__)),
                   "inputs": records}, fh)
    print(f"{len(records)} calls written to {target}")


def _diff(a, b, where: str, fields: list[tuple], gaps: dict, path: str) -> float:
    """Append the non-float differences to ``fields`` as (``where``,
    ``path``, what differs); return the largest scaled gap between floats
    found at the same place.  ``path`` is ``where`` without list indices;
    ``gaps`` maps each path to the largest scaled and absolute float gaps
    seen there."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b:
            return 0.0
        rel, gap = abs(a - b) / max(1.0, abs(a), abs(b)), abs(a - b)
        old_rel, old_abs = gaps.get(path, (0.0, 0.0))
        gaps[path] = (max(old_rel, rel), max(old_abs, gap))
        return rel
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            fields.append((where, path, f"keys {sorted(a.keys() ^ b.keys())}"))
        return max((_diff(a[k], b[k], f"{where}.{k}", fields, gaps, f"{path}.{k}")
                    for k in a.keys() & b.keys()), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            fields.append((where, path, f"length {len(a)} != {len(b)}"))
        return max((_diff(x, y, f"{where}[{i}]", fields, gaps, path)
                    for i, (x, y) in enumerate(zip(a, b))), default=0.0)
    if type(a) is not type(b) or a != b:
        fields.append((where, path, f"{_short(a)} != {_short(b)}"))
    return 0.0


def _short(value) -> str:
    """``repr(value)``, cut to ``MAX_REPR`` characters: a whole report on one
    side of a difference would hide the rest of the listing."""
    text = repr(value)
    return text if len(text) <= MAX_REPR else text[:MAX_REPR - 3] + "..."


def _parsed(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return stdout


def _load(path: str) -> tuple[str, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc.get("spexcess", "unknown"), doc["inputs"]


def compare(path_a: str, path_b: str) -> int:
    (source_a, a), (source_b, b) = _load(path_a), _load(path_b)
    print(f"{path_a}: spexcess from {source_a}")
    print(f"{path_b}: spexcess from {source_b}")
    if source_a == source_b != "unknown":
        print("warning: both snapshots ran the same spexcess, so they compare equal")
    differing, total = collections.Counter(), collections.Counter()
    largest, gaps, kinds = 0.0, {}, collections.Counter()
    for key in sorted(a.keys() | b.keys()):
        command = key.split(" ", 1)[0]
        total[command] += 1
        if key not in a or key not in b:
            differing[command] += 1
            print(f"{key}: only in {path_a if key in a else path_b}")
            continue
        ra, rb = a[key], b[key]
        if ra == rb:
            continue
        differing[command] += 1
        fields = []
        if ra["exit"] != rb["exit"]:
            fields.append(("exit", "exit", f"{ra['exit']} != {rb['exit']}"))
        if ra["stderr"] != rb["stderr"]:
            fields.append(("stderr", "stderr", f"{ra['stderr']!r} != {rb['stderr']!r}"))
        gap = _diff(_parsed(ra["stdout"]), _parsed(rb["stdout"]), "stdout", fields,
                    gaps, "stdout")
        largest = max(largest, gap)
        print(f"{key}: {len(fields)} non-float fields differ, "
              f"largest scaled float gap {gap:.3e}")
        for where, _path, what in fields[:MAX_FIELDS_SHOWN]:
            print(f"    {where}: {what}")
        if len(fields) > MAX_FIELDS_SHOWN:
            print(f"    ... {len(fields) - MAX_FIELDS_SHOWN} more")
        kinds.update({f"{path}: {what}" for _where, path, what in fields})
    print("; ".join(f"{command}: {differing[command]} of {count} calls differ"
                    for command, count in sorted(total.items()))
          + f"; largest scaled float gap {largest:.3e}")
    for path, (rel, gap) in sorted(gaps.items()):
        print(f"  {path}: largest scaled gap {rel:.3e}, absolute {gap:.3e}")
    if kinds:
        print(f"{len(kinds)} distinct non-float differences, list indices dropped:")
    ranked = sorted(kinds.items(), key=lambda item: (-item[1], item[0]))
    for kind, count in ranked[:MAX_FIELDS_SHOWN]:
        print(f"  {count} calls: {kind}")
    if len(ranked) > MAX_FIELDS_SHOWN:
        print(f"  ... {len(ranked) - MAX_FIELDS_SHOWN} more")
    return 1 if sum(differing.values()) else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "write":
        write(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
