import copy
import itertools
import json
import os
import re
import subprocess
import sys

import pytest

import corpus
from conftest import ALL_NAMES
from spexcess import fixtures as fx
from spexcess.cli import main
from spexcess.graphs import Graph, graph6_bytes
from spexcess.pipeline import analyze_graph
from spexcess.report import SCHEMA_VERSION, analysis_report


@pytest.fixture()
def k23_file(tmp_path):
    path = tmp_path / "k23.el"
    path.write_bytes(fx.edgelist_bytes(fx.k23()))
    return str(path)


@pytest.fixture()
def petersen_g6(tmp_path):
    path = tmp_path / "petersen.g6"
    path.write_bytes(graph6_bytes(fx.petersen()) + b"\n")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_k23(capsys, k23_file):
    code, out, err = _run(capsys, ["analyze", k23_file])
    assert code == 0
    report = json.loads(out)
    assert report["schemaVersion"] == 11
    assert report["graph"]["n"] == 5
    columns = report["theoremColumns"]
    assert columns["T33"]["comparison"]["rhs"][0] == pytest.approx(1.5, rel=1e-9)
    assert columns["T37"]["comparison"]["lhs"][0] == pytest.approx(25 / 17, rel=1e-9)
    assert report["excess"]["deltaStar"][-1] == pytest.approx(35 / 24, rel=1e-9)
    assert report["classification"]["isDistanceRegular"] is False


def _key_tree(obj):
    """Keys of a JSON document: a list of objects becomes one merged object."""
    if isinstance(obj, dict):
        return {k: _key_tree(v) for k, v in obj.items()}
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        merged = None
        for item in obj:
            merged = _merge(merged, _key_tree(item))
        return [merged]
    return None


def _merge(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        return {k: _merge(a.get(k), b.get(k)) for k in {**a, **b}}
    if isinstance(a, list) and isinstance(b, list):
        return [_merge(a[0], b[0])]
    return b if a is None else a


_COMPARISON = dict.fromkeys(("label", "kind", "lhs", "rhs", "slack", "state"))
_GAPS = dict.fromkeys(("name", "tolerance", "maxAbsDiff"))
_CERTIFICATE = dict.fromkeys(("name", "tolerance", "rows", "maxAbsDiff"))
_WITHOUT_PARAMS = {"params": {}, "comparison": _COMPARISON, "equalityHolds": None,
                   "verdict": None, "details": {}}

K23_LAYOUT = {
    "schemaVersion": None,
    "graph": dict.fromkeys(("n", "edgeCount", "diameter", "isRegular", "degrees")),
    "tolerances": {"equality": None},
    "spectrum": dict.fromkeys(("lambdas", "multiplicities")),
    "perron": {"alpha": None},
    "localSpectra": {"eccentricity": None, "du": None,
                     "presenceMargin": dict.fromkeys(("smallestKept", "largestDropped"))},
    "polynomials": {"pAtLambda0": None, "recurrence": dict.fromkeys("abc")},
    "excess": dict.fromkeys(("deltaStar", "harmonicMeans")),
    "theoremColumns": {
        "codes": None,
        "P31": {
            "params": dict.fromkeys(("vertex", "j")),
            "comparison": _COMPARISON,
            "equalityHolds": None,
            "verdict": None,
            "details": dict.fromkeys(("extremal", "ball_saturated")),
            "certificate": _CERTIFICATE,
        },
        "T32": {
            "params": {"vertex": None},
            "comparison": _COMPARISON,
            "equalityHolds": None,
            "verdict": None,
            "details": dict.fromkeys(("oracle_is_pdr", "oracle_agrees", "du",
                                      "eccentricity")),
        },
        "tailGap": _GAPS,
        "T33": _WITHOUT_PARAMS,
        "qGaps": _GAPS,
        "T34": {
            "params": {"j": None},
            "comparison": _COMPARISON,
            "equalityHolds": None,
            "verdict": None,
            "details": {},
        },
        "P35": {
            "params": {"m": None},
            "equalityHolds": None,
            "verdict": None,
            "details": dict.fromkeys(("oracle_partial_dr_level", "oracle_agrees")),
        },
        "P36": {
            "params": {"m": None},
            "comparison": _COMPARISON,
            "equalityHolds": None,
            "verdict": None,
            "details": dict.fromkeys(("regular", "oracle_agrees")),
        },
        "T37": {**_WITHOUT_PARAMS, "params": {"link": None}, "certificate": _CERTIFICATE},
        "T38": {**_WITHOUT_PARAMS, "params": dict.fromkeys("im"),
                "details": dict.fromkeys(("hypotheses_hold", "oracle_agrees"))},
    },
    "classification": {
        "isRegular": None,
        "isDistanceRegular": None,
        "intersectionArray": None,
        "pseudoDistanceRegular": {"isPseudoDistanceRegular": None,
                                  "pseudoIntersectionNumbers": dict.fromkeys("cab")},
        "partialDistanceRegularLevel": None,
        "isDistancePolynomial": None,
    },
}


def _with_witnesses(layout):
    """``layout`` with the keys that ``--witnesses`` adds to a K_{2,3} report."""
    out = copy.deepcopy(layout)
    out["localSpectra"]["localMultiplicities"] = None
    out["classification"]["pseudoDistanceRegular"]["violation"] = dict.fromkeys(
        ("radius", "v", "w", "value_v", "value_w", "which"))
    columns = out["theoremColumns"]
    for tid, names in (("P31", ("normalized_vector", "weighted_ball_unit")),
                       ("T33", ("Astar_D", "p_geqD_at_A")),
                       ("T34", ("q_j_at_A", "Sstar_j", "eta")),
                       ("T37", ("weighted_excess_per_vertex",))):
        columns[tid]["witnesses"] = dict.fromkeys(names)
    return out


def test_report_layout_k23(capsys, k23_file):
    code, out, _ = _run(capsys, ["analyze", k23_file])
    assert code == 0
    assert _key_tree(json.loads(out)) == K23_LAYOUT


def test_report_layout_k23_witnesses(capsys, k23_file):
    code, out, _ = _run(capsys, ["analyze", k23_file, "--witnesses"])
    assert code == 0
    assert _key_tree(json.loads(out)) == _with_witnesses(K23_LAYOUT)


def _without_witnesses(report):
    """``report`` less every key that ``--witnesses`` adds."""
    del report["localSpectra"]["localMultiplicities"]
    del report["classification"]["pseudoDistanceRegular"]["violation"]
    for block in report["theoremColumns"].values():
        if isinstance(block, dict):
            block.pop("witnesses", None)
    return report


def test_witnesses_flag_only_adds_keys(capsys, tmp_path):
    # the raw arrays are the only difference.  A margin is null exactly
    # where a vertex keeps (d_u = 0) or drops (d_u = d) no lambda_i past
    # lambda_0: K1 (graph6 "@") does neither
    (tmp_path / "k1.g6").write_bytes(b"@\n")
    paths = [tmp_path / "k1.g6"]
    for name, make in sorted(fx.BUNDLED.items()):
        paths.append(tmp_path / f"{name}.el")
        paths[-1].write_bytes(fx.edgelist_bytes(make()))
    for path in paths:
        code, out, _ = _run(capsys, ["analyze", str(path)])
        assert code == 0
        plain = json.loads(out)
        code, out, _ = _run(capsys, ["analyze", str(path), "--witnesses"])
        assert code == 0
        assert plain == _without_witnesses(json.loads(out)), path.name
        du, margin = plain["localSpectra"]["du"], plain["localSpectra"]["presenceMargin"]
        d = len(plain["spectrum"]["lambdas"]) - 1
        assert [x is None for x in margin["smallestKept"]] == [k == 0 for k in du], path.name
        assert [x is None for x in margin["largestDropped"]] == [k == d for k in du], path.name


@pytest.mark.parametrize("graphs", ["fixtures", "atlas", "analyzed", "wide"])
def test_values_not_printed_twice_are_given_by_others(request, graphs):
    # schema 11 prints none of five values that other keys give, and each
    # comes back bit for bit: d + 1 and lambda_0 from spectrum.lambdas,
    # q_j(lambda_0) as the running sum of pAtLambda0, the spectral excess
    # n - q_{D-1}(lambda_0) as T33's rhs and n - H*_{<=D-1} as T37's link
    # (i) lhs; K1 (D = 0) has excess n, middle term 0.0 and no T37
    if graphs == "fixtures":
        analyses, checks = request.getfixturevalue("analyses"), request.getfixturevalue("checks")
        entries = [(name, analyses(name), checks(name)) for name in ALL_NAMES]
        entries += corpus.analyze_corpus([("k1", Graph.from_edges(1, []))])
    else:
        entries = request.getfixturevalue(graphs)
    for name, ga, reports in entries:
        report = analysis_report(ga, reports)
        lambdas, columns = report["spectrum"]["lambdas"], report["theoremColumns"]
        assert len(lambdas) == ga.d + 1 and lambdas[0] == ga.spectrum.lambda0, name
        q = list(itertools.accumulate(report["polynomials"]["pAtLambda0"]))
        assert q == ga.global_seq.q_lambda0.tolist(), name
        n, D = ga.n, ga.D
        excess = n - q[D - 1] if D else n
        assert excess == ga.spectral_excess == columns["T33"]["comparison"]["rhs"][0], name
        middle = n - report["excess"]["harmonicMeans"][D - 1] if D else 0.0
        assert middle == ga.stats.n_minus_harmonic, name
        assert ("T37" in columns) == (D >= 1), name
        if D:
            assert columns["T37"]["comparison"]["lhs"][0] == middle, name


def test_analyze_petersen_graph6(capsys, petersen_g6):
    code, out, _ = _run(capsys, ["analyze", petersen_g6, "--format", "graph6"])
    assert code == 0
    report = json.loads(out)
    assert report["classification"]["isDistanceRegular"] is True
    assert report["classification"]["intersectionArray"]["b"] == [3, 2]
    assert report["classification"]["intersectionArray"]["c"] == [1, 1]


def test_analyze_format_by_extension(capsys, petersen_g6):
    code, out, _ = _run(capsys, ["analyze", petersen_g6])
    assert code == 0
    assert json.loads(out)["graph"]["n"] == 10


@pytest.mark.parametrize("name", ["k4.G6", "k4.Graph6", "k4.GRAPH6"])
def test_analyze_format_by_extension_any_case(capsys, tmp_path, name):
    # the graph6 extension is matched in any case, not read as an edge list
    path = tmp_path / name
    path.write_bytes(graph6_bytes(fx.complete(4)) + b"\n")
    code, out, err = _run(capsys, ["analyze", str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["graph"]["n"] == 4


def test_analyze_disconnected_exit2(capsys, tmp_path):
    path = tmp_path / "broken.el"
    path.write_text("0 1\n2 3\n")
    code, out, err = _run(capsys, ["analyze", str(path)])
    assert code == 2
    assert out == ""
    assert "graph must be connected" in err


def test_analyze_multi_graph_g6_exit2(capsys, tmp_path):
    # K2 then K3: the second graph must not be dropped without a verdict
    path = tmp_path / "two.g6"
    path.write_bytes(b"A_\nBw\n")
    code, out, err = _run(capsys, ["analyze", str(path)])
    assert code == 2
    assert out == ""
    assert "one graph per file" in err


def test_analyze_missing_file_exit2(capsys):
    code, _, err = _run(capsys, ["analyze", "/nonexistent/file.el"])
    assert code == 2
    assert err


def test_analyze_huge_vertex_id_exit2_short_message(capsys, tmp_path):
    # 16 bytes name vertex 5000000: the message counts the missing ids and
    # shows the first few instead of listing all of them
    path = tmp_path / "gap.el"
    path.write_bytes(b"0 1\n1 5000000\n")
    code, out, err = _run(capsys, ["analyze", str(path)])
    assert code == 2 and out == ""
    assert len(err) < 200
    assert "4999998 missing" in err and "[2, 3, 4, 5, 6]" in err


def test_fixtures_out_existing_file_exit2(capsys, tmp_path):
    target = tmp_path / "taken"
    target.write_bytes(b"")
    code, out, err = _run(capsys, ["fixtures", "--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_analyze_path_through_file_exit2(capsys, k23_file):
    code, out, err = _run(capsys, ["analyze", os.path.join(k23_file, "x.el")])
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_check_t37(capsys, k23_file):
    code, out, _ = _run(capsys, ["check", k23_file, "--theorem", "T37"])
    assert code == 0
    report = json.loads(out)
    assert list(report) == ["codes", "tailGap", "T37"]
    assert report["T37"]["params"] == {"link": ["i", "ii"]}
    links = report["T37"]["comparison"]
    assert links["slack"][0] == pytest.approx(1.5 - 25 / 17, rel=1e-9)
    assert links["slack"][1] == pytest.approx(25 / 17 - 35 / 24, rel=1e-9)
    assert [report["codes"][state] for state in links["state"]] == ["strict", "strict"]


def test_check_t33_with_witnesses(capsys, tmp_path):
    path = tmp_path / "petersen.el"
    path.write_bytes(fx.edgelist_bytes(fx.petersen()))
    code, out, _ = _run(capsys, ["check", str(path), "--theorem", "T33"])
    assert code == 0
    report = json.loads(out)
    assert list(report) == ["codes", "tailGap", "T33"]
    assert report["T33"]["equalityHolds"] == [True]
    assert "witnesses" in report["T33"]
    assert len(report["T33"]["witnesses"]["Astar_D"]) == 10


@pytest.mark.parametrize("j", [3, 4])
def test_check_p31_past_eccentricity(capsys, tmp_path, p31_passes, j):
    # C8(1,2) has ecc_u = 2 < d_u = 4: --j 3 hands P31's pass the one row
    # (vertex 0 at degree 3), --j 4 = d_u takes the closed form and no pass
    import numpy as np
    from corpus import full_local_families
    from spexcess.poly import apply_to_vector
    g = fx.named("c8_12")
    path = tmp_path / "c8_12.el"
    path.write_bytes(fx.edgelist_bytes(g))
    code, out, _ = _run(capsys, ["check", str(path), "--theorem", "P31",
                                 "--vertex", "0", "--j", str(j)])
    assert code == 0
    report = json.loads(out)
    ga = analyze_graph(g)
    assert (ga.dd.ecc[0], ga.local_spectra.du[0]) == (2, 4)
    r = full_local_families(ga)[0].q_values[j]
    if j == 4:
        assert p31_passes == []
    else:
        (((_nodes, weights, degrees, _scale), got),) = p31_passes
        assert np.array_equal(weights, ga.local_spectra.mults[[0]])
        assert degrees.tolist() == [3]
        assert got[0] == pytest.approx(r[0], rel=1e-12)
    norm = np.sqrt(ga.alpha[0] ** 2 * r[0])
    p31 = report["P31"]
    assert p31["params"]["j"] == [j]
    assert p31["comparison"]["lhs"][0] == pytest.approx(r[0] / norm, rel=1e-12)
    if j == 3:  # q^u_3(lambda_0) < n = ||rho_V||^2: strict
        assert report["codes"][p31["comparison"]["state"][0]] == "strict"
        return
    vec = apply_to_vector(r, ga.spectrum, np.eye(ga.n)[0]) / norm
    (got,) = np.array(p31["witnesses"]["normalized_vector"])
    assert np.abs(got - vec).max() <= 1e-12


def _row(block: dict, u: int) -> dict:
    """Row u of a ``theoremColumns`` block, as a one-row block."""
    def row_of(cols):
        return {k: v[u:u + 1] if isinstance(v, list) else v for k, v in cols.items()}
    out = {k: row_of(v) if isinstance(v, dict) else v[u:u + 1] for k, v in block.items()
           if k not in ("certificate", "witnesses")}
    if "certificate" in block:  # certificate and witness entries go by certified row
        cert = block["certificate"]
        k = slice(0, 0)
        if u in cert["rows"]:
            k = slice(cert["rows"].index(u), cert["rows"].index(u) + 1)
        out["certificate"] = {"name": cert["name"], "tolerance": cert["tolerance"],
                              "rows": [0] * (k.stop - k.start),
                              "maxAbsDiff": cert["maxAbsDiff"][k]}
        out["witnesses"] = {name: vecs[k] for name, vecs in block["witnesses"].items()}
    return out


def _t34_row(block: dict, k: int, diameter: int) -> dict:
    """Row k of T34's block, its witnesses stacked over the rows j < D and
    eta over those whose state is equal or ambiguous."""
    out = _row({key: v for key, v in block.items() if key != "witnesses"}, k)
    below = [i for i, j in enumerate(block["params"]["j"]) if j < diameter]
    near = [i for i in below if block["comparison"]["state"][i] in (0, 1)]
    out["witnesses"] = {
        name: [stack[rows.index(k)]] if k in rows else []
        for name, stack, rows in ((name, block["witnesses"][name], rows) for name, rows in (
            ("q_j_at_A", below), ("Sstar_j", below), ("eta", near)))}
    return out


@pytest.mark.parametrize("name", sorted(fx.BUNDLED))
def test_check_prints_row_of_analyze(capsys, tmp_path, name):
    # check --theorem P31|T32 --vertex u, T34 --j j and P35|P36 --m m print
    # exactly that row of the column blocks of analyze --witnesses (check
    # always carries witnesses), T34, P35 and P36 with the q-gap vector,
    # except T34 at j >= D, which the saturation rule decides without it;
    # T33, T37 and T38 print their whole block, T33 and T37 with the tail gap
    path = tmp_path / f"{name}.el"
    path.write_bytes(fx.edgelist_bytes(fx.named(name)))
    code, out, _ = _run(capsys, ["analyze", str(path), "--witnesses"])
    assert code == 0
    doc = json.loads(out)
    columns = doc["theoremColumns"]
    for u in range(doc["graph"]["n"]):
        for tid in ("P31", "T32"):
            code, out, _ = _run(capsys, ["check", str(path), "--theorem", tid,
                                         "--vertex", str(u)])
            assert code == 0
            assert json.loads(out) == {"codes": columns["codes"], tid: _row(columns[tid], u)}
    for tid, flag in (("T34", "j"), ("P35", "m"), ("P36", "m")):
        block = columns[tid]
        for k, index in enumerate(block["params"][flag]):
            code, out, _ = _run(capsys, ["check", str(path), "--theorem", tid,
                                         f"--{flag}", str(index)])
            assert code == 0
            diameter = doc["graph"]["diameter"]
            row = _t34_row(block, k, diameter) if tid == "T34" else _row(block, k)
            want = {"codes": columns["codes"], "qGaps": columns["qGaps"], tid: row}
            if tid == "T34" and index >= diameter:
                del want["qGaps"]
            assert json.loads(out) == want
    for tid in ("T33", "T37", "T38"):  # every row, in the same layout
        if tid not in columns:
            continue
        code, out, _ = _run(capsys, ["check", str(path), "--theorem", tid])
        assert code == 0
        want = {"codes": columns["codes"], "tailGap": columns["tailGap"], tid: columns[tid]}
        if tid == "T38":
            del want["tailGap"]
        assert json.loads(out) == want


def _golden_graph(name):
    import random
    if name == "tree30":  # D = 13; P31's local pass meets weights below 1e-24
        return corpus.random_tree(random.Random(1), 30)
    if name == "er16":  # nonregular, D = 5
        return corpus.connected_er(random.Random(2), 16, 0.2)
    return fx.path(5) if name == "p5" else fx.named(name)


@pytest.mark.parametrize("name", ["k23", "petersen", "p5", "c8_12", "tree30", "er16"])
def test_analyze_matches_golden(capsys, tmp_path, name):
    # tests/data/NAME.vN.json, N the schema version, is analyze --witnesses
    # stdout, byte for byte
    path = tmp_path / f"{name}.el"
    path.write_bytes(fx.edgelist_bytes(_golden_graph(name)))
    code, out, _ = _run(capsys, ["analyze", str(path), "--witnesses"])
    assert code == 0
    golden = os.path.join(os.path.dirname(__file__), "data", f"{name}.v{SCHEMA_VERSION}.json")
    with open(golden) as fh:
        assert out == fh.read()


def test_snapshot_compare_reads_raw_records(capsys, tmp_path, k23_file):
    # compare sees every byte of a record, here one codes entry that no
    # column of K2,3 points at, and lists each kind of difference once,
    # with the calls that show it, and counts the calls per command
    import snapshot
    record = snapshot.run(["analyze", k23_file, "--witnesses"])
    edited = dict(record, stdout=record["stdout"].replace('"violated"', '"edited"'))
    report = json.loads(record["stdout"])
    del report["perron"]["alpha"]
    dropped = dict(record, stdout=json.dumps(report))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    keys = [f"analyze {name} --witnesses" for name in ("k23.el", "k23.g6", "k32.el")]
    a.write_text(json.dumps({"inputs": dict.fromkeys(keys + ["check k23.el"], record)}))
    b.write_text(json.dumps({"inputs": dict(zip(keys + ["check k23.el"],
                                                (edited, dropped, dropped, record)))}))
    assert snapshot.compare(str(a), str(a)) == 0
    capsys.readouterr()
    assert snapshot.compare(str(a), str(b)) == 1
    out = capsys.readouterr().out
    assert "analyze: 3 of 3 calls differ; check: 0 of 1 calls differ;" in out
    assert out.endswith("2 distinct non-float differences, list indices dropped:\n"
                        "  2 calls: stdout.perron: keys ['alpha']\n"
                        "  1 calls: stdout.theoremColumns.codes: 'violated' != 'edited'\n")


def test_check_t34_missing_j(capsys, k23_file):
    code, _, err = _run(capsys, ["check", k23_file, "--theorem", "T34"])
    assert code == 2
    assert "--j" in err


def test_check_p31_missing_vertex(capsys, k23_file):
    code, _, err = _run(capsys, ["check", k23_file, "--theorem", "P31"])
    assert code == 2
    assert "--vertex" in err


@pytest.mark.parametrize("theorem, flags, bad", [
    ("T33", ["--j", "1"], "j"),
    ("T34", ["--j", "0", "--vertex", "0"], "vertex"),
    ("P35", ["--m", "1", "--vertex", "0"], "vertex"),
    ("T32", ["--vertex", "0", "--m", "1"], "m"),
    ("P31", ["--vertex", "0", "--j", "1", "--m", "1"], "m"),
    ("T37", ["--vertex", "0"], "vertex"),
])
def test_check_rejects_flag_theorem_does_not_take(capsys, k23_file, theorem, flags, bad):
    code, out, err = _run(capsys, ["check", k23_file, "--theorem", theorem, *flags])
    assert (code, out, err) == (2, "", f"error: --theorem {theorem} takes no --{bad}\n")


@pytest.mark.parametrize("theorem, flags, message", [
    ("T34", [], "requires --j"),
    ("P31", ["--j", "1"], "requires --vertex"),
    ("T33", ["--m", "1"], "takes no --m"),
])
def test_check_flags_rejected_before_graph_is_read(capsys, tmp_path, theorem, flags, message):
    missing = str(tmp_path / "no_such_file.el")
    code, out, err = _run(capsys, ["check", missing, "--theorem", theorem, *flags])
    assert (code, out, err) == (2, "", f"error: --theorem {theorem} {message}\n")


@pytest.mark.parametrize("theorem", ["P31", "T32"])
@pytest.mark.parametrize("vertex", ["-1", "5"])
def test_check_vertex_out_of_range(capsys, k23_file, theorem, vertex):
    code, _, err = _run(capsys, ["check", k23_file, "--theorem", theorem,
                                 "--vertex", vertex])
    assert code == 2
    assert err == f"error: vertex {vertex} out of range 0..4\n"


def test_check_hypothesis_violation_exit2(capsys, k23_file):
    code, _, err = _run(capsys, ["check", k23_file, "--theorem", "T34", "--j", "9"])
    assert code == 2
    assert "hypothesis" in err.lower()


def test_check_t32_every_vertex(capsys, k23_file):
    for u in range(5):
        code, out, _ = _run(capsys, ["check", k23_file, "--theorem", "T32",
                                     "--vertex", str(u)])
        assert code == 0
        report = json.loads(out)
        assert report["T32"]["details"]["oracle_agrees"] == [True]


def test_tolerance_flags(capsys, k23_file):
    code, out, _ = _run(capsys, ["analyze", k23_file, "--eq-tol", "1e-6"])
    assert code == 0
    assert json.loads(out)["tolerances"]["equality"] == 1e-6


def test_tolerance_variables_ignored(capsys, k23_file, monkeypatch):
    from spexcess.classify import DEFAULT_ORACLE_TOL

    monkeypatch.setenv("SPEXCESS_TOL_GROUP", "not a number")
    monkeypatch.setenv("SPEXCESS_TOL_PRESENCE", "0.5")
    monkeypatch.setenv("SPEXCESS_TOL_EQ", "1e-5")
    code, out, _ = _run(capsys, ["analyze", k23_file])
    assert code == 0
    assert json.loads(out)["tolerances"] == {"equality": DEFAULT_ORACLE_TOL}


def test_bad_tolerance_exit2(capsys, k23_file):
    code, _, err = _run(capsys, ["analyze", k23_file, "--eq-tol", "2.0"])
    assert code == 2


def test_pretty_output(capsys, k23_file):
    code, out, _ = _run(capsys, ["analyze", k23_file, "--pretty"])
    assert code == 0
    assert out.startswith("{\n")
    json.loads(out)


def test_fixtures_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["fixtures", "--out", str(out1)]) == 0
    assert main(["fixtures", "--out", str(out2)]) == 0
    capsys.readouterr()
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    assert "k23.el" in names and "petersen.g6" in names
    for name in names:
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, name
    assert len((out1 / "k23.el").read_text().strip().splitlines()) == 6
    # petersen edge list has 15 edges, all degrees 3
    lines = (out1 / "petersen.el").read_text().strip().splitlines()
    assert len(lines) == 15


def test_fixture_files_load_back(tmp_path, capsys):
    outdir = tmp_path / "fx"
    assert main(["fixtures", "--out", str(outdir)]) == 0
    capsys.readouterr()
    for name in sorted(fx.BUNDLED):
        code, out, _ = _run(capsys, ["analyze", str(outdir / f"{name}.g6")])
        assert code == 0, name
        el = json.loads(out)
        code, out, _ = _run(capsys, ["analyze", str(outdir / f"{name}.el")])
        assert code == 0, name
        assert json.loads(out)["graph"] == el["graph"], name


def test_stdout_is_single_json_document(capsys, k23_file):
    code, out, err = _run(capsys, ["analyze", k23_file])
    assert code == 0
    json.loads(out)  # parses as one document
    assert not err


def test_failed_allocation_exits_2(tmp_path):
    # P20000's 20000 x 20000 float adjacency needs 3.2 GB; under a 1 GB
    # address-space cap its allocation fails at once
    resource = pytest.importorskip("resource")
    path = tmp_path / "p20000.el"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(19999)))
    cap, hard = 1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY and hard < cap:
        pytest.skip("address space already capped below 1 GB")
    child = ("import resource, sys\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
             "from spexcess.cli import main\n"
             "sys.exit(main(['analyze', sys.argv[1]]))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", child, str(path)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stdout == "" and "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_eigensolver_failure_exit3(capsys, k23_file, monkeypatch):
    import numpy as np

    def fail(_a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code, out, err = _run(capsys, ["analyze", k23_file])
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


@pytest.mark.parametrize("flags, code", [
    ("T33", 0), ("T37", 0), ("T38", 0), ("P35 --m 1", 0),
    ("P31 --vertex 0", 3), ("T32 --vertex 0", 3),
    # T34 and P36 test their hypothesis against min_u d_u, a local stage
    ("T34 --j 1", 3), ("P36 --m 1", 3),
    ("P31 --vertex 12", 2),
])
def test_check_exits_at_the_stages_its_theorem_reads(capsys, tmp_path, flags, code):
    # lollipop(6, 6): vertex 11, at the end of the path, has lambda_0 mass
    # 1e-9, at the fixed floor, so the local spectra fail; the global checks
    # never read them, and an out-of-range vertex is an input error before
    # any stage
    path = tmp_path / "lollipop.el"
    path.write_bytes(fx.edgelist_bytes(corpus.lollipop(6, 6)))
    got, out, err = _run(capsys, ["check", str(path), "--theorem", *flags.split()])
    assert got == code, err
    if code == 3:  # "numerical failure" said once, by the CLI
        assert out == "" and re.fullmatch(r"numerical failure: vertex 11: lambda_0 mass "
                                          r"9\.995e-10 is at or below the 1e-09 floor\n", err)
    if code == 0:
        assert err == "" and flags.split()[0] in json.loads(out)


@pytest.mark.parametrize("m, L, code", [
    (5, 2, 0), (5, 6, 0), (6, 6, 0), (8, 4, 0), (10, 4, 0),
    (8, 8, 3), (10, 6, 3), (10, 10, 3), (12, 8, 3), (20, 4, 3), (20, 8, 3),
])
def test_barbell_lambda0_gap_floor(capsys, tmp_path, m, L, code):
    # lambda_0 - lambda_1 runs from 2.8e-2 at barbell(5, 2) to 6.0e-12 at
    # barbell(20, 8); the residual grouping keeps the two apart, and the gap
    # floor still refuses those at or below 1e-7 max(1, lambda_0), whose
    # alpha would come out mirror-asymmetric at the equality tolerance
    path = tmp_path / "barbell.el"
    path.write_bytes(fx.edgelist_bytes(corpus.barbell(m, L)))
    got, out, err = _run(capsys, ["analyze", str(path)])
    assert got == code, err
    if code == 3:
        assert out == "" and re.fullmatch(r"numerical failure: lambda_0 - lambda_1 = \S+ is at "
                                          r"or below the 1e-07 max\(1, lambda_0\) floor\n", err)
    else:
        assert err == "" and json.loads(out)["spectrum"]["multiplicities"][0] == 1


@pytest.mark.parametrize("theorem", ["T32", "P31"])
@pytest.mark.parametrize("name", ["petersen", "c8_12", "k5"])
def test_wrong_grouping_exits_3(capsys, tmp_path, monkeypatch, name, theorem):
    # an eigensolver that splits the last multiple eigenvalue into two
    # classes puts them within their residuals: a numerical failure, not
    # T32's oracle disagreement (exit 4) or P31 on a false d_u (exit 0)
    import numpy as np

    from spexcess import spectral

    real = spectral.eigendecompose

    def split(g):
        spec = real(g)
        i = int(np.flatnonzero(spec.mults > 1)[-1])
        mults = np.insert(spec.mults, i + 1, 1)
        mults[i] -= 1
        return spectral.Spectrum(np.insert(spec.lambdas, i + 1, spec.lambdas[i]), mults,
                                 spec.vectors, spec.residuals)

    monkeypatch.setattr(spectral, "eigendecompose", split)
    path = tmp_path / f"{name}.el"
    path.write_bytes(fx.edgelist_bytes(fx.named(name)))
    code, out, err = _run(capsys, ["check", str(path), "--theorem", theorem, "--vertex", "0"])
    assert code == 3 and out == "", err
    assert err.startswith("numerical failure: ") and err.endswith("wrongly grouped\n"), err


def test_disagreeing_primes_exit_3(capsys, tmp_path, monkeypatch):
    # C5 x C5 is regular at level 1 of D = 4, so the modular test decides
    # it: distance-polynomial modulo 1048573, but one A_i needs a
    # denominator 2, so modulo 2 it reads not, for every random draw
    import networkx as nx

    from spexcess import classify

    monkeypatch.setattr(classify, "_PRIMES", (1048573, 2))
    g = corpus.from_networkx(nx.cartesian_product(nx.cycle_graph(5), nx.cycle_graph(5)))
    path = tmp_path / "c5xc5.el"
    path.write_bytes(fx.edgelist_bytes(g))
    code, out, err = _run(capsys, ["analyze", str(path)])
    assert (code, out) == (3, "")
    assert err == ("numerical failure: the distance-polynomial test reads [True, False] "
                   "mod (1048573, 2)\n")


def test_p35_and_p36_refuse_an_m_out_of_range_alike(capsys, tmp_path):
    # both test 1 <= m <= min(D, d) before P36 reads min_u d_u, a local
    # stage that fails on lollipop(6, 6)
    graphs = {name: make() for name, make in fx.BUNDLED.items()}
    graphs["lollipop6_6"] = corpus.lollipop(6, 6)
    for name, g in graphs.items():
        path = tmp_path / f"{name}.el"
        path.write_bytes(fx.edgelist_bytes(g))
        ga = analyze_graph(g)
        for m in (-1, 0, min(ga.D, ga.d) + 1):
            p35, p36 = (_run(capsys, ["check", str(path), "--theorem", theorem, "--m", str(m)])
                        for theorem in ("P35", "P36"))
            assert p35[0] == 2 and "violates the hypothesis 1 <= m" in p35[2], (name, m)
            assert p36 == p35, (name, m)


def test_nan_in_payload_exit4(capsys, k23_file, monkeypatch):
    import spexcess.cli as cli

    real = cli.analysis_report

    def with_nan(*args, **kwargs):
        payload = real(*args, **kwargs)
        payload["excess"]["deltaStar"][0] = float("nan")
        return payload

    monkeypatch.setattr(cli, "analysis_report", with_nan)
    code, out, err = _run(capsys, ["analyze", k23_file])
    assert code == 4
    assert out == ""
    assert err.startswith("invariant violated:")


def test_eigen_tolerance_knob_removed(capsys, k23_file, monkeypatch):
    # neither the eigen tolerance, the presence threshold nor the grouping
    # tolerance is an input: classes and local supports come from residuals
    monkeypatch.setenv("SPEXCESS_TOL_EIGEN", "not a number")  # ignored
    code, out, _ = _run(capsys, ["analyze", k23_file])
    assert code == 0
    assert set(json.loads(out)["tolerances"]) == {"equality"}
    for knob in (["--tol", "1e-12"], ["--presence-tol", "1e-9"], ["--group-tol", "1e-7"]):
        with pytest.raises(SystemExit) as info:
            main(["analyze", k23_file, *knob])
        assert info.value.code == 2, knob


@pytest.mark.parametrize("name, passes", [("c8_12", [[2]]), ("p5", [])])
def test_check_p31_reads_only_its_vertex(capsys, tmp_path, p31_passes, name, passes):
    # a one-vertex P31 check runs the pass on its own row only: c8_12's
    # vertex 0 (ecc 2 < d_u 4) hands it one row at j = ecc, P5's end vertex
    # (extremal: ecc = d_u = 4) takes the closed form and no pass
    import numpy as np

    from conftest import make_graph
    g = make_graph(name)
    path = tmp_path / f"{name}.el"
    path.write_bytes(fx.edgelist_bytes(g))
    code, _, _ = _run(capsys, ["check", str(path), "--theorem", "P31", "--vertex", "0"])
    assert code == 0
    assert [degrees.tolist() for (_nodes, _w, degrees, _scale), _got in p31_passes] == passes
    for (_nodes, weights, _degrees, _scale), _got in p31_passes:
        assert np.array_equal(weights, analyze_graph(g).local_spectra.mults[[0]])


_ROOTED = {
    **{f"spider{k}x{L}": corpus.spider(k, L)
       for k, L in ((3, 3), (3, 6), (4, 4), (5, 3), (7, 2), (4, 11), (7, 7))},
    **{"bethe" + "-".join(map(str, c)): corpus.bethe_tree(c)
       for c in ((3, 2), (2, 2, 2), (3, 3, 1), (4, 2, 2), (2, 2, 2, 2, 2))},
    "cone-c7": corpus.cone(fx.cycle(7)), "cone-petersen": corpus.cone(fx.petersen()),
    "cone-k33": corpus.cone(fx.complete_bipartite(3, 3)),
}


@pytest.mark.parametrize("name", _ROOTED)
def test_rooted_families_attain_at_the_root(capsys, tmp_path, name):
    # the automorphisms fixing the root 0 act transitively on each sphere
    # around it, so the graph is pseudo-distance-regular around 0: T32 is
    # equal there with the oracle agreeing, every such vertex passes the
    # quotient battery, and P31 is attained at the extremal root at every
    # radius: the spheres' partition is equitable, so span{A^i e_0 : i <= j}
    # = span{rho_Gamma_i(0) : i <= j}, which holds rho_N_j(0)
    path = tmp_path / f"{name}.el"
    path.write_bytes(fx.edgelist_bytes(_ROOTED[name]))
    analyzed = corpus.analyze_corpus([(name, _ROOTED[name])])
    assert not corpus.battery_pdr_quotient(analyzed)
    for j in range(1, int(analyzed[0][1].dd.ecc[0])):
        code, out, _ = _run(capsys, ["check", str(path), "--theorem", "P31", "--vertex", "0",
                                     "--j", str(j)])
        assert code == 0, j
        doc = json.loads(out)
        p31 = doc["P31"]
        assert doc["codes"][p31["verdict"][0]] == "bound attained; vertex is extremal", j
        assert p31["equalityHolds"] == [True], j
    code, out, _ = _run(capsys, ["check", str(path), "--theorem", "T32", "--vertex", "0"])
    assert code == 0
    doc = json.loads(out)
    codes, t32 = doc["codes"], doc["T32"]
    assert codes[t32["comparison"]["state"][0]] == "equal"
    assert codes[t32["verdict"][0]] == "pseudo-distance-regular around vertex {vertex}"
    assert t32["equalityHolds"] == [True] == t32["details"]["oracle_agrees"]
    code, out, _ = _run(capsys, ["check", str(path), "--theorem", "P31", "--vertex", "0"])
    assert code == 0
    doc = json.loads(out)
    p31 = doc["P31"]
    assert doc["codes"][p31["verdict"][0]] == (
        "bound attained; vertex is extremal (ball saturated: N_j(u) = V)")
    assert p31["equalityHolds"] == [True]
    if name in ("spider4x11", "spider7x7"):
        # T38's hypotheses read "equal" by the scale rule while the oracle
        # rejects: a known false equality, pinned so that its fix shows here
        code, _, err = _run(capsys, ["analyze", str(path)])
        assert code == 4
        assert err == ("invariant violated: T38: oracle disagreement: "
                       "INTERNAL INCONSISTENCY: hypotheses hold but oracle rejects\n")


def test_saturated_p31_violation_exit4(capsys, tmp_path, monkeypatch):
    # every c8_12 vertex has ecc 2 < d_u 4, so the saturation rule covers
    # every P31 row; q^u_2(lambda_0) pushed to 1.5 n by P31's pass puts lhs
    # above rhs, and the row must read violated, as the exit code does, not
    # strict
    import numpy as np

    from spexcess import theorems

    g = fx.named("c8_12")
    monkeypatch.setattr(theorems, "top_q_lambda0",
                        lambda _nodes, _weights, degrees, _scale: np.full(len(degrees), 1.5 * g.n))
    path = tmp_path / "c8_12.el"
    path.write_bytes(fx.edgelist_bytes(g))
    code, out, err = _run(capsys, ["analyze", str(path)])
    assert code == 4
    columns = json.loads(out)["theoremColumns"]
    codes, p31 = columns["codes"], columns["P31"]
    assert p31["details"]["ball_saturated"] == [True] * 8
    assert [codes[s] for s in p31["comparison"]["state"]] == ["violated"] * 8
    assert [codes[v] for v in p31["verdict"]] == ["INEQUALITY VIOLATED: lhs exceeds rhs"] * 8
    assert err.count("invariant violated: P31: ") == 8 == len(err.splitlines())


def test_to_json_rejects_non_finite():
    from spexcess.report import to_json

    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            to_json({"x": [1.0, bad]})
        with pytest.raises(ValueError):
            to_json({"x": bad}, pretty=True)


@pytest.mark.parametrize("n", [30, 32])
def test_analyze_long_cycle_oracle_certified(capsys, tmp_path, n):
    # C30 (d = 15) and C32 (d = 16) are distance-regular, so the T38
    # hypotheses hold and the distance-polynomial oracle must confirm them
    path = tmp_path / f"c{n}.el"
    path.write_bytes(fx.edgelist_bytes(fx.cycle(n)))
    code, out, err = _run(capsys, ["analyze", str(path)])
    assert code == 0, err
    columns = json.loads(out)["theoremColumns"]
    assert columns["T38"]["params"]["i"] == [n // 2, n // 2 - 1]
    assert all("oracle-certified" in columns["codes"][v] for v in columns["T38"]["verdict"])


def test_parser_is_reused_across_calls(capsys, k23_file):
    # one process, one parser: an argparse error and a different command in
    # between leave the next analyze unchanged
    code, first, _ = _run(capsys, ["analyze", k23_file])
    assert code == 0
    with pytest.raises(SystemExit) as info:
        main(["analyze", k23_file, "--no-such-flag"])
    assert info.value.code == 2
    capsys.readouterr()
    code, out, _ = _run(capsys, ["check", k23_file, "--theorem", "T37"])
    assert code == 0 and list(json.loads(out)) == ["codes", "tailGap", "T37"]
    code, second, _ = _run(capsys, ["analyze", k23_file])
    assert code == 0 and second == first
