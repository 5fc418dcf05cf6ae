import json
import os

import pytest

from spexcess import fixtures as fx
from spexcess.cli import main
from spexcess.graphs import graph6_bytes


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
    assert report["schemaVersion"] == 2
    assert report["graph"]["n"] == 5
    assert report["excess"]["spectralExcess"] == pytest.approx(1.5, rel=1e-9)
    assert report["excess"]["nMinusHarmonicDMinus1"] == pytest.approx(
        25 / 17, rel=1e-9)
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


_COMPARISON = [dict.fromkeys(("label", "lhs", "rhs", "slack", "kind", "state",
                              "scalarEqual"))]
_CERTIFICATE = [dict.fromkeys(("name", "maxAbsDiff", "tolerance", "passes"))]

K23_LAYOUT = {
    "schemaVersion": None,
    "graph": dict.fromkeys(("n", "edgeCount", "diameter", "distinctEigenvalues",
                            "isRegular", "degrees")),
    "tolerances": dict.fromkeys(("grouping", "presence", "equality")),
    "spectrum": dict.fromkeys(("lambdas", "multiplicities")),
    "perron": dict.fromkeys(("lambda0", "alpha", "nu")),
    "localSpectra": [dict.fromkeys(("vertex", "eccentricity", "du", "isExtremal",
                                    "localMultiplicities"))],
    "polynomials": {"pAtLambda0": None, "qAtLambda0": None,
                    "recurrence": dict.fromkeys("abc")},
    "excess": dict.fromkeys(("deltaStar", "harmonicMeans", "spectralExcess",
                             "nMinusHarmonicDMinus1", "avgWeightedDegree")),
    "theorems": [{
        "theoremId": None,
        "params": dict.fromkeys(("vertex", "j", "r_degree", "m")),
        "comparisons": _COMPARISON,
        "certificates": _CERTIFICATE,
        "equalityHolds": None,
        "verdict": None,
        "details": dict.fromkeys((
            "extremal", "ball_saturated", "oracle_is_pdr", "oracle_agrees", "du",
            "eccentricity", "oracle_partial_dr_level", "regular", "equality_i",
            "equality_ii", "hypotheses_hold")),
    }],
    "classification": {
        "isRegular": None,
        "isDistanceRegular": None,
        "intersectionArray": None,
        "pseudoDistanceRegularVertices": None,
        "pseudoDistanceRegular": [{"vertex": None, "isPseudoDistanceRegular": None,
                                   "pseudoIntersectionNumbers": dict.fromkeys("cab")}],
        "partialDistanceRegularLevel": None,
        "isDistancePolynomial": None,
        "distancePolynomialResiduals": None,
        "extremalVertices": None,
    },
}


def test_report_layout_k23(capsys, k23_file):
    code, out, _ = _run(capsys, ["analyze", k23_file])
    assert code == 0
    assert _key_tree(json.loads(out)) == K23_LAYOUT


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


def test_analyze_disconnected_exit2(capsys, tmp_path):
    path = tmp_path / "broken.el"
    path.write_text("0 1\n2 3\n")
    code, out, err = _run(capsys, ["analyze", str(path)])
    assert code == 2
    assert out == ""
    assert "graph must be connected" in err


def test_analyze_missing_file_exit2(capsys):
    code, _, err = _run(capsys, ["analyze", "/nonexistent/file.el"])
    assert code == 2
    assert err


def test_check_t37(capsys, k23_file):
    code, out, _ = _run(capsys, ["check", k23_file, "--theorem", "T37"])
    assert code == 0
    report = json.loads(out)
    assert report["theoremId"] == "T37"
    links = report["comparisons"]
    assert links[0]["slack"] == pytest.approx(1.5 - 25 / 17, rel=1e-9)
    assert links[1]["slack"] == pytest.approx(25 / 17 - 35 / 24, rel=1e-9)
    assert links[0]["state"] == "strict" and links[1]["state"] == "strict"


def test_check_t33_with_witnesses(capsys, tmp_path):
    path = tmp_path / "petersen.el"
    path.write_bytes(fx.edgelist_bytes(fx.petersen()))
    code, out, _ = _run(capsys, ["check", str(path), "--theorem", "T33"])
    assert code == 0
    report = json.loads(out)
    assert report["equalityHolds"] is True
    assert "witnesses" in report
    assert len(report["witnesses"]["Astar_D"]) == 10


def test_check_t34_missing_j(capsys, k23_file):
    code, _, err = _run(capsys, ["check", k23_file, "--theorem", "T34"])
    assert code == 2
    assert "--j" in err


def test_check_p31_missing_vertex(capsys, k23_file):
    code, _, err = _run(capsys, ["check", k23_file, "--theorem", "P31"])
    assert code == 2
    assert "--vertex" in err


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
        assert report["details"]["oracle_agrees"] is True


def test_tolerance_flags_and_env(capsys, k23_file, monkeypatch):
    code, out, _ = _run(capsys, ["analyze", k23_file, "--eq-tol", "1e-6"])
    assert json.loads(out)["tolerances"]["equality"] == 1e-6
    monkeypatch.setenv("SPEXCESS_TOL_EQ", "1e-5")
    code, out, _ = _run(capsys, ["analyze", k23_file])
    assert json.loads(out)["tolerances"]["equality"] == 1e-5
    # flag wins over the environment
    code, out, _ = _run(capsys, ["analyze", k23_file, "--eq-tol", "1e-6"])
    assert json.loads(out)["tolerances"]["equality"] == 1e-6


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


def test_eigensolver_failure_exit3(capsys, k23_file, monkeypatch):
    import numpy as np

    def fail(_a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code, out, err = _run(capsys, ["analyze", k23_file])
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


def test_nan_in_payload_exit4(capsys, k23_file, monkeypatch):
    import spexcess.cli as cli

    real = cli.analysis_report

    def with_nan(*args, **kwargs):
        payload = real(*args, **kwargs)
        payload["excess"]["spectralExcess"] = float("nan")
        return payload

    monkeypatch.setattr(cli, "analysis_report", with_nan)
    code, out, err = _run(capsys, ["analyze", k23_file])
    assert code == 4
    assert out == ""
    assert err.startswith("invariant violated:")


def test_eigen_tolerance_knob_removed(capsys, k23_file, monkeypatch):
    monkeypatch.setenv("SPEXCESS_TOL_EIGEN", "not a number")  # ignored
    code, out, _ = _run(capsys, ["analyze", k23_file])
    assert code == 0
    assert set(json.loads(out)["tolerances"]) == {"grouping", "presence", "equality"}
    with pytest.raises(SystemExit) as info:
        main(["analyze", k23_file, "--tol", "1e-12"])
    assert info.value.code == 2


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
    t38 = [t for t in json.loads(out)["theorems"] if t["theoremId"] == "T38"]
    assert "oracle-certified" in t38[0]["verdict"]
