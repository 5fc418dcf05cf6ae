import dataclasses
import inspect
import os
import subprocess
import sys
import types

import numpy as np

import spexcess
from spexcess import classify, graphs, poly, spectral, theorems, weighted
from spexcess import fixtures as fx

MODULES = ["classify", "errors", "graphs", "pipeline", "poly", "spectral", "theorems", "weighted"]


def _fresh_interpreter(code: str) -> str:
    src = os.path.dirname(os.path.dirname(spexcess.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_package_binds_its_modules_and_version_only():
    # one import path per name: each function and class is imported from
    # its module, and the package re-exports none of them
    out = _fresh_interpreter("import spexcess; print(*sorted(vars(spexcess)))").split()
    assert [name for name in out if not name.startswith("_")] == MODULES
    assert "__version__" in out and "__all__" not in out
    assert not [name for name, value in vars(spexcess).items()
                if inspect.isfunction(value) or inspect.isclass(value)]
    assert all(isinstance(getattr(spexcess, name), types.ModuleType) for name in MODULES)


def test_runtime_imports_only_numpy_and_the_standard_library():
    # the runtime dependency stays numpy-only; modules a bare interpreter
    # loads (site hooks) are not counted
    out = _fresh_interpreter(
        "import sys; before = set(sys.modules); "
        "import spexcess, spexcess.cli, spexcess.report, spexcess.fixtures; "
        "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))").split()
    assert {"numpy", "spexcess"} <= set(out)
    assert set(out) - set(sys.stdlib_module_names) == {"numpy", "spexcess"}


def test_spectrum_and_graph_fields_are_pinned():
    # one class layout: class i is the next mults[i] columns of vectors
    fields = [f.name for f in dataclasses.fields(spectral.Spectrum)]
    assert fields == ["lambdas", "mults", "vectors", "residuals"]
    assert [f.name for f in dataclasses.fields(graphs.Graph)] == ["n", "edges", "adjacency"]


def test_per_vertex_fields_are_pinned():
    # per-vertex data is one array over the vertices, stored once; no
    # field repeats another (distance-regular iff an intersection array)
    fields = [f.name for f in dataclasses.fields(spectral.LocalSpectra)]
    assert fields == ["mults", "du", "excess", "margins"]
    fields = [f.name for f in dataclasses.fields(classify.Classification)]
    assert fields == ["is_regular", "intersection_array", "is_pdr", "pdr_numbers",
                      "pdr_violations", "partial_dr_level", "is_distance_polynomial"]
    fields = [f.name for f in dataclasses.fields(weighted.ExcessStats)]
    assert fields == ["ball_norms", "sphere_norms", "harmonic_means", "delta_star"]


def test_perron_weights_is_one_read_only_array():
    # one normalization, ||alpha||^2 = n, and no wrapper around it
    for g in (fx.k23(), fx.petersen()):
        alpha = spectral.perron_weights(spectral.eigendecompose(g), g.adjacency.sum(axis=1))
        assert type(alpha) is np.ndarray and alpha.shape == (g.n,)
        assert not alpha.flags.writeable


def test_weighted_matrices_is_jstar_as_one_read_only_array():
    # J* = alpha alpha^T and no wrapper: the masks A*_i and S*_j are taken
    # by the checks that read them
    for g in (fx.k23(), fx.petersen()):
        alpha = spectral.perron_weights(spectral.eigendecompose(g), g.adjacency.sum(axis=1))
        jstar = weighted.weighted_matrices(alpha)
        assert type(jstar) is np.ndarray and jstar.shape == (g.n, g.n)
        assert not jstar.flags.writeable
        assert jstar.tobytes() == np.outer(alpha, alpha).tobytes()  # bit for bit


def test_column_report_fields_are_pinned():
    # every check returns one ColumnReport; a certificate's gaps go with its
    # report rows, or with none when reports share them
    assert theorems.ColumnReport._fields == (
        "theorem_id", "label", "kind", "lhs", "rhs", "slack", "state", "verdict",
        "equality_holds", "params", "details", "certificate", "q_gaps", "tail_gap",
        "witness_fn")
    assert theorems.Certificate._fields == ("name", "max_abs_diff", "tol", "rows")


def test_poly_sequence_fields_are_pinned():
    # one family of one measure: its weights and scale stay with the caller
    fields = [f.name for f in dataclasses.fields(poly.PolySequence)]
    assert fields == ["values", "rec_a", "rec_b", "rec_c"]
