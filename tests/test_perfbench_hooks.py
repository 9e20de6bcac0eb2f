"""The benchmark's tracer patches solver entry points by name: every
``(module, function)`` pair in ``perfbench/tracing.py``'s ``TRACED`` list
must resolve in ``blochlab``, and each solver must take its matrix at the
argument position the tracer wraps.  Every ``from blochlab.X import Y`` in
``perfbench/*.py`` (oracle, probe, tracer) must resolve too.  A rename then
fails here instead of crashing a benchmark pass, and an assembly that
escapes the patched name fails here instead of reading 0 in the per-layer
counters.  So does a rename of a result attribute that the tracer's
counters read."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import blochlab.cli  # noqa: F401  (loads every module, as the tracer does)
from blochlab.bloch import (assemble_shifted, bloch_lambda1, bloch_reduced,
                            fiber_lambda1_2d, shifted_pencil)
from blochlab.cell_problems import homogenized, pw_constant
from blochlab.grid import make_grid
from blochlab.microstructure import (CoefficientField, FiberLattice,
                                     TwoPhaseInclusion, rasterize)
from blochlab.sparse_linalg import ConvergenceError, smallest_eigpair

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing_module() -> ast.Module:
    return ast.parse(TRACING.read_text())


def _traced_pairs() -> list[tuple[str, str]]:
    for node in _tracing_module().body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED list in perfbench/tracing.py")


def _resolve(dotted: str):
    module, name = dotted.rsplit(".", 1)
    return getattr(importlib.import_module(f"blochlab.{module}"), name)


def test_traced_names_resolve():
    pairs = _traced_pairs()
    assert pairs
    for module, name in pairs:
        assert callable(_resolve(f"{module}.{name}")), f"{module}.{name}"


def test_solver_matrix_argument_positions():
    # solver("sparse_linalg.cg_solve", 0, ...): argument 0 is the matrix
    wrapped = {}
    for node in ast.walk(_tracing_module()):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "solver" and len(node.args) >= 2
                and isinstance(node.args[0], ast.Constant)):
            wrapped[node.args[0].value] = ast.literal_eval(node.args[1])
    assert set(wrapped) == {
        "sparse_linalg.smallest_eigpair", "sparse_linalg.cg_solve",
        "sparse_linalg.largest_geneig",
    }
    matrix_names = {"A", "B", "K"}
    for dotted, index in wrapped.items():
        params = list(inspect.signature(_resolve(dotted)).parameters)
        assert params[index] in matrix_names, (dotted, params)


def test_perfbench_imports_resolve():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "blochlab"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported.append(f"{node.module}.{alias.name}")
                    assert hasattr(module, alias.name), (path.name, imported[-1])
    assert "blochlab.bloch.assemble_shifted" in imported


def test_each_solve_records_one_assembly(monkeypatch):
    # rebind assemble_shifted in every blochlab module that holds it, as
    # perfbench/tracing.py's install() does, and count the calls
    original = assemble_shifted
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "blochlab":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    grid = make_grid(2, (16, 16))
    field = rasterize(TwoPhaseInclusion(eps=1 / 2, beta=4.0, rho=1 / 2), grid)
    section = rasterize(FiberLattice(eps=1.0, r_eps=0.8, beta=50.0), grid)
    solves = {
        "bloch_lambda1": lambda: bloch_lambda1(field, np.array([0.2, 0.1])),
        "bloch_reduced": lambda: bloch_reduced(section, 1 / 2, np.array([0.2, 0.1])),
        "fiber_lambda1_2d": lambda: fiber_lambda1_2d(
            section, 1 / 2, np.array([0.2, 0.1]), 0.3),
        "homogenized": lambda: homogenized(field),
        "pw_constant": lambda: pw_constant(field, np.array([0.25, 0.0])),
    }
    for name, solve in solves.items():
        calls.clear()
        solve()
        assert len(calls) == 1, name


def test_result_attributes_the_tracer_reads():
    # eig_finish reads a report's iterations, or a failed solve's
    # residual_history; count_nnz reads the assembled matrix's nnz
    rng = np.random.default_rng(3)
    field = CoefficientField(grid=make_grid(1, (16,)), a=np.exp(rng.standard_normal(16)))
    B, w, bound = shifted_pencil(field, np.array([0.3]))
    report = smallest_eigpair(B, w, precond=bound)
    assert isinstance(report.iterations, int) and report.iterations >= 1
    with pytest.raises(ConvergenceError) as failed:
        smallest_eigpair(B, w, tol=1e-30, precond=bound)
    assert len(failed.value.residual_history) >= 1
    nnz = assemble_shifted(field, np.array([0.3]))[0].nnz
    assert isinstance(nnz, int) and nnz > 0
