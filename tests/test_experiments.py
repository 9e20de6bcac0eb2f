"""Experiment harnesses at desk scale.

The full-size sweeps live in the acceptance suite; here each harness runs
once at its smallest rung (or on an explicitly coarse resolution override)
to pin down row/column contracts, validation, and reproducibility.
"""

import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blochlab.experiments import (
    ExperimentTable,
    eta_cells,
    fiber_beta,
    make_table,
    map_tasks,
    pool_size,
    resolve_resolution,
    run_gap_map,
    run_pw,
    run_thm22,
    run_thm31,
)
from blochlab.sparse_linalg import ConvergenceError


def test_resolve_resolution_shrinking_inclusions():
    # feature 2 pi eps^2 (inclusion diameter), 8 cells across
    for eps, expect in [(1 / 2, 32), (1 / 4, 128), (1 / 8, 512)]:
        assert resolve_resolution(eps, 2 * math.pi * eps**2) == expect


def test_resolve_resolution_fiber_ladder():
    from blochlab.microstructure import radius_for_gamma

    expects = {3: 156, 4: 360, 5: 920, 6: 2046}
    for inv, expect in expects.items():
        eps = 1 / inv
        r = radius_for_gamma(eps, 2.0)
        assert resolve_resolution(eps, 2 * eps * r) == expect


def test_resolve_resolution_errors_and_cap():
    with pytest.raises(ValueError, match="unresolvable"):
        resolve_resolution(1 / 8, 1e-4)
    with pytest.raises(ValueError, match="feature extent"):
        resolve_resolution(1 / 4, 0.0)
    with pytest.raises(ValueError, match="1/eps"):
        resolve_resolution(0.3, 1.0)
    # results are always multiples of 1/eps
    n = resolve_resolution(1 / 6, 0.09)
    assert n % 6 == 0


def test_make_table_columns_follow_row_order():
    rows = [{"eps": 0.5, "n": 32, **eta_cells(np.array([0.25, 0.0])),
             "lambda1": 0.1, "q_eta_eta": None, "runtime_seconds": 1.5}]
    table = make_table("x", rows, 3, {"ok_pass": np.True_, "bad_pass": 0}, {"k": 1})
    # check columns follow the row cells; the runtime stays for the sidecar only
    assert table.columns == ["eps", "n", "eta1", "eta2", "lambda1", "q_eta_eta",
                             "ok_pass", "bad_pass"]
    row = table.rows[0]
    assert row["runtime_seconds"] == 1.5
    assert row["ok_pass"] is True and row["bad_pass"] is False
    assert type(row["eta1"]) is float and row["q_eta_eta"] is None
    assert table.workers == 3 and table.meta == {"k": 1} and not table.passed
    assert make_table("y", [], 1).columns == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64(-np.inf)])
def test_make_table_rejects_non_finite_cells(bad):
    with pytest.raises(ValueError, match="non-finite row entry mean_a"):
        make_table("x", [{"eps": 0.5, "mean_a": bad}], 1)


def test_table_passed_and_column():
    t = ExperimentTable(
        name="x", columns=["a"], rows=[{"a": 1.0}, {"a": 2.0}],
        checks={"ok": True}, meta={},
    )
    assert t.passed
    assert t.column("a") == [1.0, 2.0]
    t2 = ExperimentTable(name="x", columns=["a"], rows=[], checks={"ok": False}, meta={})
    assert not t2.passed


def test_thm22_small_run():
    table = run_thm22(eps_list=(1 / 2,), resolution=32)
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row["n"] == 32
    assert row["gap"] >= 0.0
    assert row["dispersion_value"] <= 0.0
    assert row["q_eta_eta"] > 0.0
    assert "runtime_seconds" not in table.columns
    assert set(table.checks) >= {"gap_nonincreasing_pass", "dispersion_nonincreasing_pass"}
    # single-rung monotonicity is vacuous, so the run passes
    assert table.passed


def test_thm22_reproducible():
    a = run_thm22(eps_list=(1 / 2,), resolution=32, workers=1)
    b = run_thm22(eps_list=(1 / 2,), resolution=32, workers=2)
    for key in ("lambda1", "q_eta_eta", "dispersion_value", "gap",
                "lambda1_doubled", "iterations"):
        assert a.rows[0][key] == b.rows[0][key]
    assert a.workers == 1
    assert b.workers == min(2, len(os.sched_getaffinity(0)))


def test_pool_size_clamps_without_starting_a_pool():
    cores = len(os.sched_getaffinity(0))
    assert pool_size(10**6, 5) <= min(5, cores)
    assert pool_size(10**6, 10**6) == cores
    assert pool_size(1, 100) == 1
    assert pool_size(4, 1) == 1
    assert pool_size(0, 3) == 1
    assert pool_size(2, 0) == 1


def _square(x):
    return x * x


def _fail_on(x, bad):
    if x == bad:
        raise ConvergenceError(f"no convergence at task {x}", [1.0, 0.25, 0.125])
    return x


def test_map_tasks_keeps_input_order():
    tasks = [(v,) for v in range(5)]
    for workers in (1, 2):
        done = map_tasks(_square, tasks, workers, cost=[0, 3, 1, 4, 2])
        assert [value for value, _ in done] == [0, 1, 4, 9, 16]
        assert all(seconds >= 0.0 for _, seconds in done)


@pytest.mark.parametrize("workers", [1, 2])
def test_map_tasks_reraises_convergence_error(workers):
    with pytest.raises(ConvergenceError, match="no convergence at task 2") as info:
        map_tasks(_fail_on, [(v, 2) for v in range(3)], workers)
    assert info.value.residual_history == [1.0, 0.25, 0.125]


def test_thm22_validation():
    with pytest.raises(ValueError, match="two components"):
        run_thm22(eta=(0.1, 0.1, 0.1))
    with pytest.raises(ValueError, match=r"\|eta\| <= 1/4"):
        run_thm22(eta=(0.3, 0.0))


def test_thm31_single_rung():
    table = run_thm31(eps_list=(1 / 3,), with_mesh_check=False)
    row = table.rows[0]
    eta_sq = 0.2**2 + 0.2**2 + 0.3**2
    assert row["n"] == 156
    # excess lambda1 - |eta|^2 sits inside (0, 2 gamma) on the coarsest rung
    assert 0.0 < row["excess"] < 4.0
    assert_allclose(row["excess"], row["lambda1"] - eta_sq, atol=1e-12)
    assert row["control_excess"] <= 0.01
    assert row["q_eta_eta"] is None and row["dispersion_value"] is None
    assert table.checks["excess_monotone_pass"]


def test_thm31_validation():
    with pytest.raises(ValueError, match="three components"):
        run_thm31(eta=(0.1, 0.1))
    with pytest.raises(ValueError, match="third momentum"):
        run_thm31(eta=(0.1, 0.1, 0.0))


def test_fiber_beta_scaling():
    # conductivity grows with both thinner fibers and smaller periods
    assert fiber_beta(1 / 3, 0.5) == pytest.approx(0.5**-2 * 3**5)
    assert fiber_beta(1 / 4, 0.5) > fiber_beta(1 / 3, 0.5)


def test_gap_map_small():
    table = run_gap_map(eps_list=1 / 3, t_list=(1.0, 1 / 4))
    assert len(table.rows) == 2
    t1, t4 = table.rows
    assert t1["t"] == 1.0 and t4["t"] == 0.25
    assert t4["lambda1"] < t1["lambda1"]
    assert_allclose(t1["lambda1_over_t1"], 1.0)
    assert table.checks["t1_floor_pass"]


def test_gap_map_validation():
    with pytest.raises(ValueError, match="t_list must start at 1"):
        run_gap_map(eps_list=1 / 3, t_list=(0.5, 0.25))
    with pytest.raises(ValueError, match="t_list must start at 1"):
        run_gap_map(eps_list=1 / 3, t_list=(1.0, 0.5, 0.7))
    with pytest.raises(ValueError, match="third momentum"):
        run_gap_map(eta=(0.1, 0.1, 0.0))


def test_pw_small_runs():
    t22 = run_pw(eps_list=(1 / 2,), family="thm22")
    assert t22.rows[0]["eps2_C"] > 0.0
    fib = run_pw(eps_list=(1 / 3,), family="fiber")
    assert 0.0 < fib.rows[0]["ratio"] <= 10.0
    assert fib.checks["ratio_bounded_pass"]


def test_pw_validation():
    with pytest.raises(ValueError, match="unknown family"):
        run_pw(family="other")
