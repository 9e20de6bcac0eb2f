"""Experiment harnesses at desk scale.

The full-size sweeps live in the acceptance suite; here each harness runs
once at its smallest rung (or on an explicitly coarse resolution override)
to pin down row/column contracts, validation, and reproducibility.
"""

import math
import os
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blochlab import cell_problems, experiments
from blochlab.cell_problems import dispersion
from blochlab.experiments import (
    ExperimentTable,
    eta_cells,
    fiber_beta,
    make_table,
    map_tasks,
    pool_size,
    run_gap_map,
    run_pw,
    run_thm22,
    run_thm31,
)
from blochlab.grid import make_grid
from blochlab.microstructure import rasterize
from blochlab.plan import PlanError, plan_capacity, plan_sweep, resolve_resolution
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


def test_resolution_override_must_be_a_multiple_of_inv_eps():
    # n = 66 at eps = 1/4 would run as m = 16, the grid of n = 64
    with pytest.raises(ValueError, match=r"n = 66 .* 1/eps = 4 \(eps = 0.25\)"):
        run_thm22(eps=(1 / 4,), n=66)
    with pytest.raises(ValueError, match=r"n = 100 .* 1/eps = 3"):
        run_thm31(eps=(1 / 3,), n=100)


def test_harness_plans_every_rung_before_its_first_solve(monkeypatch):
    # the eps = 1/4 rung cannot be sampled at n = 96 (m = 24); the eps = 1/3
    # rung's solves never start
    def solve(*args, **kwargs):
        raise AssertionError("a solve ran before the plan was complete")

    monkeypatch.setattr("blochlab.experiments.fiber_lambda1_2d", solve)
    with pytest.raises(ValueError, match="m = n [*] eps = 24 cells per axis"):
        run_thm31(eps=[1 / 3, 1 / 4], n=96)


@pytest.mark.parametrize("plan, key, message", [
    (partial(plan_capacity, [1 / 3], -1.0), "gamma", "gamma must be positive"),
    (partial(plan_sweep, "thm31", [1 / 3], gamma=-1.0), "gamma", "gamma must be positive"),
    (partial(plan_capacity, r=0.3, R=-2.0), "R", "need 0 < r_eps < R < pi"),
])
def test_planner_blames_the_key_its_rule_reads(plan, key, message):
    # the eps of these calls is valid, and the annulus radius r: the rule
    # that refuses gamma or R alone blames it first
    with pytest.raises(PlanError, match=message) as exc:
        plan()
    assert exc.value.keys[0] == key


@pytest.mark.parametrize("run", [
    run_thm22, run_thm31, run_gap_map, partial(run_pw, family="thm22"),
    partial(run_pw, family="fiber"), partial(plan_capacity, gamma=2.0),
], ids=["thm22", "thm31", "gap_map", "pw_thm22", "pw_fiber", "capacity"])
def test_an_empty_eps_ladder_is_refused(run):
    # no rung to plan: refused on eps, neither an IndexError after the
    # plan nor a table of no rows whose checks pass
    with pytest.raises(PlanError, match="the eps ladder is empty") as exc:
        run(eps=())
    assert exc.value.keys == ("eps",)


@pytest.mark.parametrize("run", [
    run_thm22, run_thm31, run_gap_map, partial(run_pw, family="thm22"),
    partial(run_pw, family="fiber"),
], ids=["thm22", "thm31", "gap_map", "pw_thm22", "pw_fiber"])
@pytest.mark.parametrize("ladder", [(1 / 4, 1 / 3), (1 / 4, 1 / 4)], ids=["ascending", "repeated"])
def test_an_eps_ladder_that_does_not_decrease_is_refused(run, ladder):
    # the checks read the rows in ladder order and the last as the finest
    # rung: an ascending ladder read its coarsest rung as the finest, and
    # failed thm31's and pw_thm22's monotone checks on a good solve
    with pytest.raises(PlanError, match="the eps ladder must strictly decrease") as exc:
        run(eps=ladder)
    assert exc.value.keys == ("eps",)


def test_every_solve_rasterizes_the_planned_cell(monkeypatch):
    # the plan builds each rung's unit cell once; every solve samples it, and
    # the fiber rows report its radius and conductivity
    specs = []
    rasterize = experiments.rasterize

    def recording(spec, grid):
        specs.append(spec)
        return rasterize(spec, grid)

    monkeypatch.setattr(experiments, "rasterize", recording)
    runs = [("thm22", run_thm22, {"eps": (1 / 2,), "n": 32}),
            ("thm31", run_thm31, {"eps": (1 / 3,), "n": 78}),
            ("pw_fiber", partial(run_pw, family="fiber"), {"eps": (1 / 3,)})]
    for experiment, run, kwargs in runs:
        specs.clear()
        table = run(**kwargs)
        cells = [cell for *_, cell in plan_sweep(experiment, **kwargs)]
        assert specs and set(specs) == set(cells)
        for row in table.rows if experiment != "thm22" else ():
            assert row["beta"] == fiber_beta(row["eps"], row["r_eps"])


def test_make_table_columns_follow_row_order():
    rows = [{"eps": 0.5, "n": 32, **eta_cells(np.array([0.25, 0.0])),
             "lambda1": 0.1, "q_eta_eta": None, "runtime_seconds": 1.5}]
    table = make_table(rows, 3, {"ok_pass": np.True_, "bad_pass": 0}, {"k": 1})
    # check columns follow the row cells; the runtime stays for the sidecar only
    assert table.columns == ["eps", "n", "eta1", "eta2", "lambda1", "q_eta_eta",
                             "ok_pass", "bad_pass"]
    row = table.rows[0]
    assert row["runtime_seconds"] == 1.5
    assert row["ok_pass"] is True and row["bad_pass"] is False
    assert type(row["eta1"]) is float and row["q_eta_eta"] is None
    assert table.workers == 3 and table.meta == {"k": 1} and not table.passed
    assert make_table([], 1).columns == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64(-np.inf)])
def test_make_table_rejects_non_finite_cells(bad):
    with pytest.raises(ValueError, match="non-finite row entry mean_a"):
        make_table([{"eps": 0.5, "mean_a": bad}], 1)


def test_table_passed_and_column():
    t = ExperimentTable(
        columns=["a"], rows=[{"a": 1.0}, {"a": 2.0}], checks={"ok": True}, meta={},
    )
    assert t.passed
    assert [r["a"] for r in t.rows] == [1.0, 2.0]
    t2 = ExperimentTable(columns=["a"], rows=[], checks={"ok": False}, meta={})
    assert not t2.passed


def test_thm22_small_run():
    table = run_thm22(eps=(1 / 2,), n=32)
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
    a = run_thm22(eps=(1 / 2,), n=32, workers=1)
    b = run_thm22(eps=(1 / 2,), n=32, workers=2)
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
        done, pool, peak = map_tasks(_square, tasks, workers, cost=[0, 3, 1, 4, 2])
        assert [value for value, _ in done] == [0, 1, 4, 9, 16]
        assert all(seconds >= 0.0 for _, seconds in done)
        # the pool the tasks ran on is the one clamp of the requested count
        assert pool == pool_size(workers, len(tasks))
        # its workers' peak, read in the workers; none without a pool
        assert (peak is None) == (pool == 1) and (peak is None or peak > 0)


@pytest.mark.parametrize("workers", [1, 2])
def test_map_tasks_reraises_convergence_error(workers):
    with pytest.raises(ConvergenceError, match="no convergence at task 2") as info:
        map_tasks(_fail_on, [(v, 2) for v in range(3)], workers)
    assert info.value.residual_history == [1.0, 0.25, 0.125]


def test_thm22_forms_are_one_dispersion_call():
    # q_eta_eta is dispersion's flux form, the dispersion command's value
    eps_list = [1 / 2, 1 / 4]
    eta = np.array([0.25, 0.0])
    table = run_thm22(eps=eps_list)
    rungs = plan_sweep("thm22", eps_list)
    assert len(table.rows) == len(rungs) == 2
    for row, (eps, _, m, cell) in zip(table.rows, rungs):
        sample = dispersion(rasterize(cell, make_grid(2, m)), eta)
        assert row["q_eta_eta"] == sample.q_eta_eta
        assert row["dispersion_value"] == eps * eps * sample.value


def test_thm22_forms_task_builds_one_stiffness_and_solves_twice(monkeypatch):
    counts = {"shifted_pencil": 0, "cg_solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(cell_problems, name, counted(name, getattr(cell_problems, name)))
    ((eps, _, m, cell),) = plan_sweep("thm22", [1 / 2])
    experiments._thm22_task(eps, cell, m, np.array([0.25, 0.0]), True)
    assert counts == {"shifted_pencil": 1, "cg_solve": 2}


def test_thm22_validation():
    with pytest.raises(ValueError, match="two components"):
        run_thm22(eta=(0.1, 0.1, 0.1))
    with pytest.raises(ValueError, match=r"\|eta\| <= 1/4"):
        run_thm22(eta=(0.3, 0.0))
    # at zero momentum lambda1 and q vanish, and the gap and mesh checks
    # compared rounding: lambda1 read -3.2e-15 and 6.3e-15, and both failed
    with pytest.raises(ValueError, match=r"0 < \|eta\| <= 1/4"):
        run_thm22(eps=(1 / 2, 1 / 4), eta=(0.0, 0.0))


def test_thm31_single_rung():
    table = run_thm31(eps=(1 / 3,))
    row = table.rows[0]
    eta_sq = 0.2**2 + 0.2**2 + 0.3**2
    assert row["n"] == 156
    # excess lambda1 - |eta|^2 sits inside (0, 2 gamma) on the coarsest rung
    assert 0.0 < row["excess"] < 4.0
    assert_allclose(row["excess"], row["lambda1"] - eta_sq, atol=1e-12)
    assert row["control_excess"] <= 0.01
    assert row["q_eta_eta"] is None and row["dispersion_value"] is None
    # the excess is written once; thm22's "gap" is a different quantity
    assert "gap" not in table.columns
    # every run checks the mesh: the doubled-mesh solve moves lambda1 < 1%
    assert row["mesh_pass"] and row["mesh_rel_change"] <= 0.01
    assert table.checks["excess_monotone_pass"]


def test_thm31_validation():
    with pytest.raises(ValueError, match="three components"):
        run_thm31(eta=(0.1, 0.1))
    with pytest.raises(ValueError, match="third momentum"):
        run_thm31(eta=(0.1, 0.1, 0.0))
    with pytest.raises(ValueError, match=r"\(0\.6, 0\.2, 0\.3\) lies outside"):
        run_thm31(eta=(0.6, 0.2, 0.3))


def test_fiber_beta_scaling():
    # conductivity grows with both thinner fibers and smaller periods
    assert fiber_beta(1 / 3, 0.5) == pytest.approx(0.5**-2 * 3**5)
    assert fiber_beta(1 / 4, 0.5) > fiber_beta(1 / 3, 0.5)


def test_gap_map_small():
    table = run_gap_map(eps=(1 / 3,), t_list=(1.0, 1 / 4))
    assert len(table.rows) == 2
    t1, t4 = table.rows
    assert t1["t"] == 1.0 and t4["t"] == 0.25
    assert t4["lambda1"] < t1["lambda1"]
    assert_allclose(t1["lambda1_over_t1"], 1.0)
    assert table.checks["t1_floor_pass"]


def test_gap_map_near_zero_momentum_follows_the_quadratic_law():
    # a complex pencil has no constant kernel, so its inner solves are never
    # deflated, however small ||B 1|| reads near zero momentum
    table = run_gap_map(eps=[1 / 3], t_list=[1, 2**-12, 2**-14])
    assert len(table.rows) == 3
    lam = {row["t"]: row["lambda1"] for row in table.rows}
    assert 16 * lam[2**-14] == pytest.approx(lam[2**-12], rel=2e-3)


@pytest.mark.parametrize("t, stop", [
    (2**-16, "its block met the stop rule at iteration 20 of 500"),
    (2**-20, "its residual block vanished at iteration 155 of 500"),
])
def test_eigensolver_failure_names_the_iteration_it_stopped_at(t, stop):
    # both stop short of the 500-iteration budget with the CSR quotient's
    # estimate above tol (ROADMAP item 1); the message says where and why
    with pytest.raises(ConvergenceError) as exc:
        run_gap_map(eps=[1 / 3], t_list=[1, t])
    assert f"did not reach tol=1.0e-09: {stop} (" in str(exc.value)
    assert len(exc.value.residual_history) == int(stop.split()[-3])


def test_gap_map_validation():
    with pytest.raises(ValueError, match="t_list must start at 1"):
        run_gap_map(eps=(1 / 3,), t_list=(0.5, 0.25))
    with pytest.raises(ValueError, match="t_list must start at 1"):
        run_gap_map(eps=(1 / 3,), t_list=(1.0, 0.5, 0.7))
    with pytest.raises(ValueError, match="third momentum"):
        run_gap_map(eta=(0.1, 0.1, 0.0))
    with pytest.raises(ValueError, match="all > 0"):
        run_gap_map(eps=(1 / 3,), t_list=(1.0, 0.5, -0.25))
    with pytest.raises(ValueError, match="outside the first zone"):
        run_gap_map(eta=(0.2, 0.2, 0.7))


def test_pw_small_runs():
    t22 = run_pw(eps=(1 / 2,), family="thm22")
    assert t22.rows[0]["eps2_C"] > 0.0
    fib = run_pw(eps=(1 / 3,), family="fiber")
    assert 0.0 < fib.rows[0]["ratio"] <= 10.0
    assert fib.checks["ratio_bounded_pass"]
    # only the fiber family reads gamma, so only its metadata records it
    assert "gamma" not in t22.meta
    assert fib.meta["gamma"] == 2.0


@pytest.mark.parametrize("run", [
    partial(run_pw, family="thm22"), partial(plan_sweep, "thm22"),
    partial(plan_sweep, "pw_thm22"),
], ids=["run_pw", "thm22", "pw_thm22"])
def test_inclusion_sweeps_refuse_gamma(run):
    # the inclusion cell reads no gamma: run_pw(family="thm22", gamma=123.0)
    # returned the same constants and recorded no gamma
    with pytest.raises(PlanError, match="takes no gamma") as exc:
        run(eps=(1 / 2,), gamma=123.0)
    assert exc.value.keys == ("gamma",)


@pytest.mark.parametrize("values, message, keys", [
    ({"eps": [1 / 3], "gamma": 2.0, "r": 0.3}, "not read in the annulus mode", ("eps", "gamma")),
    ({"gamma": 2.0, "r": 0.3}, "not read in the annulus mode", ("gamma",)),
    ({}, "needs either r .* or eps and gamma", ("eps", "gamma")),
    ({"eps": [1 / 3]}, "needs either r .* or eps and gamma", ("gamma",)),
    ({"gamma": 2.0, "R": 1.0}, "needs either r .* or eps and gamma", ("eps",)),
], ids=["r-eps-gamma", "r-gamma", "none", "eps", "gamma"])
def test_plan_capacity_refuses_mixed_and_missing_modes(values, message, keys):
    # a library call is refused as the parser refuses the config: before,
    # plan_capacity([1/3], 2.0, r=0.3) planned the annulus check and dropped
    # eps and gamma, and a sweep without gamma raised a TypeError
    with pytest.raises(PlanError, match=message) as exc:
        plan_capacity(**values)
    assert exc.value.keys == keys


def test_pw_validation():
    with pytest.raises(ValueError, match="unknown family"):
        run_pw(family="other")
    with pytest.raises(ValueError, match="eta must have two components"):
        run_pw(eta=(0.25, 0.0, 9))
