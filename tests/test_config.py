from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochlab import cli, experiments
from blochlab.config import _COMMANDS, _CONSTRUCTORS, EXPERIMENTS, ConfigError, parse_config
from blochlab.fieldio import write_field_dump
from blochlab.grid import make_grid
from blochlab.microstructure import Constant, FiberLattice, TwoPhaseInclusion, rasterize
from blochlab.plan import DEFAULT_GAMMA, PlanError, fiber_beta, plan_capacity, plan_sweep


def test_minimal_config_defaults():
    cfg = parse_config("command = homogenize\na = constant(2)\nn = 8\n")
    assert cfg.command == "homogenize"
    assert isinstance(cfg.a, Constant)
    assert cfg.a.a0 == 2


def test_comments_and_blank_lines_ignored():
    text = """
# a comment
command = bloch   # trailing comment

a = constant(1)
eta = (0.3, 0.2)
n = 16
"""
    cfg = parse_config(text)
    assert cfg.n == 16
    assert cfg.eta == [(0.3, 0.2)]


def test_eta_semicolon_list():
    cfg = parse_config(
        "command = bloch\na = constant(1)\nn = 8\n"
        "eta = (0.3, 0.2); (0.0, 0.0); (0.1, -0.4)\n"
    )
    assert cfg.eta == [(0.3, 0.2), (0.0, 0.0), (0.1, -0.4)]


def test_numbers_parse_to_the_floats_the_run_takes():
    # a fraction is the float nearest to it, not only when it is dyadic, and
    # an integer written for a float-valued key is a float; only n is an int
    cfg = parse_config("command = experiment:thm31\neps = 1/3, 1/6\ngamma = 2\n"
                       "eta = (0, 1/4, 1/4)\n")
    assert cfg.eps == [1 / 3, 1 / 6]
    assert cfg.gamma == 2.0 and cfg.eta == [(0.0, 0.25, 0.25)]
    assert all(type(v) is float for v in [*cfg.eps, cfg.gamma, *cfg.eta[0]])


def test_two_phase_constructor():
    cfg = parse_config(
        "command = homogenize\n"
        "a = two_phase(eps=1/4, beta=16, rho=1/4, shape=disc)\n"
        "n = 64\n"
    )
    spec = cfg.a
    assert isinstance(spec, TwoPhaseInclusion)
    assert spec.eps == 0.25 and spec.beta == 16 and spec.shape == "disc"


def test_fiber_constructor_gamma_route():
    cfg = parse_config(
        "command = bloch\nn = 156\neta = (0.2, 0.2, 0.3)\n"
        "a = fiber(eps=1/3, gamma=2)\n"
    )
    spec = cfg.a
    assert isinstance(spec, FiberLattice)
    assert spec.eps == pytest.approx(1 / 3)
    assert 0 < spec.r_eps < 1  # radius derived from gamma
    # without beta, the fiber sweeps' conductivity
    assert spec.beta == fiber_beta(1 / 3, spec.r_eps)


# ---------------------------------------------------------------------------
# error paths


def err(text):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    return str(exc.value)


def test_unknown_key_reports_line():
    msg = err("command = homogenize\na = constant(1)\nbogus = 3\n")
    assert "line 3" in msg and "bogus" in msg


def test_out_is_not_a_key():
    # the output directory is the CLI's --out, not a config key
    msg = err("command = homogenize\na = constant(1)\nn = 8\nout = results\n")
    assert "unknown key 'out'" in msg and "line 4" in msg


def test_seed_is_not_a_key():
    msg = err("command = homogenize\na = constant(1)\nseed = 5\n")
    assert "unknown key 'seed'" in msg and "line 3" in msg


def test_duplicate_key():
    msg = err("command = bloch\nn = 8\nn = 16\n")
    assert "duplicate" in msg and "line 3" in msg


def test_empty_value():
    assert "empty value" in err("command = homogenize\na =\n")


def test_missing_command():
    assert "command" in err("n = 8\n")


def test_unknown_command_and_experiment():
    assert "unknown command" in err("command = fly\n")
    assert "unknown experiment" in err("command = experiment:warp\n")


def test_missing_required_key():
    msg = err("command = bloch\na = constant(1)\nn = 8\n")
    assert "requires key 'eta'" in msg
    msg = err("command = homogenize\na = constant(1)\n")
    assert "requires key 'n'" in msg and "line 1" in msg


def test_key_not_valid_for_command():
    msg = err("command = homogenize\na = constant(1)\nt_list = 1, 1/4\n")
    assert "not valid for command" in msg


@pytest.mark.parametrize("text, key, line", [
    ("command = experiment:gap_map\nn = 999\n", "n", 2),
    ("command = experiment:pw_fiber\neps = 1/3\nn = 12\n", "n", 3),
    ("command = experiment:pw_thm22\ngamma = 77\n", "gamma", 2),
    ("command = experiment:thm31\neta = (0.2, 0.2, 0.3); (0.1, 0.1, 0.3)\n", "eta", 2),
    ("command = capacity\nr = 0.28\neps = 1/3\n", "eps", 3),
    ("command = capacity\ngamma = 2\nr = 0.28\n", "gamma", 2),
])
def test_unread_keys_rejected(text, key, line):
    # each of these keys would be parsed and then ignored by the command
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.key == key and exc.value.line == line


@pytest.mark.parametrize("text, key", [
    ("command = bloch\na = constant(1)\nn = 8\neta = ;\n", "eta"),
    ("command = experiment:gap_map\nt_list = ,\n", "t_list"),
    ("command = experiment:thm22\neps = , ,\n", "eps"),
])
def test_empty_list_rejected(text, key):
    with pytest.raises(ConfigError, match="empty list") as exc:
        parse_config(text)
    assert exc.value.key == key


def test_negative_gamma_rejected():
    with pytest.raises(ConfigError, match="gamma must be positive") as exc:
        parse_config("command = capacity\neps = 1/3\ngamma = -1\n")
    assert exc.value.key == "gamma" and exc.value.line == 3


def test_q_normalization_is_not_a_key():
    msg = err("command = homogenize\na = constant(1)\nn = 8\n"
              "q_normalization = cell-average\n")
    assert "unknown key 'q_normalization'" in msg and "line 4" in msg


@pytest.mark.parametrize("text, key, line", [
    ("command = capacity\ngamma = inf\neps = 1/3\n", "gamma", 2),
    ("command = capacity\neps = 1/3\ngamma = 1e999\n", "gamma", 3),
    ("command = capacity\nr = infinity\n", "r", 2),
    ("command = experiment:gap_map\nt_list = 1, nan\n", "t_list", 2),
    ("command = capacity\neps = 1/3\ngamma = 1_000\n", "gamma", 3),
    ("command = experiment:thm22\neps = 1/1_0\n", "eps", 2),
    ("command = bloch\nn = 8\neta = (0.1, -inf)\na = constant(1)\n", "eta", 3),
    ("command = homogenize\nn = 8\na = two_phase(eps=1/2, beta=inf, rho=1/2)\n",
     "a", 3),
])
def test_numbers_are_finite_decimals(text, key, line):
    with pytest.raises(ConfigError, match="finite decimal") as exc:
        parse_config(text)
    assert exc.value.key == key and exc.value.line == line


@pytest.mark.parametrize("text, key, line", [
    ("command = experiment:thm22\neps = 2/7\n", "eps", 2),
    ("command = experiment:thm31\neps = 1/3, 0.3\n", "eps", 2),
    ("command = experiment:gap_map\neps = 2\n", "eps", 2),
    ("command = experiment:pw_fiber\neps = 1/3, 2/5\n", "eps", 2),
    ("command = capacity\neps = 0.3\ngamma = 2\n", "eps", 2),
    ("command = experiment:thm31\neps = 1/3\nn = 100\n", "n", 3),
    ("command = experiment:thm22\nn = 64\neps = 1/2, 1/3\n", "n", 2),
    ("command = experiment:thm22\nn = 12\n", "n", 2),
    ("command = experiment:thm31\nn = 100\n", "n", 2),
    ("command = experiment:thm31\neta = (0.2, 0.2)\n", "eta", 2),
    ("command = experiment:thm22\neta = (0.3, 0.0)\n", "eta", 2),
    ("command = experiment:thm22\neps = 1/2, 1/4\neta = (0, 0)\n", "eta", 3),
    ("command = experiment:gap_map\nt_list = 1/4, 1\n", "t_list", 2),
    ("command = experiment:gap_map\neps = 1/3\nt_list = 1, 1\n", "t_list", 3),
    ("command = experiment:gap_map\nt_list = 1\n", "t_list", 2),
    ("command = experiment:thm31\neps = 1/3\neta = (0.2, 0.2, 0.0)\n", "eta", 3),
    # every eps lies in (0, 1], by the planner's rule
    ("command = experiment:thm31\neps = -1/3\n", "eps", 2),
    ("command = experiment:thm22\neps = 0\n", "eps", 2),
    ("command = capacity\neps = -0.3\ngamma = 2\nn = 64\n", "eps", 2),
    # an experiment's ladder strictly decreases: its checks read the last
    # rung as the finest
    ("command = experiment:thm22\neps = 1/4, 1/2\nn = 64\n", "eps", 2),
    ("command = experiment:thm22\nn = 64\neps = 1/4, 1/4\n", "eps", 3),
    ("command = experiment:thm31\neps = 1/4, 1/3\n", "eps", 2),
    ("command = experiment:thm31\ngamma = 2\neps = 1/3, 1/4, 1/4\n", "eps", 3),
    ("command = experiment:gap_map\neps = 1/4, 1/3\n", "eps", 2),
    ("command = experiment:gap_map\neps = 1/3, 1/3\n", "eps", 2),
    ("command = experiment:pw_thm22\neps = 1/4, 1/2\n", "eps", 2),
    ("command = experiment:pw_thm22\neps = 1/2, 1/2\n", "eps", 2),
    ("command = experiment:pw_fiber\neps = 1/4, 1/3\n", "eps", 2),
    ("command = experiment:pw_fiber\neps = 1/4, 1/4\n", "eps", 2),
])
def test_eps_ladder_checked_at_parse_time(text, key, line):
    # every 1/eps a run resolves a grid for is an integer, and an
    # experiment's n a multiple of each, of the config's eps or the default
    # ladder; an experiment's eta and t_list pass its harness's own checks;
    # before, all of these failed only at run time
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.key == key and exc.value.line == line


@pytest.mark.parametrize("text, key, line, message", [
    # a fiber sweep's momentum lies in the first zone
    ("command = experiment:thm31\neta = (0.6, 0.2, 0.3)\n", "eta", 2,
     r"momentum \(0\.6, 0\.2, 0\.3\) lies outside the first zone"),
    ("command = experiment:gap_map\neps = 1/3\neta = (0.2, 0.2, 0.7)\n", "eta", 3,
     r"momentum \(0\.2, 0\.2, 0\.7\) lies outside the first zone"),
    # every t is positive
    ("command = experiment:gap_map\neps = 1/3\nt_list = 1, 0.5, -0.25\n", "t_list", 3,
     "all > 0"),
    # capacity radii: 0 < r < R < pi, the sweep's derived radius below R
    ("command = capacity\nr = 2\n", "r", 2, "need 0 < r_eps < R < pi"),
    ("command = capacity\nr = 0.3\nR = 4\n", "R", 3, "need 0 < r_eps < R < pi"),
    ("command = capacity\nr = 0.3\nR = 0.2\n", "r", 2, "need 0 < r_eps < R < pi"),
    ("command = capacity\neps = 1/3\ngamma = 2\nR = 0.01\n", "R", 4,
     r"got r_eps=0\.488"),
    # a single command's n samples its medium
    ("command = homogenize\na = two_phase(eps=1/3, beta=4, rho=1/3)\nn = 16\n", "n", 3,
     "not divisible by 1/eps = 3"),
    ("command = bloch\na = fiber_lattice(eps=1/3, r=0.1, beta=10)\nn = 12\n"
     "eta = (0.1, 0.1)\n", "n", 3, "spans only 0.13 cells"),
    ("command = pw\neta = (1, 0)\nn = 36\na = two_phase(eps=1/3, beta=4, rho=1/9)\n",
     "n", 3, "spans only 1.33 cells"),
    ("command = bloch\neta = (0.1)\nn = 96\na = fiber(eps=1/3, gamma=2)\n", "n", 3,
     "fiber lattice needs a 2-d cross-section"),
    ("command = dispersion\na = constant(2)\neta = (0.1)\nn = 1\n", "n", 4,
     "need at least 2 cells"),
    # a sweep rung must resolve under the 2048-cell cap: the fiber radius
    # exp(-1/(2 pi eps^2 gamma)) shrinks with eps and with gamma
    ("command = experiment:thm31\neps = 1/3, 1/8\n", "eps", 2,
     "spans only 0.50 cells at the 2048 cap"),
    ("command = experiment:gap_map\neps = 1/3, 1/8\n", "eps", 2,
     "spans only 0.50 cells at the 2048 cap"),
    ("command = experiment:pw_fiber\neps = 1/8\n", "eps", 2,
     "spans only 0.50 cells at the 2048 cap"),
    ("command = experiment:thm22\neps = 1/64\n", "eps", 2,
     "spans only 0.50 cells at the 2048 cap"),
    ("command = experiment:thm31\neps = 1/3\ngamma = 0.003\n", "eps", 2,
     "spans only 0.00 cells at the 2048 cap"),
    ("command = experiment:thm31\ngamma = 0.5\n", "gamma", 2,
     "spans only 1.00 cells at the 2048 cap"),
    ("command = experiment:gap_map\ngamma = 1\n", "gamma", 2,
     "spans only 2.44 cells at the 2048 cap"),
    # an n override samples every rung's unit cell, not only the first; the
    # hint is the least n, a multiple of every 1/eps, that resolves the rung
    ("command = experiment:thm31\neps = 1/3, 1/4\nn = 96\n", "n", 3,
     "eps = 0.25, unit-pattern grid of m = n [*] eps = 24 cells per axis: "
     "feature of extent 0.5598 spans only 2.14 cells along axis 0; "
     "need n >= 180, a multiple of 12"),
    # the fiber conductivity r^-2 eps^-5 would overflow: no n resolves the rung
    ("command = experiment:thm31\neps = 1/3\ngamma = 0.003\nn = 2046\n", "n", 4,
     "no multiple of 3 up to the 2048 cap resolves it"),
    # the inclusion family's rho = eps
    ("command = experiment:thm22\neps = 1\n", "eps", 2,
     "the inclusion family needs eps < 1"),
    ("command = experiment:pw_thm22\neps = 1\n", "eps", 2,
     "the inclusion family needs eps < 1"),
    # capacity's mode: a missing key is named on the command's line
    ("command = capacity\ngamma = 2\n", "eps", 1, "capacity needs either r"),
    ("command = capacity\nR = 1\neps = 1/3\n", "gamma", 1, "capacity needs either r"),
    # capacity: cells across the disc, the eps range, the cap
    ("command = capacity\nr = 0.01\n", "r", 2, "spans only 1.63 cells"),
    ("command = capacity\neps = 2\ngamma = 2\nn = 64\n", "eps", 2,
     r"eps must lie in \(0, 1\], got 2.0"),
    ("command = capacity\neps = 1/9\ngamma = 2\n", "eps", 2,
     "spans only 0.11 cells at the 2048 cap"),
    ("command = capacity\neps = 1/3\ngamma = 2\nn = 8\n", "n", 4,
     "spans only 1.24 cells"),
    # a radius so thin that 1/r overflows, or is subnormal, is refused with
    # the rest: the grid checks see infinitely many cells needed
    ("command = bloch\nn = 96\neta = (0.1, 0.1, 0.1)\na = fiber(eps=1/3, gamma=0.003)\n",
     "a", 4, r"the fiber conductivity r\^-2 eps\^-5 overflows at eps = 0\.3333"),
    ("command = experiment:thm31\neps = 1/3\ngamma = 0.00197\n", "eps", 2,
     "spans only 0.00 cells at the 2048 cap"),
    ("command = experiment:gap_map\neps = 1/3\ngamma = 0.00197\n", "eps", 2,
     "spans only 0.00 cells at the 2048 cap"),
    ("command = experiment:pw_fiber\neps = 1/3\ngamma = 0.00197\n", "eps", 2,
     "spans only 0.00 cells at the 2048 cap"),
    ("command = experiment:thm31\neps = 1/3\ngamma = 0.00197\nn = 2046\n", "n", 4,
     "no multiple of 3 up to the 2048 cap resolves it"),
    ("command = capacity\neps = 1/3\ngamma = 0.00197\n", "eps", 2,
     "spans only 0.00 cells at the 2048 cap"),
    ("command = capacity\neps = 1/3\ngamma = 0.00197\nn = 2046\n", "n", 4,
     "spans only 0.00 cells along axis 0; no grid resolves it"),
    ("command = capacity\nr = 1e-310\n", "r", 2,
     "spans only 0.00 cells along axis 0; no grid resolves it"),
    ("command = bloch\na = fiber_lattice(eps=1/3, r=1e-310, beta=10)\nn = 12\n"
     "eta = (0.1, 0.1)\n", "n", 3, "spans only 0.00 cells along axis 0; no grid resolves it"),
    # a feature so small that its least n has hundreds of digits
    ("command = bloch\na = two_phase(eps=1/3, beta=4, rho=1e-300)\nn = 12\n"
     "eta = (0.1, 0.1)\n", "n", 3, r"spans only 0\.00 cells along axis 0; need n >= 1\.2e\+301"),
])
def test_run_time_failures_refused_at_parse_time(text, key, line, message):
    # each of these parsed, then exited 1 at run time without key or line
    with pytest.raises(ConfigError, match=message) as exc:
        parse_config(text)
    assert exc.value.key == key and exc.value.line == line
    assert len(str(exc.value)) < 300


@pytest.mark.parametrize("text, key, line, message", [
    # the radii: the annulus rule 0 < r < R < pi, blaming R when R alone breaks it
    ("command = capacity\nr = -1\n", "r", 2,
     r"need 0 < r_eps < R < pi, got r_eps=-1\.0, R=1\.57"),
    ("command = capacity\nr = 0.3\nR = -2\n", "R", 3,
     r"need 0 < r_eps < R < pi, got r_eps=0\.3, R=-2\.0"),
    ("command = capacity\neps = 1/3\ngamma = 2\nR = -2\n", "R", 4,
     r"need 0 < r_eps < R < pi, got r_eps=0\.488\d*, R=-2\.0"),
    # gamma: the critical radius's own rule
    ("command = experiment:thm31\ngamma = -2\n", "gamma", 2,
     r"gamma must be positive, got -2\.0"),
    ("command = experiment:gap_map\neps = 1/3\ngamma = 0\n", "gamma", 3,
     r"gamma must be positive, got 0\.0"),
    ("command = experiment:pw_fiber\ngamma = -1\n", "gamma", 2,
     r"gamma must be positive, got -1\.0"),
    ("command = capacity\neps = 1/3\ngamma = -2\nn = 64\n", "gamma", 3,
     r"gamma must be positive, got -2\.0"),
    # gamma so large that the float fiber radius misses it by more than 1e-6
    # relative: at 1e12 by 1.1e-5, and where the radius rounds to 1,
    # |ln r| = 0 realizes no gamma and pw_fiber's ratio would divide by it
    ("command = experiment:pw_fiber\ngamma = 1e12\n", "gamma", 2,
     r"gamma = 1e\+12 is too large at eps = 0\.3333: the fiber radius 0\.99999\d* "
     r"does not realize it to 1e-6 relative"),
    ("command = experiment:pw_fiber\ngamma = 1e17\n", "gamma", 2,
     r"gamma = 1e\+17 is too large at eps = 0\.3333: the fiber radius 1\.0 does not"),
    ("command = capacity\neps = 1/3\ngamma = 1e17\nR = 0.5\n", "gamma", 3,
     r"gamma = 1e\+17 is too large at eps = 0\.3333: the fiber radius 1\.0 does not"),
    ("command = capacity\neps = 1\ngamma = 1e308\nn = 64\n", "gamma", 3,
     r"gamma = 1e\+308 is too large at eps = 1: the fiber radius 1\.0 does not"),
    ("command = homogenize\nn = 48\na = fiber(eps=1/3, gamma=1e12)\n", "a", 3,
     r"gamma = 1e\+12 is too large at eps = 0\.3333: the fiber radius 0\.99999\d* "
     r"does not realize it to 1e-6 relative"),
    ("command = homogenize\nn = 48\na = fiber(eps=1/3, gamma=1e17)\n", "a", 3,
     r"gamma = 1e\+17 is too large at eps = 0\.3333: the fiber radius 1\.0 does not"),
    # n: the grids' own rule, at least 2 cells per axis
    ("command = bloch\na = constant(1)\neta = (0.1, 0.1)\nn = 0\n", "n", 4,
     "need at least 2 cells, got 0"),
    ("command = experiment:thm22\nn = -4\n", "n", 2,
     r"m = n \* eps = -2 cells per axis: degenerate axis 0: need at least 2 cells"),
    ("command = experiment:thm31\neps = 1/3\nn = -6\n", "n", 3,
     r"m = n \* eps = -2 cells per axis: degenerate axis 0: need at least 2 cells"),
    ("command = capacity\neps = 1/3\ngamma = 2\nn = 0\n", "n", 4,
     "need at least 2 cells, got 0"),
    # 2 pi eps^2 gamma underflows: the radius is 0.0, refused by the media
    ("command = experiment:thm31\neps = 1e-300\n", "eps", 2,
     r"r_eps must lie in \(0, pi\), got 0\.0"),
    ("command = experiment:thm31\neps = 1e-200\n", "eps", 2,
     r"r_eps must lie in \(0, pi\), got 0\.0"),
    ("command = capacity\neps = 1e-170\ngamma = 2\nn = 64\n", "eps", 2,
     r"need 0 < r_eps < R < pi, got r_eps=0\.0"),
    ("command = capacity\neps = 1e-170\ngamma = 2\nR = 1\nn = 64\n", "eps", 2,
     r"need 0 < r_eps < R < pi, got r_eps=0\.0, R=1\.0"),
    ("command = homogenize\nn = 48\na = fiber(eps=1e-300, gamma=2)\n", "a", 3,
     r"the fiber conductivity r\^-2 eps\^-5 overflows at eps = 1e-300, r = 0"),
    # an inclusion rung this thin: its eps^-2 and 1/eps overflow
    ("command = experiment:thm22\neps = 1e-300\n", "eps", 2,
     "feature extent must be positive"),
    ("command = experiment:pw_thm22\neps = 5e-324\n", "eps", 2,
     "1/eps must be an integer, got 1/eps = inf"),
    # grids whose operator int32 CSR indices cannot address: the unit cell,
    # the doubled mesh of thm22 and thm31, a capacity profile, a 3-D medium
    (f"command = experiment:thm31\nn = {6 * 10**299}\n", "n", 2,
     r"m = n \* eps = 2\.00e299 cells per axis: grid of 4\.00e598 cells is too large"),
    ("command = experiment:thm31\neps = 1/3\nn = 36000\n", "n", 3,
     "doubled-mesh grid of 2m = 24000 cells per axis: grid of 576000000 cells is too large"),
    ("command = experiment:thm22\neps = 1/2\nn = 24000\n", "n", 3,
     "doubled-mesh grid of 2m = 24000 cells per axis: grid of 576000000 cells is too large"),
    (f"command = capacity\nr = 0.3\nn = {10**300}\n", "n", 3,
     r"grid of 1\.00e600 cells is too large: int32 indices address at most 429496729 cells"),
    ("command = bloch\na = constant(1)\neta = (0.1, 0.2, 0.3)\nn = 30000\n", "n", 4,
     r"grid of 2\.70e13 cells is too large: .* at most 306783378 cells of 7"),
])
def test_value_rules_refuse_with_key_and_line(text, key, line, message):
    # the parser checks syntax only; each value is refused by the rule that
    # owns it, named by the key and line the config sets it on
    with pytest.raises(ConfigError, match=message) as exc:
        parse_config(text)
    assert exc.value.key == key and exc.value.line == line


@pytest.mark.parametrize("text", [
    "command = capacity\nr = 0.3\nR = 3.1\n",
    "command = capacity\neps = 1/3, 1/4\ngamma = 2\nR = 0.5\n",
    "command = bloch\na = fiber_lattice(eps=1/3, r=0.1, beta=10)\nn = 378\n"
    "eta = (0.1, 0.1)\n",
    "command = homogenize\na = two_phase(eps=1/3, beta=4, rho=1/3)\nn = 36\n",
    "command = bloch\na = from_file(path=missing.bin)\nn = 7\neta = (0.1, 0.1)\n",
    "command = experiment:thm31\neps = 1/3, 1/4\nn = 180\n",
])
def test_parse_time_checks_admit_valid_runs(text):
    # the boundary cases pass, and a dump is not read while parsing
    parse_config(text)


def test_parse_and_rasterize_share_the_resolution_rule():
    cfg = parse_config("command = homogenize\na = two_phase(eps=1/3, beta=4, rho=1/3)\n"
                       "n = 36\n")
    with pytest.raises(ValueError) as raster:
        rasterize(cfg.a, make_grid(2, (16, 16)))
    with pytest.raises(ConfigError) as parse:
        parse_config("command = homogenize\na = two_phase(eps=1/3, beta=4, rho=1/3)\n"
                     "n = 16\n")
    assert str(parse.value).endswith(str(raster.value))


# ---------------------------------------------------------------------------
# parse time and run time plan the same grids


class _Planned(Exception):
    """Raised in place of a run's first solve."""


def _first_solve(*args, **kwargs):
    raise _Planned


@st.composite
def _sweep_configs(draw):
    """thm22, thm31, gap_map, pw_fiber and capacity configs: eps ladders of
    1/2 .. 1/12, gamma in [0.5, 8], n (often a multiple of every 1/eps),
    r and R."""
    command = draw(st.sampled_from(["experiment:thm22", "experiment:thm31",
                                    "experiment:gap_map", "experiment:pw_fiber",
                                    "capacity"]))
    keys = _COMMANDS[command][1]
    capacity = command == "capacity"
    annulus = capacity and draw(st.booleans())
    lines = [f"command = {command}"]
    dens = None
    if not annulus and (capacity or draw(st.booleans())):
        dens = draw(st.lists(st.integers(2, 12), min_size=1, max_size=4, unique=True))
        lines.append("eps = " + ", ".join(f"1/{d}" for d in dens))
    if "gamma" in keys and not annulus and (capacity or draw(st.booleans())):
        lines.append(f"gamma = {draw(st.floats(0.5, 8.0))!r}")
    if "n" in keys and draw(st.booleans()):
        step = lcm(*(dens or (2, 3, 4, 5, 6, 8)))
        n = draw(st.one_of(st.integers(2, 2048), st.integers(1, 64).map(lambda k: k * step)))
        lines.append(f"n = {n}")
    if annulus:
        lines.append(f"r = {draw(st.floats(0.005, 3.0))!r}")
    if capacity and draw(st.booleans()):
        lines.append(f"R = {draw(st.floats(0.01, 3.2))!r}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_sweep_configs())
@example("command = experiment:thm31\neps = 1/3, 1/4\nn = 360\ngamma = 2\n")
@example("command = experiment:gap_map\neps = 1/3\ngamma = 3.5\n")
@example("command = experiment:thm31\neps = 1/3\ngamma = 0.003\nn = 2046\n")
@example("command = capacity\neps = 1/6\ngamma = 2\n")
@example("command = capacity\nr = 0.05\nR = 3\n")
def test_every_admitted_config_plans_at_run_time(text):
    # a config that parse_config admits runs up to its first solve: the
    # run's own planner and checks refuse nothing that parsing let through
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    with mock.patch.object(experiments, "map_tasks", _first_solve), \
            mock.patch.object(cli, "_task_table", _first_solve), \
            pytest.raises(_Planned):
        if cfg.command == "capacity":
            cli._single_command_table(cfg)
        else:
            cli._experiment_table(cfg)


#: a planner's inputs: eps ladders of reciprocals and of floats in [-1, 2]
#: down to 1e-300 and 5e-324; gamma, r and R nonpositive, subnormal,
#: ordinary or huge
_VALUE = st.one_of(st.floats(-4.0, 4.0), st.floats(0.0, 1e-300),
                   st.floats(allow_nan=False, allow_infinity=False))
_INPUTS = {
    "eps": st.lists(st.one_of(st.integers(1, 12).map(lambda k: 1 / k),
                              st.floats(-1.0, 2.0), st.sampled_from([1e-300, 5e-324])),
                    min_size=1, max_size=3),
    "gamma": _VALUE, "r": _VALUE, "R": _VALUE, "n": st.integers(-8, 4096),
}


@st.composite
def _planned_runs(draw):
    """``(command, {key: value})`` for every experiment and both modes of
    ``capacity``; a key left out takes the planner's default."""
    command = draw(st.sampled_from(["capacity", *(f"experiment:{e}" for e in EXPERIMENTS)]))
    optional = [k for k in _COMMANDS[command][1] if k in _INPUTS]
    required = []
    if command == "capacity":
        required = ["r"] if draw(st.booleans()) else ["eps", "gamma"]
        optional = ["R", "n"]
    keys = required + [k for k in optional if draw(st.booleans())]
    return command, {k: draw(_INPUTS[k]) for k in keys}


def _plan(command, values):
    if command == "capacity":
        return plan_capacity(**values)
    return plan_sweep(command.split(":", 1)[1], **values)


@settings(max_examples=400, deadline=None)
@given(_planned_runs())
@example(("capacity", {"eps": [1 / 3], "gamma": -1.0}))
@example(("experiment:thm31", {"eps": [1 / 3], "gamma": -1.0}))
@example(("capacity", {"r": 0.3, "R": -2.0}))
@example(("experiment:thm31", {"eps": [1e-300]}))
@example(("capacity", {"eps": [1e-170], "gamma": 2.0, "n": 64}))
@example(("experiment:thm22", {"eps": [1e-300]}))
@example(("experiment:thm22", {"eps": [5e-324]}))
@example(("experiment:pw_fiber", {"gamma": 1e17}))
@example(("experiment:pw_fiber", {"gamma": 1e12}))
@example(("capacity", {"eps": [1.0], "gamma": 1e308, "n": 64}))
def test_planners_refuse_only_with_their_own_error(run):
    # a planner returns or raises PlanError blaming first a key its rule
    # reads; parsing the same values refuses with that key, or admits
    command, values = run
    annulus = "r" in values
    optional = _COMMANDS[command][1]
    reads = ({"r", "R", "n"} if annulus
             else {"eps", "n"} | {k for k in ("gamma", "R") if k in optional})
    try:
        _plan(command, values)
        keys = None
    except PlanError as exc:
        keys = exc.keys
        assert set(keys) <= reads, keys
        gamma = values.get("gamma", DEFAULT_GAMMA)
        # gamma's own rule: positive, and small enough that every rung's
        # radius realizes it to 1e-6 (at eps <= 1 a refusal takes gamma > 1e9)
        assert keys[0] != "gamma" or not gamma > 0 or (
            gamma > 1e9 and "does not realize it to 1e-6 relative" in str(exc))
        if not gamma > 0 and keys != ("gamma",):  # an eps rule spoke first
            with pytest.raises(PlanError) as valid_gamma:
                _plan(command, {**values, "gamma": DEFAULT_GAMMA})
            assert valid_gamma.value.keys == ("eps",)
        if annulus:
            assert (keys[0] == "R") == (not 0.0 < values.get("R", 1.0) < np.pi)
    text = f"command = {command}\n" + "".join(
        f"{k} = {', '.join(map(repr, v)) if k == 'eps' else repr(v)}\n"
        for k, v in values.items())
    try:
        parse_config(text)
    except ConfigError as exc:
        assert keys is not None, text
        assert exc.key == next((k for k in keys if k in values), "command"), text
    else:
        assert keys is None, text


def test_capacity_with_n_takes_any_eps():
    cfg = parse_config("command = capacity\neps = 0.3\ngamma = 2\nn = 64\n")
    assert cfg.eps == [0.3] and cfg.n == 64


@pytest.mark.parametrize("constructor, message", [
    ("constant(0.5)", "constant coefficient must be >= 1"),
    ("two_phase(eps=1/4, beta=0.5, rho=1/4)", "beta must be >= 1"),
    ("two_phase(eps=2/7, beta=4, rho=1/4)", "1/eps must be an integer"),
    ("two_phase(eps=1/2, beta=4, rho=2)", "rho must lie in"),
    ("fiber_lattice(eps=1/3, r=4, beta=10)", "r_eps must lie in"),
    ("fiber(eps=1/3, gamma=2, beta=0.5)", "beta must be >= 1"),
])
def test_spec_constraints_are_config_errors(constructor, message):
    # the microstructure spec's own checks surface with the key and line
    with pytest.raises(ConfigError, match=message) as exc:
        parse_config(f"command = homogenize\nn = 48\na = {constructor}\n")
    assert exc.value.key == "a" and exc.value.line == 3


def test_mixed_tuple_lengths():
    msg = err(
        "command = bloch\na = constant(1)\nn = 8\n"
        "eta = (0.1, 0.2); (0.1, 0.2, 0.3)\n"
    )
    assert "mixed tuple lengths" in msg


@pytest.mark.parametrize("text, key, line, message", [
    ("command = bloch\na = constant(1)\nn = 8\neta = 0.3, 0.2\n", "eta", 4,
     "parenthesized tuple"),
    ("command = bloch\na = constant(1)\nn = 8\neta = ()\n", "eta", 4, "empty tuple"),
    ("command = bloch\na = constant(1)\nn = 8\neta = (0.1, 0.2, 0.3, 0.4)\n", "eta", 4,
     "1-3 components"),
    ("command = homogenize\nn = 8\na = constant\n", "a", 3, "constructor call"),
    ("command = homogenize\nn = 8\na = two_phase(eps=1/2, eps=1/2, beta=4, rho=1/2)\n",
     "a", 3, "argument given twice"),
    ("command = homogenize\nn = 8\na = marble(eps=1/2)\n", "a", 3,
     "unknown microstructure 'marble'"),
    ("command = homogenize\nn = 8\na = two_phase(1/2)\n", "a", 3, "named arguments only"),
    ("command = homogenize\nn = 8\na = constant(2, value=3)\n", "a", 3,
     "argument 'value' given twice"),
    ("command = homogenize\na = constant(1)\nn = 8.5\n", "n", 3, "expected an integer"),
])
def test_parser_refusals_name_key_and_line(text, key, line, message):
    with pytest.raises(ConfigError, match=message) as exc:
        parse_config(text)
    assert exc.value.key == key and exc.value.line == line


def test_bad_fraction():
    msg = err("command = experiment:thm22\neps = 1/0\n")
    assert "fraction" in msg


def test_constructor_unknown_argument():
    msg = err("command = homogenize\na = constant(1, wobble=2)\n")
    assert "wobble" in msg
    # fiber_lattice has no outer radius: the capacity command owns R
    msg = err("command = homogenize\nn = 48\n"
              "a = fiber_lattice(eps=1/3, r=0.5, beta=10, R=3)\n")
    assert "unknown argument 'R' for fiber_lattice()" in msg


#: constructor -> (grid side, two valid values of every argument).  The
#: first values make the base call; the grid resolves the base call with
#: any one argument changed to its second value.
_ARGUMENT_VALUES = {
    "constant": (8, {"value": ("1", "2")}),
    "two_phase": (64, {"eps": ("1/2", "1/4"), "beta": ("4", "9"),
                       "rho": ("1/2", "1/4"), "shape": ("square", "disc")}),
    "fiber": (96, {"eps": ("1/2", "1/3"), "gamma": ("2", "4"),
                   "beta": ("10", "100")}),
    "fiber_lattice": (96, {"eps": ("1/2", "1/3"), "r": ("0.5", "1"),
                           "beta": ("10", "100")}),
    "from_file": (8, {"path": ("{dump}1.blf", "{dump}2.blf")}),
}


def test_every_constructor_argument_reaches_the_medium(tmp_path):
    # an argument the config accepts changes the rasterized coefficients
    for k in (1, 2):
        write_field_dump(tmp_path / f"dump{k}.blf", np.full(64, 1.0 + k), (8, 8))
    assert set(_ARGUMENT_VALUES) == set(_CONSTRUCTORS)
    for name, (n, values) in _ARGUMENT_VALUES.items():
        assert list(values) == list(_CONSTRUCTORS[name][0]), name

        def medium(args):
            call = ", ".join(f"{arg}={v}" for arg, v in args.items())
            call = call.replace("{dump}", str(tmp_path / "dump"))
            cfg = parse_config(f"command = homogenize\nn = {n}\na = {name}({call})\n")
            return rasterize(cfg.a, make_grid(2, (n, n))).a

        base = {arg: pair[0] for arg, pair in values.items()}
        for arg, (_, other) in values.items():
            assert not np.array_equal(medium(base), medium({**base, arg: other})), \
                (name, arg)


def test_constructor_missing_argument():
    msg = err("command = homogenize\na = two_phase(eps=1/2, beta=4)\n")
    assert "rho" in msg


def test_bad_shape_word():
    msg = err(
        "command = homogenize\n"
        "a = two_phase(eps=1/2, beta=4, rho=1/2, shape=blob)\n"
    )
    assert "square or disc" in msg


def test_not_key_value_line():
    assert "key = value" in err("command = homogenize\njust words\n")


def test_config_error_attributes():
    with pytest.raises(ConfigError) as exc:
        parse_config("command = homogenize\na = constant(1)\nbogus = 1\n")
    assert exc.value.line == 3
    assert exc.value.key == "bogus"
