from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlab.config import ConfigError, parse_config
from blochlab.microstructure import Constant, FiberLattice, TwoPhaseInclusion


def test_minimal_config_defaults():
    cfg = parse_config("command = homogenize\na = constant(2)\n")
    assert cfg.command == "homogenize"
    assert isinstance(cfg.a, Constant)
    assert cfg.a.a0 == 2
    assert cfg.out == "."
    assert cfg.q_normalization == "cell-average"


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


def test_fractions_stay_exact():
    cfg = parse_config("command = experiment:thm22\neps = 1/2, 1/4, 1/8\n")
    assert cfg.eps == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    out = cfg.serialize()
    assert "1/2, 1/4, 1/8" in out


def test_two_phase_constructor():
    cfg = parse_config(
        "command = homogenize\n"
        "a = two_phase(eps=1/4, beta=16, rho=1/4, shape=disc)\n"
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


def test_roundtrip_identity():
    text = (
        "command = dispersion\n"
        "a = two_phase(eps=1/2, beta=4, rho=1/2, shape=square)\n"
        "eta = (0.25, 0.0)\nn = 32\n"
    )
    cfg = parse_config(text)
    once = cfg.serialize()
    twice = parse_config(once).serialize()
    assert once == twice


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["homogenize", "bloch", "dispersion", "pw"]),
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=1, max_value=1000),
)
def test_roundtrip_generated(command, denom, beta):
    lines = [
        f"command = {command}",
        f"a = two_phase(eps=1/{denom}, beta={beta}, rho=1/{denom})",
        f"n = {8 * denom}",
    ]
    if command != "homogenize":
        lines.append("eta = (0.1, 0.0); (0.0, 0.2)")
    cfg = parse_config("\n".join(lines) + "\n")
    once = cfg.serialize()
    assert parse_config(once).serialize() == once


# ---------------------------------------------------------------------------
# error paths


def err(text):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    return str(exc.value)


def test_unknown_key_reports_line():
    msg = err("command = homogenize\na = constant(1)\nbogus = 3\n")
    assert "line 3" in msg and "bogus" in msg


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
    msg = err("command = capacity\ngamma = -1\n")
    assert "strictly positive" in msg


def test_bad_q_normalization():
    msg = err("command = homogenize\na = constant(1)\nq_normalization = lumped\n")
    assert "cell-average" in msg


def test_mixed_tuple_lengths():
    msg = err(
        "command = bloch\na = constant(1)\nn = 8\n"
        "eta = (0.1, 0.2); (0.1, 0.2, 0.3)\n"
    )
    assert "mixed tuple lengths" in msg


def test_bad_fraction():
    msg = err("command = experiment:thm22\neps = 1/0\n")
    assert "fraction" in msg


def test_constructor_unknown_argument():
    msg = err("command = homogenize\na = constant(1, wobble=2)\n")
    assert "wobble" in msg


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
