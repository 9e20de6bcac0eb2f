"""Run configuration: a strict line-oriented ``key = value`` document.

Grammar (UTF-8, ``#`` comments):

* scalars — integers, floats, exact fractions (``1/6``), bare words;
* tuples — ``(0.3, 0.2)``;
* constructor calls — ``two_phase(eps=1/6, beta=36, rho=1/6, shape=square)``
  (the nested section of the document: named arguments under one key);
* semicolon lists — ``(0.3,0.2); (0.1,0.0)`` or ``1/2, 1/4, 1/8`` for the
  epsilon ladder.

Unknown keys, wrong types, and constraint violations are rejected with the
key path and line number.  ``serialize`` emits the canonical form (schema
key order, defaults filled, shortest float representation, fractions kept
exact), and parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .microstructure import (
    Constant,
    FiberLattice,
    FromFile,
    TwoPhaseInclusion,
    default_beta,
    radius_for_gamma,
)

COMMANDS = ("homogenize", "bloch", "dispersion", "pw", "capacity")
EXPERIMENTS = ("thm22", "thm31", "gap_map", "pw_thm22", "pw_fiber")

#: schema: key -> (kind, commands it applies to); "*" = every command
_SCHEMA = {
    "command": ("command", "*"),
    "a": ("microstructure", ("homogenize", "bloch", "dispersion", "pw")),
    "eta": ("vector_list", ("bloch", "dispersion", "pw", "experiment:thm22",
                            "experiment:thm31", "experiment:gap_map",
                            "experiment:pw_thm22", "experiment:pw_fiber")),
    "eps": ("fraction_list", ("experiment:thm22", "experiment:thm31",
                              "experiment:gap_map", "experiment:pw_thm22",
                              "experiment:pw_fiber", "capacity")),
    "n": ("positive_int", ("homogenize", "bloch", "dispersion", "pw", "capacity",
                           "experiment:thm22", "experiment:thm31")),
    "out": ("string", "*"),
    "q_normalization": ("q_norm", "*"),
    "gamma": ("positive", ("experiment:thm31", "experiment:gap_map",
                           "experiment:pw_fiber", "capacity")),
    "t_list": ("number_list", ("experiment:gap_map",)),
    "r": ("positive", ("capacity",)),
    "R": ("positive", ("capacity",)),
}

_REQUIRED = {
    "homogenize": ("a",),
    "bloch": ("a", "eta"),
    "dispersion": ("a", "eta"),
    "pw": ("a", "eta"),
    "capacity": (),
    "experiment:thm22": (),
    "experiment:thm31": (),
    "experiment:gap_map": (),
    "experiment:pw_thm22": (),
    "experiment:pw_fiber": (),
}

_DEFAULTS = {
    "out": ".",
    "q_normalization": "cell-average",
}


class ConfigError(ValueError):
    """Parse or validation failure; message carries key path and line."""

    def __init__(self, message: str, *, line: int | None = None,
                 key: str | None = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if key is not None:
            loc.append(f"key '{key}'")
        prefix = ", ".join(loc)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.line = line
        self.key = key


@dataclass
class RunConfig:
    """A validated run request with every default recorded."""

    command: str
    a: object | None = None           # microstructure spec
    a_form: tuple | None = None       # (constructor name, kwargs) for a
    eta: list | None = None           # list of momentum tuples
    eps: list | None = None           # list of Fractions
    n: int | None = None
    out: str = "."
    q_normalization: str = "cell-average"
    gamma: object | None = None
    t_list: list | None = None
    r: object | None = None
    R: object | None = None

    def serialize(self) -> str:
        lines = [f"command = {self.command}"]
        for key in ("a", "eta", "eps", "n", "out", "q_normalization",
                    "gamma", "t_list", "r", "R"):
            if not _key_applies(key, self.command):
                continue
            value = self.a_form if key == "a" else getattr(self, key)
            if value is None:
                continue
            lines.append(f"{key} = {_format_value(key, value)}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# value formatting (canonical forms)


def _fmt_number(v) -> str:
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, bool):
        raise TypeError("booleans have no config syntax")
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _fmt_tuple(t) -> str:
    return "(" + ", ".join(_fmt_number(v) for v in t) + ")"


_MICRO_ARG_ORDER = {
    "constant": ("value",),
    "two_phase": ("eps", "beta", "rho", "shape"),
    "fiber": ("eps", "gamma", "beta"),
    "fiber_lattice": ("eps", "r", "beta", "R"),
    "from_file": ("path",),
}


def _format_value(key: str, value) -> str:
    kind = _SCHEMA[key][0]
    if kind == "microstructure":
        name, kwargs = value
        order = _MICRO_ARG_ORDER[name]
        parts = []
        for arg in order:
            if arg not in kwargs:
                continue
            v = kwargs[arg]
            parts.append(f"{arg}={v if isinstance(v, str) else _fmt_number(v)}")
        return f"{name}({', '.join(parts)})"
    if kind == "vector_list":
        return "; ".join(_fmt_tuple(t) for t in value)
    if kind in ("fraction_list", "number_list"):
        return ", ".join(_fmt_number(v) for v in value)
    if kind == "positive_int":
        return str(value)
    if kind == "positive":
        return _fmt_number(value)
    return str(value)


# ---------------------------------------------------------------------------
# scanning


_NUMBER_RE = re.compile(
    r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?"
)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.:\-]*")


def _parse_number(text: str, line: int, key: str):
    """int, float, or Fraction from a scalar token."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            f = Fraction(int(num.strip()), int(den.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad fraction {text!r} ({exc})",
                              line=line, key=key) from None
        return f
    try:
        if re.fullmatch(r"[+-]?\d+", text):
            return int(text)
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}",
                          line=line, key=key) from None


def _split_top(text: str, sep: str) -> list[str]:
    """Split on ``sep`` outside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _parse_tuple(text: str, line: int, key: str) -> tuple:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ConfigError(f"expected a parenthesized tuple, got {text!r}",
                          line=line, key=key)
    items = [s for s in _split_top(body[1:-1], ",") if s.strip()]
    if not items:
        raise ConfigError("empty tuple", line=line, key=key)
    return tuple(_parse_number(s, line, key) for s in items)


def _parse_call(text: str, line: int, key: str):
    m = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$", text, re.S)
    if not m:
        raise ConfigError(
            f"expected constructor call name(arg=value, ...), got {text!r}",
            line=line, key=key)
    name, body = m.group(1), m.group(2)
    kwargs = {}
    for part in _split_top(body, ","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            # single positional argument allowed: constant(1)
            kwargs[None] = part
            continue
        arg, _, val = part.partition("=")
        kwargs[arg.strip()] = val.strip()
    return name, kwargs


# ---------------------------------------------------------------------------
# microstructure constructors


def _require_args(name, kwargs, allowed, required, line, key):
    for arg in kwargs:
        if arg not in allowed:
            raise ConfigError(
                f"unknown argument {arg!r} for {name}(); allowed: "
                f"{', '.join(a for a in allowed if a)}", line=line, key=key)
    for arg in required:
        if arg not in kwargs:
            raise ConfigError(f"{name}() needs argument {arg!r}",
                              line=line, key=key)


def _positive(value, what, line, key):
    if not (float(value) > 0):
        raise ConfigError(
            f"{what} must be strictly positive "
            f"(the critical-radius scaling exp(-1/(2*pi*eps^2*gamma)) and "
            f"the coefficient bounds are defined only for positive values); "
            f"got {value}", line=line, key=key)
    return value


def _build_microstructure(text: str, line: int, key: str):
    name, kw = _parse_call(text, line, key)
    if name == "constant":
        _require_args(name, kw, (None, "value"), (), line, key)
        raw = kw.get("value", kw.get(None, "1"))
        value = _parse_number(raw, line, key)
        return Constant(float(_positive(value, "constant coefficient", line, key))), ("constant", {"value": value})
    if name == "two_phase":
        _require_args(name, kw, ("eps", "beta", "rho", "shape"),
                      ("eps", "beta", "rho"), line, key)
        eps = _parse_number(kw["eps"], line, key)
        beta = _parse_number(kw["beta"], line, key)
        rho = _parse_number(kw["rho"], line, key)
        shape = kw.get("shape", "square")
        if shape not in ("square", "disc"):
            raise ConfigError(f"shape must be square or disc, got {shape!r}",
                              line=line, key=key)
        spec = TwoPhaseInclusion(
            eps=float(_positive(eps, "eps", line, key)),
            beta=float(_positive(beta, "beta", line, key)),
            rho=float(_positive(rho, "rho", line, key)),
            shape=shape,
        )
        return spec, ("two_phase", {
            "eps": eps, "beta": beta, "rho": rho, "shape": shape})
    if name == "fiber":
        _require_args(name, kw, ("eps", "gamma", "beta"), ("eps", "gamma"),
                      line, key)
        eps = _parse_number(kw["eps"], line, key)
        gamma = _parse_number(kw["gamma"], line, key)
        _positive(eps, "eps", line, key)
        _positive(gamma, "gamma", line, key)
        r = radius_for_gamma(float(eps), float(gamma))
        if "beta" in kw:
            beta = _parse_number(kw["beta"], line, key)
            _positive(beta, "beta", line, key)
        else:
            beta = default_beta(float(eps), r)
        spec = FiberLattice(eps=float(eps), r_eps=r, beta=float(beta))
        form = {"eps": eps, "gamma": gamma}
        if "beta" in kw:
            form["beta"] = beta
        return spec, ("fiber", form)
    if name == "fiber_lattice":
        _require_args(name, kw, ("eps", "r", "beta", "R"), ("eps", "r", "beta"),
                      line, key)
        eps = _parse_number(kw["eps"], line, key)
        r = _parse_number(kw["r"], line, key)
        beta = _parse_number(kw["beta"], line, key)
        _positive(eps, "eps", line, key)
        _positive(r, "fiber radius", line, key)
        _positive(beta, "beta", line, key)
        kwargs = dict(eps=float(eps), r_eps=float(r), beta=float(beta))
        form = {"eps": eps, "r": r, "beta": beta}
        if "R" in kw:
            R = _parse_number(kw["R"], line, key)
            kwargs["R"] = float(_positive(R, "R", line, key))
            form["R"] = R
        return FiberLattice(**kwargs), ("fiber_lattice", form)
    if name == "from_file":
        _require_args(name, kw, ("path", None), (), line, key)
        path = kw.get("path", kw.get(None))
        if path is None:
            raise ConfigError("from_file() needs a path", line=line, key=key)
        return FromFile(path), ("from_file", {"path": path})
    raise ConfigError(
        f"unknown microstructure {name!r}; known: constant, two_phase, "
        f"fiber, fiber_lattice, from_file", line=line, key=key)


# ---------------------------------------------------------------------------
# parsing


def _key_applies(key: str, command: str) -> bool:
    _, cmds = _SCHEMA[key]
    return cmds == "*" or command in cmds


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document; fill and record defaults."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}",
                              line=lineno)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ConfigError(
                f"unknown key {key!r}; known keys: {', '.join(_SCHEMA)}",
                line=lineno, key=key)
        if key in entries:
            raise ConfigError("duplicate key", line=lineno, key=key)
        if not value:
            raise ConfigError("empty value", line=lineno, key=key)
        entries[key] = (value, lineno)

    if "command" not in entries:
        raise ConfigError("missing required key 'command'")
    command, cmd_line = entries.pop("command")
    if command.startswith("experiment:"):
        name = command.split(":", 1)[1]
        if name not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}",
                line=cmd_line, key="command")
    elif command not in COMMANDS:
        raise ConfigError(
            f"unknown command {command!r}; known: {', '.join(COMMANDS)} "
            f"or experiment:<name>", line=cmd_line, key="command")

    cfg = RunConfig(command=command)
    for key, (value, lineno) in entries.items():
        if not _key_applies(key, command):
            raise ConfigError(
                f"key not valid for command {command!r}", line=lineno, key=key)
        kind = _SCHEMA[key][0]
        if kind == "microstructure":
            parsed, form = _build_microstructure(value, lineno, key)
            cfg.a_form = form
        elif kind == "vector_list":
            parts = [p for p in value.split(";") if p.strip()]
            parsed = [_parse_tuple(p, lineno, key) for p in parts]
            dims = {len(t) for t in parsed}
            if len(dims) > 1:
                raise ConfigError("mixed tuple lengths", line=lineno, key=key)
            if not dims <= {1, 2, 3}:
                raise ConfigError("tuples must have 1-3 components",
                                  line=lineno, key=key)
            if len(parsed) > 1 and command.startswith("experiment:"):
                raise ConfigError("an experiment takes one momentum tuple",
                                  line=lineno, key=key)
        elif kind == "fraction_list":
            parsed = [_parse_number(p, lineno, key)
                      for p in _split_top(value, ",") if p.strip()]
            for v in parsed:
                _positive(v, "eps", lineno, key)
        elif kind == "number_list":
            parsed = [_parse_number(p, lineno, key)
                      for p in _split_top(value, ",") if p.strip()]
        elif kind == "positive_int":
            v = _parse_number(value, lineno, key)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"expected a positive integer, got {value!r}",
                                  line=lineno, key=key)
            parsed = v
        elif kind == "positive":
            parsed = _positive(_parse_number(value, lineno, key),
                               key, lineno, key)
        elif kind == "q_norm":
            if value != "cell-average":
                raise ConfigError(
                    "the only supported normalization is 'cell-average' "
                    "(effective matrices are cell averages of the flux)",
                    line=lineno, key=key)
            parsed = value
        elif kind == "string":
            parsed = value
        else:  # pragma: no cover
            raise ConfigError(f"unhandled kind {kind}", line=lineno, key=key)
        if kind.endswith("_list") and not parsed:
            raise ConfigError("empty list", line=lineno, key=key)
        setattr(cfg, key, parsed)

    for key, default in _DEFAULTS.items():
        if getattr(cfg, key, None) in (None,) and _key_applies(key, command):
            setattr(cfg, key, default)

    for key in _REQUIRED[command]:
        if getattr(cfg, key) is None:
            raise ConfigError(f"command {command!r} requires key {key!r}",
                              key=key)
    if command == "capacity" and cfg.r is not None:
        for key in ("eps", "gamma"):
            if key in entries:
                raise ConfigError(
                    "not read in the annulus mode of capacity (r is set)",
                    line=entries[key][1], key=key)
    return cfg
