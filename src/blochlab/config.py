"""Run configuration: a strict line-oriented ``key = value`` document.

Grammar (UTF-8, ``#`` comments):

* scalars — finite decimal integers and floats, fractions (``1/6``, read
  as the nearest float), bare words;
* tuples — ``(0.3, 0.2)``;
* constructor calls — ``two_phase(eps=1/6, beta=36, rho=1/6, shape=square)``
  (the nested section of the document: named arguments under one key);
* semicolon lists — ``(0.3,0.2); (0.1,0.0)`` or ``1/2, 1/4, 1/8`` for the
  epsilon ladder.

Two tables hold the schema: ``_KINDS`` gives every key its value kind, and
``_COMMANDS`` gives every command the keys it requires and the keys it may
take; ``_CONSTRUCTORS`` does the same for the arguments of each
microstructure constructor.  A kind is syntax only (a number, an integer,
a list or tuple of numbers, a call): no kind bounds a value.  Each value
rule has one home, the medium or planner that owns it, which the parser
runs: the microstructure specs' own checks as it builds ``a``, then, on one
refusal path, an experiment harness's ``eta`` and ``t_list`` checks and the
command family's planner in :mod:`blochlab.plan` (a sweep's plan, a single
command's grid, ``capacity``'s mode and rows).  Unknown keys, keys the
command does not read, missing keys, wrong types and every refusal of
those rules are all rejected here, with the key and line number.

A key left out stays ``None``, and the run fills its default: an
experiment's eps ladder, ``gamma``, ``eta`` and ``t_list`` come from its
harness, and ``capacity``'s ``R`` and annulus ``n`` from
:func:`blochlab.plan.plan_capacity`.  Parsing is deterministic, so the
text parsed, which :class:`RunConfig` keeps and the run's sidecar records,
is all a rerun needs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .experiments import check_eta, check_t_list
from .microstructure import Constant, FiberLattice, FromFile, TwoPhaseInclusion, radius_for_gamma
from .plan import PlanError, _blame, fiber_beta, plan_capacity, plan_single, plan_sweep

#: key -> value kind
_KINDS = {
    "command": "command",
    "a": "microstructure",
    "eta": "vector_list",
    "eps": "number_list",
    "n": "int",
    "gamma": "number",
    "t_list": "number_list",
    "r": "number",
    "R": "number",
}

#: command -> (required keys, optional keys); ``command`` applies to every
#: command.  Which of its optional keys ``capacity`` needs is the mode rule
#: of :func:`blochlab.plan.plan_capacity`.
_COMMANDS = {
    "homogenize": (("a", "n"), ()),
    "bloch": (("a", "eta", "n"), ()),
    "dispersion": (("a", "eta", "n"), ()),
    "pw": (("a", "eta", "n"), ()),
    "capacity": ((), ("eps", "n", "gamma", "r", "R")),
    "experiment:thm22": ((), ("eta", "eps", "n")),
    "experiment:thm31": ((), ("eta", "eps", "n", "gamma")),
    "experiment:gap_map": ((), ("eta", "eps", "gamma", "t_list")),
    "experiment:pw_thm22": ((), ("eta", "eps")),
    "experiment:pw_fiber": ((), ("eta", "eps", "gamma")),
}

COMMANDS = tuple(c for c in _COMMANDS if not c.startswith("experiment:"))
EXPERIMENTS = tuple(c.split(":", 1)[1] for c in _COMMANDS if c.startswith("experiment:"))


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
    """A validated run request: the keys the config sets, in the types the
    run takes, and ``text``, the document they were parsed from, which no
    key sets.  A key left out is ``None``; the run fills its default."""

    command: str
    a: object | None = None                 # microstructure spec
    eta: list[tuple[float, ...]] | None = None  # momentum tuples
    eps: list[float] | None = None          # the eps ladder
    n: int | None = None
    gamma: float | None = None
    t_list: list[float] | None = None
    r: float | None = None
    R: float | None = None
    text: str = ""


# ---------------------------------------------------------------------------
# scanning


_INT_RE = re.compile(r"[+-]?[0-9]+")
_NUMBER_RE = re.compile(r"[+-]?([0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)([eE][+-]?[0-9]+)?")


def _parse_number(text: str, line: int, key: str) -> float:
    """The float of a finite decimal scalar token; a fraction ``p/q`` is
    ``int(p) / int(q)``, the float nearest to it."""
    text = text.strip()
    num, slash, den = (part.strip() for part in text.partition("/"))
    try:
        if slash:
            if not (_INT_RE.fullmatch(num) and _INT_RE.fullmatch(den)):
                raise ValueError
            value = int(num) / int(den)
        elif _NUMBER_RE.fullmatch(text):
            value = float(text)
        else:
            raise ValueError
        if not math.isfinite(value):
            raise ValueError
    except (ValueError, ArithmeticError):
        raise ConfigError(
            f"expected a finite decimal number or fraction, got {text!r}",
            line=line, key=key) from None
    return value


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
    """``(name, {argument: text})``; an unnamed argument is keyed ``None``."""
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
        arg, eq, val = part.partition("=")
        arg = arg.strip() if eq else None
        if arg in kwargs:
            raise ConfigError(f"{name}() argument given twice: {part!r}",
                              line=line, key=key)
        kwargs[arg] = val.strip() if eq else part
    return name, kwargs


# ---------------------------------------------------------------------------
# microstructure constructors


def _fiber(eps: float, gamma: float, beta: float | None = None) -> FiberLattice:
    """Fiber lattice whose radius gives capacity density ``gamma``, with the
    fiber sweeps' conductivity unless ``beta`` is given."""
    r = radius_for_gamma(eps, gamma)
    return FiberLattice(eps=eps, r_eps=r, beta=fiber_beta(eps, r) if beta is None else beta)


_NEEDED = object()

#: constructor -> ({argument: default}, spec builder).  ``_NEEDED`` marks a
#: required argument and ``None`` an optional one with no default.  The
#: builder gets every argument given or defaulted by name, ``shape`` and
#: ``path`` as words and the rest as floats.
_CONSTRUCTORS = {
    "constant": ({"value": 1.0}, lambda value: Constant(value)),
    "two_phase": ({"eps": _NEEDED, "beta": _NEEDED, "rho": _NEEDED,
                   "shape": "square"}, TwoPhaseInclusion),
    "fiber": ({"eps": _NEEDED, "gamma": _NEEDED, "beta": None}, _fiber),
    "fiber_lattice": ({"eps": _NEEDED, "r": _NEEDED, "beta": _NEEDED},
                      lambda r, **kw: FiberLattice(r_eps=r, **kw)),
    "from_file": ({"path": _NEEDED}, FromFile),
}
_WORD_ARGS = ("shape", "path")


def _build_microstructure(text: str, line: int, key: str):
    """The spec of a constructor call; every failure, the spec's own checks
    included, is a :class:`ConfigError`."""
    name, given = _parse_call(text, line, key)
    if name not in _CONSTRUCTORS:
        raise ConfigError(f"unknown microstructure {name!r}; known: "
                          f"{', '.join(_CONSTRUCTORS)}", line=line, key=key)
    params, build = _CONSTRUCTORS[name]
    if None in given:  # a sole argument may go unnamed: constant(2)
        first, *rest = params
        if rest:
            raise ConfigError(f"{name}() takes named arguments only",
                              line=line, key=key)
        if first in given:
            raise ConfigError(f"{name}() argument {first!r} given twice",
                              line=line, key=key)
        given[first] = given.pop(None)
    for arg in given:
        if arg not in params:
            raise ConfigError(f"unknown argument {arg!r} for {name}(); "
                              f"allowed: {', '.join(params)}", line=line, key=key)
    args = {}
    for arg, default in params.items():
        if arg in given:
            raw = given[arg]
            args[arg] = raw if arg in _WORD_ARGS else _parse_number(raw, line, key)
        elif default is _NEEDED:
            raise ConfigError(f"{name}() needs argument {arg!r}", line=line, key=key)
        elif default is not None:
            args[arg] = default
    try:
        return build(**args)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(str(exc), line=line, key=key) from None


# ---------------------------------------------------------------------------
# parsing


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document, planning its run's grids with
    the command family's planner."""
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
        if key not in _KINDS:
            raise ConfigError(
                f"unknown key {key!r}; known keys: {', '.join(_KINDS)}",
                line=lineno, key=key)
        if key in entries:
            raise ConfigError("duplicate key", line=lineno, key=key)
        if not value:
            raise ConfigError("empty value", line=lineno, key=key)
        entries[key] = (value, lineno)

    if "command" not in entries:
        raise ConfigError("missing required key 'command'")
    command, cmd_line = entries.pop("command")
    if command not in _COMMANDS:
        if command.startswith("experiment:"):
            raise ConfigError(
                f"unknown experiment {command.split(':', 1)[1]!r}; "
                f"known: {', '.join(EXPERIMENTS)}", line=cmd_line, key="command")
        raise ConfigError(
            f"unknown command {command!r}; known: {', '.join(COMMANDS)} "
            f"or experiment:<name>", line=cmd_line, key="command")
    required, optional = _COMMANDS[command]

    cfg = RunConfig(command=command, text=text)
    for key, (value, lineno) in entries.items():
        if key not in required + optional:
            raise ConfigError(
                f"key not valid for command {command!r}", line=lineno, key=key)
        kind = _KINDS[key]
        if kind == "microstructure":
            parsed = _build_microstructure(value, lineno, key)
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
        elif kind == "number_list":
            parsed = [_parse_number(p, lineno, key)
                      for p in _split_top(value, ",") if p.strip()]
        elif kind == "int":
            _parse_number(value, lineno, key)  # finite, so int() reads every digit
            if not _INT_RE.fullmatch(value):
                raise ConfigError(f"expected an integer, got {value!r}",
                                  line=lineno, key=key)
            parsed = int(value)
        else:  # "number"
            parsed = _parse_number(value, lineno, key)
        if kind.endswith("_list") and not parsed:
            raise ConfigError("empty list", line=lineno, key=key)
        setattr(cfg, key, parsed)

    for key in required:
        if key not in entries:
            raise ConfigError(f"command {command!r} requires key {key!r}",
                              line=cmd_line, key=key)
    # the value rules, run by the command family's one planner as the run
    # runs them; a refusal names the first key the failing rule reads that
    # the config sets, else the first it reads, on the command's line
    try:
        if command.startswith("experiment:"):
            name = command.split(":", 1)[1]
            for key, check in (("eta", lambda v: check_eta(name, v[0])),
                               ("t_list", check_t_list)):
                if key in entries:
                    with _blame(key):
                        check(getattr(cfg, key))
            plan_sweep(name, cfg.eps, gamma=cfg.gamma, n=cfg.n)
        elif command == "capacity":
            plan_capacity(cfg.eps, cfg.gamma, r=cfg.r, R=cfg.R, n=cfg.n)
        else:
            plan_single(cfg.a, cfg.n, cfg.eta)
    except PlanError as exc:
        key = next((k for k in exc.keys if k in entries), exc.keys[0])
        line = entries[key][1] if key in entries else cmd_line
        raise ConfigError(str(exc), line=line, key=key) from None
    return cfg
