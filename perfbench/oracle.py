"""Independent references for the eigenvalue and Poincare-constant cells.

Each reference is computed on the same discrete pencil the program solves,
rebuilt here from the cell parameters alone (no blochlab code): the
link-phase face stencil with harmonic-mean face coefficients on a periodic
cell-centered grid over (0, 2 pi)^2, mass matrix ``w I``.

* First eigenvalues: ``scipy.sparse.linalg.eigsh(B, k=2, M=diag(M),
  sigma=0, tol=1e-13)`` (shift-invert, sparse LU).  Each value carries its
  Kato-Temple bound ``||r||^2 / (lambda2 - lambda1)`` relative to lambda1.
* Weighted Poincare constants: the largest eigenvalue of the weight form
  minus its rank-one mean shift against the stiffness ``K`` grounded at
  cell 0 (``K`` with row and column 0 removed is positive definite), by
  ARPACK in generalized mode with a sparse LU of the grounded ``K``.

A pencil is named by a canonical key string built from its parameters.
References of the fixed workloads are computed on demand by run.py, outside
every timed region, then checked and moved into ``oracle_cache.json``
beside this file; inputs made from a seed are never committed.

    PYTHONPATH=src python3 perfbench/oracle.py .bench_run/oracle_local.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu

CACHE_PATH = Path(__file__).resolve().parent / "oracle_cache.json"
_PI = math.pi
_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# fields and pencils


def fiber_section(m: int, r: float, beta: float) -> np.ndarray:
    """Unit fiber cross-section: disc of radius ``r`` at (pi, pi)."""
    c = (np.arange(m) + 0.5) * (_TWO_PI / m)
    y = np.mod(c, _TWO_PI)
    inside = (y[:, None] - _PI) ** 2 + (y[None, :] - _PI) ** 2 < r**2
    return np.where(inside, float(beta), 1.0).ravel()


def square_inclusions(n: int, s: int, beta: float, rho: float) -> np.ndarray:
    """One centered square of side ``2 pi rho / s`` per sub-cell of period
    ``2 pi / s``."""
    c = (np.arange(n) + 0.5) * (_TWO_PI / n)
    y = np.mod(c * s, _TWO_PI)
    near = np.abs(y - _PI) < _PI * rho
    inside = near[:, None] & near[None, :]
    return np.where(inside, float(beta), 1.0).ravel()


def field_values(field: dict) -> tuple[int, np.ndarray]:
    """Cells per axis and per-cell coefficient for a field description."""
    kind = field["kind"]
    if kind == "fiber":
        return field["m"], fiber_section(field["m"], field["r"], field["beta"])
    if kind == "two_phase":
        return field["n"], square_inclusions(
            field["n"], field["s"], field["beta"], field["rho"])
    if kind == "file":
        raw = Path(field["path"]).read_bytes()
        n = field["n"]
        return n, np.frombuffer(raw, dtype="<f8", offset=32, count=n * n).copy()
    raise ValueError(f"unknown field kind {kind!r}")


def stiffness(a: np.ndarray, n: int, eta=(0.0, 0.0)) -> sp.csr_matrix:
    """``B(eta)``: face sum of ``w a_f |exp(i eta_k h) u_j - u_i|^2 / h^2``."""
    h = _TWO_PI / n
    w = h * h
    idx = np.arange(n * n).reshape(n, n)
    complex_ = any(float(e) != 0.0 for e in eta)
    diag = np.zeros(n * n)
    rows, cols, vals = [], [], []
    for k in range(2):
        i = idx.ravel()
        j = np.roll(idx, -1, axis=k).ravel()
        coeff = w * (2.0 * a[i] * a[j] / (a[i] + a[j])) / (h * h)
        np.add.at(diag, i, coeff)
        np.add.at(diag, j, coeff)
        off = -coeff * np.exp(1j * float(eta[k]) * h) if complex_ else -coeff
        rows += [i, j]
        cols += [j, i]
        vals += [off, np.conj(off)]
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(diag)
    data = np.concatenate(vals)
    return sp.csr_matrix(
        (data, (np.concatenate(rows), np.concatenate(cols))), shape=(n * n, n * n))


def _pencil(spec: dict) -> tuple[sp.csr_matrix, np.ndarray, float]:
    """``(B, M_diag, divisor)``: the program reports ``lambda / divisor``."""
    n, a = field_values(spec["field"])
    eps = float(spec.get("eps", 1.0))
    h = _TWO_PI / n
    w = h * h
    eta = eps * np.asarray(spec["eta"], dtype=np.float64)
    B = stiffness(a, n, eta)
    eta3 = float(spec.get("eta3", 0.0))
    if spec["field"]["kind"] == "fiber":
        # axis-3 invariant reduction: eps^-2 B2(eps eta') + eta3^2 diag(w a)
        B = (B * (1.0 / eps**2) + sp.diags(eta3**2 * w * a)).tocsr()
        return B, np.full(n * n, w), 1.0
    return B, np.full(n * n, w), eps**2


def first_eigenvalue(spec: dict) -> dict:
    B, M, divisor = _pencil(spec)
    vals, vecs = eigsh(B, k=2, M=sp.diags(M), sigma=0, which="LM", tol=1e-13)
    order = np.argsort(vals)
    lam1, lam2 = float(vals[order[0]]), float(vals[order[1]])
    x = vecs[:, order[0]]
    # standard form A = B / w (M = w I): Kato-Temple on the Rayleigh pair
    r = (B @ x) / M - lam1 * x
    res = float(np.linalg.norm(r) / np.linalg.norm(x))
    bound = res * res / (lam2 - lam1)
    return {"value": lam1 / divisor, "rel_bound": bound / abs(lam1)}


def poincare_constant(spec: dict) -> dict:
    n, a = field_values(spec["field"])
    h = _TWO_PI / n
    w = h * h
    lam = np.asarray(spec["lam"], dtype=np.float64)
    weight = w * (a * float(lam @ lam))
    K = stiffness(a, n).tocsc()
    Kg = K[1:, 1:].tocsc()
    wg = weight[1:]
    total = float(weight.sum())

    def shifted_weight(v):
        v = np.asarray(v).ravel()
        return wg * v - wg * (wg @ v) / total

    S = LinearOperator(Kg.shape, matvec=shifted_weight, dtype=np.float64)
    lu = splu(Kg)
    Kinv = LinearOperator(Kg.shape, matvec=lu.solve, dtype=np.float64)
    vals = eigsh(S, k=2, M=Kg, Minv=Kinv, which="LA", tol=1e-13,
                 return_eigenvectors=False)
    return {"value": float(np.max(vals))}


def compute(spec: dict) -> dict:
    if spec["kind"] == "lambda1":
        return first_eigenvalue(spec)
    if spec["kind"] == "pw":
        return poincare_constant(spec)
    raise ValueError(f"unknown reference kind {spec['kind']!r}")


def key_of(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def file_field(path: Path, n: int) -> dict:
    """Field description of a dump, named by its content digest."""
    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    return {"kind": "file", "n": n, "sha256": digest, "path": str(path)}


# ---------------------------------------------------------------------------
# cache


class Oracle:
    """References by key: committed cache first, then a local cache that
    collects on-demand values for seed-made inputs."""

    def __init__(self, local_path: Path):
        self.committed = json.loads(CACHE_PATH.read_text()) if CACHE_PATH.exists() else {}
        self.local_path = local_path
        self.local = json.loads(local_path.read_text()) if local_path.exists() else {}
        self.computed = 0

    def get(self, spec: dict) -> float:
        stored = dict(spec)
        if stored["field"]["kind"] == "file":
            stored["field"] = {k: v for k, v in stored["field"].items() if k != "path"}
        key = key_of(stored)
        hit = self.committed.get(key) or self.local.get(key)
        if hit is None:
            hit = compute(spec)
            self.local[key] = hit
            self.computed += 1
        return hit["value"]

    def save(self) -> None:
        if self.computed:
            self.local_path.parent.mkdir(parents=True, exist_ok=True)
            self.local_path.write_text(json.dumps(self.local, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# self-checks


def symbol_checks() -> None:
    """The oracle reproduces the constant-medium discrete symbol."""
    n = 48
    h = _TWO_PI / n
    for eta in ((0.25, 0.0), (0.1, -0.2), (0.3, 0.2)):
        symbol = sum(4.0 * math.sin(e * h / 2) ** 2 / h**2 for e in eta)
        got = first_eigenvalue({"kind": "lambda1", "eta": list(eta),
                                "field": {"kind": "two_phase", "n": n, "s": 4,
                                          "beta": 1.0, "rho": 0.25}})["value"]
        if abs(got - symbol) > 1e-10 * symbol:
            raise RuntimeError(f"oracle misses the symbol at {eta}: {got} vs {symbol}")
    # fiber reduction of a constant medium: eps^-2 symbol(eps eta') + eta3^2
    eps, eta, eta3 = 0.25, (0.2, 0.2), 0.3
    symbol = sum(4.0 * math.sin(eps * e * h / 2) ** 2 / h**2 for e in eta) / eps**2
    symbol += eta3**2
    got = first_eigenvalue({"kind": "lambda1", "eps": eps, "eta": list(eta),
                            "eta3": eta3,
                            "field": {"kind": "fiber", "m": n, "r": 0.5,
                                      "beta": 1.0}})["value"]
    if abs(got - symbol) > 1e-10 * symbol:
        raise RuntimeError(f"fiber oracle misses the symbol: {got} vs {symbol}")
    # Poincare constant of a constant medium: |lam|^2 / (4 sin^2(h/2) / h^2)
    lam = (0.25, 0.0)
    closed = 0.0625 / (4.0 * math.sin(h / 2) ** 2 / h**2)
    got = poincare_constant({"kind": "pw", "lam": list(lam),
                             "field": {"kind": "two_phase", "n": n, "s": 4,
                                       "beta": 1.0, "rho": 0.25}})["value"]
    if abs(got - closed) > 1e-10 * closed:
        raise RuntimeError(f"Poincare oracle misses the closed form: {got} vs {closed}")


def _check_against_program(spec: dict) -> None:
    """Cross-check field and stiffness against the program's own assembly."""
    from blochlab.bloch import assemble_shifted
    from blochlab.grid import make_grid
    from blochlab.microstructure import FiberLattice, TwoPhaseInclusion, rasterize

    f = spec["field"]
    n, a = field_values(f)
    if f["kind"] == "fiber":
        prog = rasterize(FiberLattice(eps=1.0, r_eps=f["r"], beta=f["beta"]),
                         make_grid(2, (n, n)))
    else:
        prog = rasterize(TwoPhaseInclusion(eps=1.0 / f["s"], beta=f["beta"],
                                           rho=f["rho"]), make_grid(2, (n, n)))
    if not np.array_equal(prog.a, a):
        raise RuntimeError(f"field differs from the program's: {key_of(f)}")
    eta = float(spec.get("eps", 1.0)) * np.asarray(spec.get("eta", (0.0, 0.0)))
    Bp, _ = assemble_shifted(prog, eta)
    Bo = stiffness(a, n, eta)
    diff = abs(Bp - Bo).max()
    if diff > 1e-13 * abs(Bo).max():
        raise RuntimeError(f"stiffness differs from the program's by {diff:.3e}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Check the oracle, then move the references that run.py "
                    "computed for the fixed workloads into oracle_cache.json.")
    parser.add_argument("local", type=Path,
                        help="local cache written by run.py (.bench_run/oracle_local.json)")
    args = parser.parse_args(argv)
    symbol_checks()
    cache = json.loads(CACHE_PATH.read_text()) if CACHE_PATH.exists() else {}
    local = json.loads(args.local.read_text())
    for key, ref in sorted(local.items()):
        spec = json.loads(key)
        if spec["field"]["kind"] == "file":
            continue  # made from a seed: never committed
        if ref.get("rel_bound", 0.0) > 1e-9:
            raise RuntimeError(f"loose Kato-Temple bound {ref['rel_bound']:.2e}: {key}")
        _check_against_program(spec)
        cache[key] = ref
    CACHE_PATH.write_text(json.dumps(cache, indent=1, sort_keys=True) + "\n")
    print(f"{len(cache)} references in {CACHE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
