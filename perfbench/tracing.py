"""Traced blochlab CLI invocation, and the sparse-kernel probe.

    python3 perfbench/tracing.py --spans OUT.json -- --config C --out DIR --threads N
    python3 perfbench/tracing.py --probe OUT.json

The traced form imports blochlab, wraps the public functions named in
``TRACED`` with span recorders -- patching the name in every blochlab module
that holds it, since the modules import each other's functions by name --
hands the solvers a CSR subclass that counts and times its products, and
then calls ``blochlab.cli.main`` in this process.  Spans stay in memory
and are written with their per-metric totals when the invocation ends.
Self time is a span's duration minus the time of its child spans.

The probe times one ``B @ x`` on the largest fiber pencil (eps = 1/6 rung,
doubled mesh, N = 465,124, complex) and on the largest shrinking-inclusion
pencil (eps = 1/8, doubled mesh, N = 16,384).  Bytes and flops are computed
from the CSR arrays, not measured.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy.sparse as sp

#: (module, function) pairs wrapped in spans; metric prefix is "module.function"
TRACED = [
    ("cli", "main"), ("cli", "run_and_emit"), ("cli", "write_csv"), ("cli", "git_describe"),
    ("config", "parse_config"),
    ("fieldio", "read_field_dump"),
    ("microstructure", "rasterize"),
    ("bloch", "assemble_shifted"), ("bloch", "face_arrays"), ("bloch", "bloch_lambda1"),
    ("bloch", "bloch_reduced"), ("bloch", "fiber_lambda1_2d"),
    ("sparse_linalg", "smallest_eigpair"), ("sparse_linalg", "cg_solve"),
    ("sparse_linalg", "largest_geneig"),
    ("cell_problems", "homogenized"), ("cell_problems", "dispersion"),
    ("cell_problems", "pw_constant"),
    ("capacity", "scaled_energy"), ("capacity", "annulus_energy"),
    ("experiments", "run_thm22"), ("experiments", "run_thm31"),
    ("experiments", "run_gap_map"), ("experiments", "run_pw"),
]
MODULES = ["config", "fieldio", "grid", "microstructure", "bloch", "sparse_linalg",
           "cell_problems", "capacity", "experiments", "cli"]

#: per-layer metrics taken from the trace and the probe, with their units
LAYER_METRICS = [
    *[(f"{m}.self_s", "s") for m in MODULES],
    ("sparse_linalg.smallest_eigpair.calls", "count"),
    ("sparse_linalg.smallest_eigpair.self_s", "s"),
    ("sparse_linalg.smallest_eigpair.outer_iters", "count"),
    ("sparse_linalg.smallest_eigpair.block_matvec_cols", "count"),
    ("sparse_linalg.smallest_eigpair.inner_cg_matvecs", "count"),
    ("sparse_linalg.smallest_eigpair.failures", "count"),
    ("sparse_linalg.cg_solve.calls", "count"),
    ("sparse_linalg.cg_solve.self_s", "s"),
    ("sparse_linalg.cg_solve.matvecs", "count"),
    ("sparse_linalg.cg_solve.failures", "count"),
    ("sparse_linalg.largest_geneig.calls", "count"),
    ("sparse_linalg.largest_geneig.self_s", "s"),
    ("sparse_linalg.largest_geneig.cg_solves", "count"),
    ("sparse_linalg.largest_geneig.retries", "count"),
    ("sparse_linalg.matvec.calls", "count"),
    ("sparse_linalg.matvec.self_s", "s"),
    ("sparse_linalg.matvec.bytes_computed", "B"),
    ("sparse_linalg.matvec.flops_per_byte", "flop/B"),
    ("bloch.assemble_shifted.calls", "count"),
    ("bloch.assemble_shifted.self_s", "s"),
    ("bloch.assemble_shifted.nnz", "count"),
    ("bloch.face_arrays.calls", "count"),
    ("bloch.fiber_lambda1_2d.self_s", "s"),
    ("bloch.bloch_reduced.self_s", "s"),
    ("bloch.bloch_lambda1.self_s", "s"),
    ("cell_problems.homogenized.self_s", "s"),
    ("cell_problems.dispersion.self_s", "s"),
    ("cell_problems.pw_constant.self_s", "s"),
    ("grid.neighbor.calls", "count"),
    ("grid.neighbor.self_s", "s"),
    ("microstructure.rasterize.calls", "count"),
    ("microstructure.rasterize.self_s", "s"),
    ("microstructure.rasterize.cells", "count"),
    ("fieldio.read_field_dump.self_s", "s"),
    ("fieldio.read_field_dump.bytes", "B"),
    ("config.parse_config.self_s", "s"),
    ("capacity.scaled_energy.self_s", "s"),
    ("capacity.annulus_energy.self_s", "s"),
    ("cli.run_and_emit.self_s", "s"),
    ("cli.git_describe.self_s", "s"),
    ("cli.write_csv.self_s", "s"),
    ("kernel.fiber_465k.matvec_s", "s"),
    ("kernel.fiber_465k.bytes_computed", "B"),
    ("kernel.fiber_465k.flops_per_byte", "flop/B"),
    ("kernel.thm22_16k.matvec_s", "s"),
    ("kernel.thm22_16k.bytes_computed", "B"),
    ("kernel.thm22_16k.flops_per_byte", "flop/B"),
]


def matvec_cost(A: sp.csr_matrix, x: np.ndarray) -> tuple[int, int]:
    """Bytes a CSR product streams (matrix arrays, operand, result) and its
    flops: 8 per stored entry and column for complex, 2 for real."""
    cols = 1 if x.ndim == 1 else x.shape[1]
    out_item = np.result_type(A.dtype, x.dtype).itemsize
    nbytes = (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
              + x.nbytes + A.shape[0] * cols * out_item)
    per_entry = 8 if np.iscomplexobj(A.data) else (4 if np.iscomplexobj(x) else 2)
    return nbytes, per_entry * A.nnz * cols


class Tracer:
    """Nested spans of one single-threaded process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.stack: list[int] = []
        self.child_time: list[float] = []
        self.totals: dict[str, float] = defaultdict(float)

    def parent(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        self.child_time.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            children = self.child_time.pop()
            self.spans[idx][1:3] = [t0, t1]
            self.totals[f"{name}.calls"] += 1
            self.totals[f"{name}.self_s"] += (t1 - t0) - children
            self.totals[f"{name.split('.', 1)[0]}.self_s"] += (t1 - t0) - children
            if self.child_time:
                self.child_time[-1] += t1 - t0


class CountingCSR(sp.csr_matrix):
    """CSR matrix whose products are spans; counts go to ``bench_counts``
    under ``1d`` (single vectors) and ``cols`` (block columns)."""

    bench_tracer: Tracer | None = None
    bench_counts: dict | None = None

    def __matmul__(self, other):
        tracer, counts = self.bench_tracer, self.bench_counts
        if tracer is None or counts is None:
            return super().__matmul__(other)
        other_arr = np.asarray(other)
        if other_arr.ndim == 1:
            counts["1d"] += 1
        else:
            counts["cols"] += other_arr.shape[1]
        nbytes, flops = matvec_cost(self, other_arr)
        tracer.totals["sparse_linalg.matvec.bytes_computed"] += nbytes
        tracer.totals["sparse_linalg.matvec.flops"] += flops
        return tracer.call("sparse_linalg.matvec", super().__matmul__, other)


def counting(A, tracer: Tracer, counts: dict) -> CountingCSR:
    C = CountingCSR(A)
    C.bench_tracer, C.bench_counts = tracer, counts
    return C


def install(tracer: Tracer) -> None:
    """Wrap every ``TRACED`` function, and ``PeriodicGrid.neighbor``."""
    import blochlab.cli  # noqa: F401  (loads every module)
    from blochlab.grid import PeriodicGrid
    from blochlab.sparse_linalg import ConvergenceError

    T = tracer.totals

    def span(name, before=None, after=None):
        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if before:
                    before(*args, **kwargs)
                result = tracer.call(name, fn, *args, **kwargs)
                if after:
                    after(result)
                return result
            return wrapper
        return decorate

    def solver(name, matrix_arg, counters, finish=None):
        """A span that hands the solver its matrix as a CountingCSR."""
        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts = defaultdict(int)
                args = list(args)
                args[matrix_arg] = counting(args[matrix_arg], tracer, counts)
                parent = tracer.parent()
                result = exc = None
                try:
                    result = tracer.call(name, fn, *args, **kwargs)
                    return result
                except ConvergenceError as e:
                    exc = e
                    T[f"{name}.failures"] += 1
                    raise
                finally:
                    for key, metric in counters.items():
                        T[f"{name}.{metric}"] += counts[key]
                    if finish and (result is not None or exc is not None):
                        finish(result, exc, parent)
            return wrapper
        return decorate

    def eig_finish(result, exc, parent):
        iters = result.iterations if exc is None else len(exc.residual_history)
        T["sparse_linalg.smallest_eigpair.outer_iters"] += iters

    def cg_finish(result, exc, parent):
        if parent == "sparse_linalg.largest_geneig":
            T["sparse_linalg.largest_geneig.cg_solves"] += 1
            T["sparse_linalg.largest_geneig.retries"] += exc is not None

    def count_nnz(result):
        T["bloch.assemble_shifted.nnz"] += result[0].nnz

    def count_cells(spec, grid, *args, **kwargs):
        T["microstructure.rasterize.cells"] += grid.num_cells

    def count_bytes(path, *args, **kwargs):
        T["fieldio.read_field_dump.bytes"] += Path(path).stat().st_size

    wrappers = {
        "sparse_linalg.smallest_eigpair": solver(
            "sparse_linalg.smallest_eigpair", 0,
            {"1d": "inner_cg_matvecs", "cols": "block_matvec_cols"}, eig_finish),
        "sparse_linalg.cg_solve": solver(
            "sparse_linalg.cg_solve", 0, {"1d": "matvecs"}, cg_finish),
        "sparse_linalg.largest_geneig": solver("sparse_linalg.largest_geneig", 1, {}),
        "bloch.assemble_shifted": span("bloch.assemble_shifted", after=count_nnz),
        "microstructure.rasterize": span("microstructure.rasterize", before=count_cells),
        "fieldio.read_field_dump": span("fieldio.read_field_dump", before=count_bytes),
    }
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "blochlab"]
    for module, fname in TRACED:
        name = f"{module}.{fname}"
        original = getattr(sys.modules[f"blochlab.{module}"], fname)
        wrapped = wrappers.get(name, span(name))(original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)
    PeriodicGrid.neighbor = span("grid.neighbor")(PeriodicGrid.neighbor)


def traced_main(spans_path: Path, cli_args: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    import blochlab.cli

    try:
        return blochlab.cli.main(cli_args)
    finally:
        spans_path.write_text(json.dumps({"totals": tracer.totals, "spans": tracer.spans}))


def _time_matvec(B: sp.csr_matrix, repeats: int) -> tuple[float, np.ndarray]:
    rng = np.random.default_rng(7)
    x = rng.standard_normal(B.shape[0]) + 1j * rng.standard_normal(B.shape[0])
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        B @ x
        times.append(time.perf_counter() - t0)
    return statistics.median(times), x


def probe(out: Path) -> None:
    from blochlab.bloch import assemble_shifted
    from blochlab.experiments import fiber_beta
    from blochlab.grid import make_grid
    from blochlab.microstructure import (FiberLattice, TwoPhaseInclusion,
                                         radius_for_gamma, rasterize)

    eps, eta_p, eta3 = 1 / 6, np.array([0.2, 0.2]), 0.3
    r = radius_for_gamma(eps, 2.0)
    section = rasterize(FiberLattice(eps=1.0, r_eps=r, beta=fiber_beta(eps, r)),
                        make_grid(2, (682, 682)))
    B2, _ = assemble_shifted(section, eps * eta_p)
    w = section.grid.cell_volume
    fiber = (B2 * (1.0 / eps**2) + sp.diags(eta3**2 * w * section.a)).tocsr()
    unit = rasterize(TwoPhaseInclusion(eps=1.0, beta=64.0, rho=1 / 8),
                     make_grid(2, (128, 128)))
    thm22, _ = assemble_shifted(unit, np.array([0.25, 0.0]) / 8)
    result = {}
    for label, B, repeats in (("fiber_465k", fiber, 21), ("thm22_16k", thm22, 201)):
        seconds, x = _time_matvec(B, repeats)
        nbytes, flops = matvec_cost(B, x)
        result[f"kernel.{label}.matvec_s"] = seconds
        result[f"kernel.{label}.bytes_computed"] = float(nbytes)
        result[f"kernel.{label}.flops_per_byte"] = flops / nbytes
    out.write_text(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--probe", type=Path)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.probe)
        return 0
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    return traced_main(args.spans, cli_args)


if __name__ == "__main__":
    sys.exit(main())
