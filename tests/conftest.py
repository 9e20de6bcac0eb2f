import os

# One BLAS thread in this process and in the pool workers it forks, set
# before numpy loads: the suite runs sweeps on two workers, and a
# multithreaded BLAS in each would oversubscribe the cores.  An explicit
# setting in the environment is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import tracemalloc

import pytest


@pytest.fixture
def tmp_out(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    return out


@pytest.fixture
def traced_peak():
    """``peak(fn, *args, **kwargs)``: the largest traced allocation, in
    bytes, while one call ``fn(*args, **kwargs)`` runs."""
    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
