import os

# One BLAS thread in this process and in the pool workers it forks, set
# before numpy loads: the suite runs sweeps on two workers, and a
# multithreaded BLAS in each would oversubscribe the cores.  An explicit
# setting in the environment is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest


@pytest.fixture
def tmp_out(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    return out
