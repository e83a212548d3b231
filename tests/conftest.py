import os

# single-thread BLAS, as CI and perfbench run it, set before numpy loads
# BLAS: OpenBLAS's default thread count makes the timed criteria read the
# machine's load
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("refcache"))
