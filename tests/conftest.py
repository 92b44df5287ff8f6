import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# The BLAS thread settings as the session found them. Importing
# perfbench/run.py, which collecting perfbench/test_perfbench.py does, sets
# each to 1; the subprocesses tests start should not inherit that.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_blas_env = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}


def pytest_collection_finish(session):
    """Put back the BLAS thread settings that imports made while collecting."""
    for var, value in _blas_env.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value
