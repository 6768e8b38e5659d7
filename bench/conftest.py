"""Machine facts recorded with every bench run, so entries can be compared."""

import os

# one BLAS thread, as in perfbench: the layers work on 3x3 and 4x4 blocks
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import platform  # noqa: E402

import numpy as np  # noqa: E402


def pytest_benchmark_update_machine_info(config, machine_info):
    machine_info["cpu_count"] = os.cpu_count()
    machine_info["python_version"] = platform.python_version()
    machine_info["numpy_version"] = np.__version__
