"""Percentiles, machine-speed calibration, machine description and the children's environment."""

import importlib.util
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Callable, NamedTuple

# Thread-count variables of the BLAS builds numpy ships with.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def nearest_rank(values, q: float):
    """The q-quantile by the nearest-rank rule: sorted(values)[ceil(q*n) - 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank q-quantile."""
    return count - max(math.ceil(q * count), 1)


def min_samples(q: float) -> int:
    """Fewest samples for which the q-quantile has MIN_BEYOND samples beyond it."""
    count = MIN_BEYOND
    while samples_beyond(count, q) < MIN_BEYOND:
        count += 1
    return count


def calibration_kernel():
    """A fixed single-threaded mix of interpreter and small-array work.

    Multi-threaded BLAS is left out on purpose: when another process holds a
    core, its threads stall each other and the kernel slows far more than
    the workloads do.
    """
    import numpy as np

    total = 0
    for i in range(20_000):
        total += i * i % 7
    a = np.eye(8)
    for _ in range(200):
        a = np.linalg.norm(a) * 1e-3 + a @ a.T * 0.5
    return total


def memory_kernel():
    """Fill, multiply and sum a fresh 1500 x 3003 array (36 MB).

    The full-space builds move N x N arrays through memory, and the host's
    neighbours slow that traffic far more than interpreter work: on the
    largest build the interpreter kernel left a ten-operation median spread
    of 0.08 between blocks of the same run, this kernel 0.03.
    """
    import numpy as np

    a = np.empty((1500, 3003))
    a.fill(1.0)
    return float((a @ np.ones(3003)).sum() + a.sum())


def numpy_import_kernel():
    """A fresh interpreter that imports numpy and exits.

    That is about 80 % of a short CLI command, and it slows with the host as
    the commands do, which the in-process kernels do not: on runs of `cli`
    over six to ten seeds it took the spread of latency_p90_s from 0.10-0.15
    to 0.05.
    """
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


class Kernel(NamedTuple):
    run: Callable
    nominal_s: float  # median time on the 2-vCPU x86_64 host the benchmark was tuned on
    repeats: int      # timings per calibration; their median is taken
    every_s: float    # the kernel is timed again after the first operation ending this late


# The host's speed can flip within a second, so the in-process kernels are
# timed often; the fresh interpreter costs more and is timed less often.
CALIBRATION_KERNELS = {
    "interpreter": Kernel(calibration_kernel, 0.0035, 3, 0.25),
    "memory": Kernel(memory_kernel, 0.0135, 3, 0.25),
    "startup": Kernel(numpy_import_kernel, 0.195, 1, 1.0),
}


def calibrate(kind: str) -> float:
    """Median of the timings of the calibration kernel ``kind``."""
    kernel = CALIBRATION_KERNELS[kind]
    times = []
    for _ in range(kernel.repeats):
        started = perf_counter()
        kernel.run()
        times.append(perf_counter() - started)
    return statistics.median(times)


def window_speed_factors(calibrations, kind: str) -> list:
    """How much slower than nominal the machine ran in each calibration window.

    Calibrations are timed before the first operation, after the first
    operation that ends the kernel's ``every_s`` or more after the previous one,
    and after the last; all outside every operation.  Window i lies between
    calibrations i and i+1 and uses their mean.  A shared host's speed can
    move by 20% and more from one minute to the next, and operation times
    divided by these factors compare across runs.
    """
    nominal = CALIBRATION_KERNELS[kind].nominal_s
    return [(a + b) / (2 * nominal) for a, b in zip(calibrations, calibrations[1:])]


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# One BLAS thread per process (the cap is nproc).  On a host whose cores are
# shared with other tenants, OpenBLAS threads spin-wait for each other and
# make the reduced model's small-matrix calls up to four times slower,
# depending on the neighbours' load; one thread keeps runs comparable.
BLAS_THREADS = 1


def child_env(root) -> dict:
    """Environment for workers and CLI children: the checkout's ``src`` first on
    the import path and BLAS_THREADS threads."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        env[var] = str(min(BLAS_THREADS, nproc()))
    return env


def machine_info(seed: int) -> dict:
    """Hardware and software the result was measured on."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):  # pragma: no cover - older numpy
        pass
    return {
        "nproc": nproc(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": min(BLAS_THREADS, nproc()),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "executable": os.path.basename(sys.executable),
        "seed": seed,
    }
