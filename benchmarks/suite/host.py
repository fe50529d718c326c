"""Host metadata stamped on every output, and the drift probe."""

from __future__ import annotations

import os
import platform
import time


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_metadata() -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def speed_probe_ms(repeats: int = 3) -> float:
    """Median wall time of a fixed NumPy + pure-Python loop.

    Taken at the start and the end of every workload: on a shared VM
    the two readings drifting apart says the host changed speed under
    the run, which would otherwise read as a change in the program.
    """
    import numpy as np

    # Element-wise work and a sort only: BLAS calls would time the wake-up
    # of its thread pool, which on a shared VM can swing 30x.
    x = np.random.default_rng(0).standard_normal(100_000)
    times = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        for _ in range(4):
            np.sort(np.exp(np.sin(x)) * x)
        acc = 0.0
        for i in range(60_000):
            acc += (i % 7) * 0.5
        times.append(time.perf_counter() - t0)
    times = sorted(times[1:])  # the first pass warms caches
    return times[len(times) // 2] * 1e3
