"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.runtime.rng import Rng

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


@pytest.fixture
def rng() -> Rng:
    return Rng(12345)


@pytest.fixture
def np_rng() -> np.random.Generator:
    return np.random.default_rng(98765)


@pytest.fixture
def run_isolated():
    """Run a Python script in a fresh interpreter and return
    ``(returncode, stdout, stderr)``.

    The script runs in its own session, so the process group holds it
    and everything it forks (pool workers, the resource tracker).  The
    call waits until every holder of the output pipes has exited; on
    timeout, or once the script is done, the whole group is killed, so
    a crash or hang leaves no orphaned workers behind.
    """

    def run(script: str, timeout: float = 60.0):
        path = os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": path},
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # SIGTERM first: the resource tracker ignores it, outlives
            # the rest of the group and unlinks the segments they leaked.
            os.killpg(proc.pid, signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            pytest.fail(
                f"script still running after {timeout} s "
                f"(exit status {proc.returncode})\n{err}"
            )
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return proc.returncode, out, err

    return run
