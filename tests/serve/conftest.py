"""Shared fixtures for the inference-service tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.chains import shutdown_worker_pools
from repro.core.compiler import compile_model
from repro.eval import models

HYPERS = {"N": 40, "mu_0": 0.0, "v_0": 25.0, "v": 1.0}

#: The keys ``GET /v1/requests/<id>`` answers with, per request state.
QUEUED_KEYS = {"request_id", "state", "enqueued"}
PROGRESS_KEYS = QUEUED_KEYS | {
    "phase", "kept", "requested", "worst_rhat", "last_chunk",
}
WARMUP_KEYS = PROGRESS_KEYS | {"step_size", "warmup_sweep", "warmup_total"}
DONE_KEYS = {
    "request_id", "state", "verdict", "complete", "stop_reason", "draws",
}
ERROR_KEYS = {"request_id", "state", "error"}


def make_y() -> np.ndarray:
    rng = np.random.default_rng(0)
    return rng.normal(2.0, 1.0, size=40)


@pytest.fixture(scope="module")
def nn_sampler():
    return compile_model(models.NORMAL_NORMAL, HYPERS, {"y": make_y()})


@pytest.fixture
def nn_payload():
    """A service request body for the normal-normal model."""
    return {
        "model_source": models.NORMAL_NORMAL,
        "data": {**HYPERS, "y": make_y().tolist()},
        "query": {"samples": 24, "chains": 2, "seed": 7, "chunk_size": 6},
    }


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_worker_pools()
