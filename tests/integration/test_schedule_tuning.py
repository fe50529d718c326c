"""The schedule autotuner: tournaments, parity, and the verdict cache."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.chains import shutdown_worker_pools
from repro.core.compiler import compile_model, shape_cache_key
from repro.core.kernel.schedule import format_schedule, parse_schedule
from repro.tune import (
    autotune,
    clear_tuning_cache,
    load_tuning_cache,
    render_tournament,
    save_tuning_cache,
    tuning_cache_stats,
)

# Grouped means: the heuristic picks a scalar (non-vectorized) Gibbs
# update for ``mu`` here, while the batched element-wise MH twin
# advances every group per sweep in a handful of vector calls -- so
# the tournament has a real, measurable winner even at test scale.
GROUPED = """
(N, J, v0, v) => {
  param mu[n] ~ Normal(0.0, v0)
    for n <- 0 until N ;
  data y[n][j] ~ Normal(mu[n], v)
    for n <- 0 until N, j <- 0 until J ;
}
"""

N, J = 120, 4


def make_data():
    rng = np.random.default_rng(0)
    return {"y": rng.normal(1.0, 1.0, size=(N, J))}


HYPERS = {"N": N, "J": J, "v0": 25.0, "v": 1.0}

TUNE_KW = dict(probe_sweeps=3, trial_sweeps=8)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_worker_pools()


@pytest.fixture()
def tuned():
    clear_tuning_cache()
    return autotune(GROUPED, HYPERS, make_data(), **TUNE_KW)


def test_tournament_report_shape(tuned):
    report = tuned.tune_report
    assert report["cache"] == "miss"
    assert report["baseline_schedule"] == "Gibbs mu"
    cands = report["candidates"]
    assert cands[0]["label"] == "baseline"
    labels = [c["label"] for c in cands]
    assert len(labels) == len(set(labels))
    assert {"MH mu", "Slice mu", "ESlice mu"} <= set(labels)
    verdicts = {c["verdict"] for c in cands}
    assert "winner" in verdicts or "baseline" in verdicts
    # The ledger carries the tournament too.
    decisions = {e.decision for e in tuned.ledger.entries}
    assert {"tune.candidate", "tune.winner", "tune.cache"} <= decisions


def test_tuned_sampler_is_bitwise_identical_to_pinned_winner(tuned):
    direct = compile_model(
        GROUPED, HYPERS, make_data(),
        schedule=tuned.spec.schedule, options=tuned.spec.options,
    )
    a = tuned.sample(num_samples=12, seed=3)
    b = direct.sample(num_samples=12, seed=3)
    np.testing.assert_array_equal(a.array("mu"), b.array("mu"))


@pytest.mark.parametrize("executor", ["sequential", "processes"])
def test_tune_flag_parity_across_executors(tuned, executor):
    direct = compile_model(
        GROUPED, HYPERS, make_data(),
        schedule=tuned.spec.schedule, options=tuned.spec.options,
    )
    ref = direct.sample_chains(
        2, num_samples=10, seed=5, executor=executor, n_workers=2
    )
    via_tuned = compile_model(GROUPED, HYPERS, make_data()).tuned(
        executor=executor, n_workers=2
    ).sample_chains(2, num_samples=10, seed=5, executor=executor, n_workers=2)
    for r, v in zip(ref, via_tuned):
        np.testing.assert_array_equal(r.array("mu"), v.array("mu"))


def test_verdict_cache_hits_on_same_shapes(tmp_path):
    clear_tuning_cache()
    first = autotune(GROUPED, HYPERS, make_data(), **TUNE_KW)
    assert first.tune_report["cache"] == "miss"
    assert tuning_cache_stats().misses == 1

    # Same shapes, different values: still a hit.
    other = {"y": np.random.default_rng(9).normal(size=(N, J))}
    second = autotune(GROUPED, HYPERS, other, **TUNE_KW)
    assert second.tune_report["cache"] == "hit"
    assert tuning_cache_stats().hits == 1
    assert second.spec.schedule == first.spec.schedule

    # Persist, clear, reload: the verdict survives the round trip.
    path = tmp_path / "verdicts.json"
    assert save_tuning_cache(path) == 1
    clear_tuning_cache()
    assert load_tuning_cache(path) == 1
    third = autotune(GROUPED, HYPERS, make_data(), **TUNE_KW)
    assert third.tune_report["cache"] == "hit"
    assert third.spec.schedule == first.spec.schedule


def test_shape_key_ignores_values_but_not_shapes():
    a = shape_cache_key(GROUPED, HYPERS, make_data())
    b = shape_cache_key(
        GROUPED, HYPERS,
        {"y": np.random.default_rng(4).normal(size=(N, J))},
    )
    assert a == b
    wider = shape_cache_key(
        GROUPED, {**HYPERS, "J": J + 1},
        {"y": np.zeros((N, J + 1))},
    )
    assert wider != a


def test_format_schedule_round_trips():
    for text in (
        "Gibbs mu",
        "MH mu (*) Gibbs z",
        "MH[batch=off] mu",
    ):
        assert format_schedule(parse_schedule(text)) == text


def test_batch_off_twin_is_enumerated():
    clear_tuning_cache()
    sampler = autotune(
        GROUPED, HYPERS, make_data(), schedule="MH mu", **TUNE_KW
    )
    labels = [c["label"] for c in sampler.tune_report["candidates"]]
    assert "MH[batch=off] mu" in labels


def test_render_tournament_is_printable(tuned):
    text = render_tournament(tuned.tune_report)
    assert "candidate" in text
    assert "baseline" in text
    assert "winner:" in text


# ----------------------------------------------------------------------
# The service path: per-request tuning through checkpoint/resume.
# ----------------------------------------------------------------------


def _payload(samples=24, chunk=6):
    return {
        "model_source": GROUPED,
        "data": {**HYPERS, "y": make_data()["y"].tolist()},
        "query": {
            "samples": samples,
            "chains": 2,
            "seed": 7,
            "chunk_size": chunk,
            "tune": True,
        },
        "return_draws": True,
        "report": False,
    }


def test_service_tunes_checkpoints_and_resumes_bitwise(tmp_path):
    from repro.serve.protocol import parse_infer_request
    from repro.serve.session import InferenceService

    clear_tuning_cache()
    service = InferenceService(
        checkpoint_dir=str(tmp_path / "ckpt"),
        artifact_dir=str(tmp_path / "art"),
    )
    reference = service.handle(parse_infer_request(_payload()))
    assert reference["complete"] is True
    assert reference["tuning"]["cache"] == "miss"
    assert reference["cache"]["tuning_cache_hit"] is False

    capped = _payload()
    capped["request_id"] = "tuned-budgeted"
    capped["budget"] = {"max_draws": 10}
    partial = service.handle(parse_infer_request(capped))
    assert partial["stopped_early"] is True
    assert partial["checkpointed"] is True
    # Second tuned request: the verdict cache answers instantly.
    assert partial["tuning"]["cache"] == "hit"

    resumed = copy.deepcopy(capped)
    resumed["budget"] = {}
    finished = service.handle(parse_infer_request(resumed))
    assert finished["complete"] is True
    assert finished["resumed"] is True
    for chain_ref, chain_res in zip(
        reference["draws_data"], finished["draws_data"]
    ):
        for name in chain_ref:
            np.testing.assert_array_equal(
                np.asarray(chain_res[name]), np.asarray(chain_ref[name])
            )

    snap = service.metrics.snapshot()
    assert snap["tuning_cache"]["requests"] == 3
    assert snap["tuning_cache"]["hits"] >= 2
    assert snap["tuning_cache"]["misses"] == 1
