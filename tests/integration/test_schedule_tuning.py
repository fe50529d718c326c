"""The schedule autotuner: the HMC/NUTS race, parity, and the verdict cache."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from repro.core.chains import shutdown_worker_pools
from repro.core.compiler import compile_model, shape_cache_key
from repro.core.kernel.schedule import format_schedule, parse_schedule
from repro.core.sampler import CompiledSampler
from repro.eval import models
from repro.telemetry.report import _tournament_section
from repro.tune import (
    MIN_GAIN,
    TRIAL_SWEEPS,
    Candidate,
    _judge,
    autotune,
    clear_tuning_cache,
    load_tuning_cache,
    render_tournament,
    save_tuning_cache,
    tuning_cache_stats,
)

# EXP_NORMAL: the heuristic samples the positive scale ``v`` with
# fixed-step HMC, so the race has one entry to trial against it, the
# ``NUTS v`` swap.
N_OBS = 200
HYPERS = {"N": N_OBS, "lam": 1.0}


def make_data(seed=0, n=N_OBS):
    return {"y": np.random.default_rng(seed).normal(0.0, 1.5, size=n)}


# Grouped means: the heuristic samples ``mu`` with conjugate Gibbs, an
# update with no gradient, so the race has nothing to trial.
GROUPED = """
(N, J, v0, v) => {
  param mu[n] ~ Normal(0.0, v0)
    for n <- 0 until N ;
  data y[n][j] ~ Normal(mu[n], v)
    for n <- 0 until N, j <- 0 until J ;
}
"""

N, J = 120, 4
GROUPED_HYPERS = {"N": N, "J": J, "v0": 25.0, "v": 1.0}


def grouped_data(seed=0):
    return {"y": np.random.default_rng(seed).normal(1.0, 1.0, size=(N, J))}


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_worker_pools()


@pytest.fixture()
def tuned():
    clear_tuning_cache()
    return autotune(models.EXP_NORMAL, HYPERS, make_data())


def test_tournament_report_shape(tuned):
    report = tuned.tune_report
    assert report["cache"] == "miss"
    assert report["baseline_schedule"] == "HMC v"
    assert report["trial_sweeps"] == TRIAL_SWEEPS
    cands = report["candidates"]
    assert [(c["label"], c["kind"]) for c in cands] == [
        ("baseline", "baseline"), ("NUTS v", "grad-method"),
    ]
    for cand in cands:
        assert cand["s_per_sweep"] > 0.0
        assert cand["ess_per_s"] >= 0.0
        assert cand["gain"] is not None
    verdicts = sorted(c["verdict"] for c in cands)
    assert verdicts in (["baseline", "winner"], ["contender", "winner"])
    assert report["winner"]["schedule"] == tuned.spec.schedule
    # The ledger carries the race too.
    entries = tuned.ledger.entries
    assert {"tune.candidate", "tune.winner", "tune.cache"} <= {
        e.decision for e in entries
    }
    assert [e.subject for e in entries if e.decision == "tune.candidate"] == [
        "baseline", "NUTS v",
    ]


def test_tuned_sampler_is_bitwise_identical_to_pinned_winner(tuned):
    direct = compile_model(
        models.EXP_NORMAL, HYPERS, make_data(),
        schedule=tuned.spec.schedule, options=tuned.spec.options,
    )
    a = tuned.sample(num_samples=12, seed=3)
    b = direct.sample(num_samples=12, seed=3)
    np.testing.assert_array_equal(a.array("v"), b.array("v"))


@pytest.mark.parametrize("executor", ["sequential", "processes"])
def test_tune_flag_parity_across_executors(tuned, executor):
    direct = compile_model(
        models.EXP_NORMAL, HYPERS, make_data(),
        schedule=tuned.spec.schedule, options=tuned.spec.options,
    )
    ref = direct.sample_chains(
        2, num_samples=10, seed=5, executor=executor, n_workers=2
    )
    via_tuned = compile_model(models.EXP_NORMAL, HYPERS, make_data()).tuned()
    assert via_tuned.tune_report["cache"] == "hit"
    runs = via_tuned.sample_chains(
        2, num_samples=10, seed=5, executor=executor, n_workers=2
    )
    for r, v in zip(ref, runs):
        np.testing.assert_array_equal(r.array("v"), v.array("v"))


def test_verdict_cache_hits_on_same_shapes(tmp_path):
    clear_tuning_cache()
    first = autotune(models.EXP_NORMAL, HYPERS, make_data())
    assert first.tune_report["cache"] == "miss"
    assert tuning_cache_stats().misses == 1

    # Same shapes, different values: still a hit.
    second = autotune(models.EXP_NORMAL, HYPERS, make_data(seed=9))
    assert second.tune_report["cache"] == "hit"
    assert tuning_cache_stats().hits == 1
    assert second.spec.schedule == first.spec.schedule

    # Persist, clear, reload: the verdict survives the round trip.
    path = tmp_path / "verdicts.json"
    assert save_tuning_cache(path) == 1
    clear_tuning_cache()
    assert load_tuning_cache(path) == 1
    third = autotune(models.EXP_NORMAL, HYPERS, make_data())
    assert third.tune_report["cache"] == "hit"
    assert third.spec.schedule == first.spec.schedule


def test_shape_key_ignores_values_but_not_shapes():
    a = shape_cache_key(GROUPED, GROUPED_HYPERS, grouped_data())
    b = shape_cache_key(GROUPED, GROUPED_HYPERS, grouped_data(seed=4))
    assert a == b
    wider = shape_cache_key(
        GROUPED, {**GROUPED_HYPERS, "J": J + 1},
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


def test_render_tournament_is_printable(tuned):
    text = render_tournament(tuned.tune_report)
    assert "candidate" in text
    assert "baseline" in text
    assert "NUTS v" in text
    assert "winner:" in text
    html = _tournament_section(tuned.tune_report)
    assert "Schedule tournament" in html
    assert f"{TRIAL_SWEEPS} trial sweeps per candidate" in html


def test_schedule_without_gradient_update_runs_no_trial(monkeypatch):
    calls = []
    sample = CompiledSampler.sample

    def spy(self, *args, **kwargs):
        calls.append(kwargs)
        return sample(self, *args, **kwargs)

    monkeypatch.setattr(CompiledSampler, "sample", spy)
    clear_tuning_cache()
    sampler = autotune(GROUPED, GROUPED_HYPERS, grouped_data())
    assert calls == []
    report = sampler.tune_report
    assert report["trial_sweeps"] == 0
    assert [(c["label"], c["verdict"]) for c in report["candidates"]] == [
        ("baseline", "winner"),
    ]
    assert report["margin"] == 0.0
    assert sampler.spec.schedule == "Gibbs mu"
    assert "winner: Gibbs mu" in render_tournament(report)
    assert "no trial sweeps" in _tournament_section(report)


def test_stuck_trials_score_zero_and_keep_the_baseline():
    # From about 4000 observations the default fixed HMC step never
    # moves ``v``, and neither does the NUTS trial from the same start:
    # two stuck chains must not be read as perfectly mixing ones.
    clear_tuning_cache()
    with pytest.warns(RuntimeWarning, match="NaN log-acceptance"):
        sampler = autotune(
            models.EXP_NORMAL, {"N": 4000, "lam": 1.0}, make_data(n=4000)
        )
    report = sampler.tune_report
    assert [c["ess_per_s"] for c in report["candidates"]] == [0.0, 0.0]
    assert report["winner"]["label"] == "baseline"
    assert report["margin"] == 0.0
    assert sampler.spec.schedule == "HMC v"


def test_failed_swap_loses_and_is_recorded(monkeypatch):
    import repro.tune as tune

    trial = tune._trial

    def failing_swap(cand, *args):
        if cand.kind == "grad-method":
            raise RuntimeError("swap does not sample")
        trial(cand, *args)

    monkeypatch.setattr(tune, "_trial", failing_swap)
    clear_tuning_cache()
    sampler = autotune(models.EXP_NORMAL, HYPERS, make_data())
    baseline, swap = sampler.tune_report["candidates"]
    assert (baseline["verdict"], swap["verdict"]) == ("winner", "failed")
    assert swap["error"] == "RuntimeError: swap does not sample"
    assert sampler.spec.schedule == "HMC v"
    reasons = {
        e.subject: e.reason for e in sampler.ledger.entries
        if e.decision == "tune.candidate"
    }
    assert reasons["NUTS v"].startswith("trial failed: RuntimeError")


@pytest.mark.parametrize(
    "base_ess, swap_ess, winner, gain",
    [
        (0.0, 5.0, "NUTS v", math.inf),
        (0.0, 0.0, "baseline", 0.0),
        (10.0, 10.0 * (1.0 + MIN_GAIN / 2), "baseline", MIN_GAIN / 2),
        (10.0, 20.0, "NUTS v", 1.0),
    ],
)
def test_race_rule(base_ess, swap_ess, winner, gain):
    baseline = Candidate("baseline", "HMC v", "baseline", 1e-3, base_ess)
    swap = Candidate("NUTS v", "NUTS v", "grad-method", 1e-3, swap_ess)
    assert _judge(baseline, [swap]).label == winner
    assert swap.gain == pytest.approx(gain)
    assert baseline.gain == 0.0


def test_one_chain_tuned_cli_run_leaves_no_worker_pool(tmp_path, run_isolated):
    model = tmp_path / "nn.augur"
    model.write_text(models.NORMAL_NORMAL)
    inputs = tmp_path / "nn.json"
    y = np.random.default_rng(0).normal(2.0, 1.0, size=30)
    inputs.write_text(
        '{"N": 30, "mu_0": 0.0, "v_0": 25.0, "v": 1.0, "y": %s}'
        % y.tolist()
    )
    script = f"""
import multiprocessing
from repro.cli import main
from repro.core import chains
assert main(["sample", {str(model)!r}, {str(inputs)!r}, "--samples", "5",
             "--tune"]) == 0
assert not chains._pools, list(chains._pools)
assert not multiprocessing.active_children(), multiprocessing.active_children()
print("ok")
"""
    code, out, err = run_isolated(script)
    assert code == 0, err
    assert out.strip().endswith("ok")


# ----------------------------------------------------------------------
# The service path: per-request tuning through checkpoint/resume.
# ----------------------------------------------------------------------


def _payload(samples=24, chunk=6):
    return {
        "model_source": models.EXP_NORMAL,
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
