"""The per-request flight recorder: ring, divergence trigger, dumps."""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.compiler import compile_model
from repro.eval import models
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.obslog import ObsEvent, configure_event_log


def _chunk(chain=0, start=0, stop=5, info=None, phase=None):
    return SimpleNamespace(
        chain=chain, start=start, stop=stop, info=info, phase=phase
    )


def _info(divergent=0, n_sweeps=5, step_size=None):
    entry = {
        "accept_rate": 0.8,
        "n_proposed": n_sweeps,
        "nan_rejects": 0,
        "divergent": divergent,
        "n_sweeps": n_sweeps,
    }
    if step_size is not None:
        entry["step_size"] = step_size
    return {"HMC mu": entry}


def _hmc_stream(step_size, draws=50, chunk_size=5):
    """A one-chain ``HMC mu`` stream on NORMAL_NORMAL with stats on;
    step size 50 makes every sweep diverge."""
    rng = np.random.default_rng(0)
    sampler = compile_model(
        models.NORMAL_NORMAL,
        {"N": 20, "mu_0": 0.0, "v_0": 25.0, "v": 1.0},
        {"y": rng.normal(2.0, 1.0, 20)},
        schedule=f"HMC[steps=3, step_size={step_size}] mu",
    )
    return sampler.stream_chains(
        1, draws, seed=0, collect_stats=True, chunk_size=chunk_size
    )


def test_ring_is_bounded():
    stream = _hmc_stream(0.1)
    fr = FlightRecorder("req", capacity=3)
    fr.divergence = stream.divergence
    for chunk in stream:
        fr.record_chunk(chunk)
    snap = fr.snapshot()
    assert len(snap["entries"]) == 3
    assert snap["entries"][-1]["stop"] == 50
    assert snap["capacity"] == 3
    # Accounting spans every chunk, not just the ring's survivors.
    assert snap["divergence"]["sweeps"] == 50


def test_entry_captures_stats_phase_and_rhat():
    fr = FlightRecorder("req")
    phase = {"phase": "warmup", "sweep": 3, "warmup": 10, "step_size": 0.25}
    fr.record_chunk(
        _chunk(info=_info(step_size=0.25), phase=phase), worst_rhat=1.07
    )
    entry = fr.snapshot()["entries"][0]
    assert entry["phase"] == "warmup"
    assert entry["step_size"] == 0.25
    assert entry["worst_rhat"] == 1.07
    stats = entry["stats"]["HMC mu"]
    assert stats["accept_rate"] == 0.8
    assert stats["n_sweeps"] == 5


def test_non_finite_rhat_is_nulled(tmp_path):
    # The record keeps R-hat as measured; the encoded dump sends the
    # unknown (nan) and the stuck (inf) value as null.
    fr = FlightRecorder("req")
    fr.record_chunk(_chunk(info=_info()), worst_rhat=float("nan"))
    fr.record_chunk(_chunk(info=_info()), worst_rhat=float("inf"))
    entries = fr.snapshot()["entries"]
    assert math.isnan(entries[0]["worst_rhat"])
    assert entries[1]["worst_rhat"] == math.inf
    path = str(tmp_path / "f.json")
    fr.dump(path, "divergence")

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    on_disk = json.loads(open(path).read(), parse_constant=reject)
    assert [e["worst_rhat"] for e in on_disk["entries"]] == [None, None]


def test_status_follows_the_request():
    fr = FlightRecorder("req")
    assert fr.status() == {
        "request_id": "req", "state": "queued", "enqueued": fr.created,
    }
    phase = {"phase": "warmup", "sweep": 4, "warmup": 10, "step_size": 0.5}
    fr.record_chunk(
        _chunk(chain=1, start=0, stop=0, info=_info(), phase=phase),
        worst_rhat=1.3, kept=[0, 0], requested=20,
    )
    assert fr.status() == {
        "request_id": "req", "state": "warmup", "enqueued": fr.created,
        "phase": "warmup", "kept": [0, 0], "requested": 20,
        "worst_rhat": 1.3,
        "last_chunk": {"chain": 1, "start": 0, "stop": 0, "info": _info()},
        "step_size": 0.5, "warmup_sweep": 4, "warmup_total": 10,
    }
    fr.record_chunk(_chunk(chain=0, stop=5), kept=[5, 0], requested=20)
    status = fr.status()
    assert status["state"] == status["phase"] == "sampling"
    assert status["last_chunk"]["info"] is None
    # The last known step size and warmup position stay.
    assert (status["step_size"], status["warmup_sweep"]) == (0.5, 4)
    assert fr.finished is False
    fr.close("done", verdict="unknown", complete=False,
             stop_reason="deadline", draws={"kept": [5, 0]})
    assert fr.finished is True
    assert fr.status() == {
        "request_id": "req", "state": "done", "verdict": "unknown",
        "complete": False, "stop_reason": "deadline",
        "draws": {"kept": [5, 0]},
    }
    failed = FlightRecorder("bad")
    failed.close("error", error="boom")
    assert failed.status() == {
        "request_id": "bad", "state": "error", "error": "boom",
    }


def _threshold_events(tmp_path, stream, fr):
    """Follow ``stream`` into ``fr`` with the event log on; the
    ``divergence.threshold`` events it logged."""
    sink = tmp_path / "events.jsonl"
    log = configure_event_log(path=str(sink))
    try:
        fr.divergence = stream.divergence
        for chunk in stream:
            fr.record_chunk(chunk)
    finally:
        log.close()
    events = [json.loads(line) for line in sink.read_text().splitlines()]
    return [e for e in events if e["event"] == "divergence.threshold"]


def test_stream_logs_the_crossing_once(tmp_path):
    # Every sweep diverges: the rate crosses once MIN_SWEEPS sweeps are
    # in, the stream logs it once, and the record reads it.
    fr = FlightRecorder("req")
    events = _threshold_events(tmp_path, _hmc_stream(50.0), fr)
    assert len(events) == 1
    assert (events[0]["level"], events[0]["rate"], events[0]["threshold"]) == (
        "warning", 1.0, 0.05,
    )
    divergence = fr.snapshot()["divergence"]
    assert divergence["exceeded"] is True and divergence["rate"] == 1.0


def test_clean_stream_never_crosses(tmp_path):
    fr = FlightRecorder("req")
    assert _threshold_events(tmp_path, _hmc_stream(0.1), fr) == []
    divergence = fr.snapshot()["divergence"]
    assert divergence["exceeded"] is False
    assert divergence["rate"] == 0.0 and divergence["sweeps"] == 50


@pytest.mark.parametrize("thin", [1, 2])
def test_composed_kernel_rate_counts_only_gradient_sweeps(thin):
    # HMC mu (*) Gibbs z on real streamed chunks: step size 50 makes
    # every HMC sweep diverge.  Gibbs cannot diverge, so its sweeps must
    # not dilute the rate to 1/2 (or 1/k with k composed updates).  The
    # chunk digests cover every sweep, thinned ones included.
    rng = np.random.default_rng(0)
    hypers = {
        "K": 2, "N": 20, "mu_0": np.zeros(2), "Sigma_0": np.eye(2) * 4.0,
        "pis": np.full(2, 0.5), "Sigma": np.eye(2) * 0.5,
    }
    sampler = compile_model(
        models.GMM, hypers, {"x": rng.normal(size=(20, 2))},
        schedule="HMC[steps=3, step_size=50.0] mu (*) Gibbs z",
    )
    stream = sampler.stream_chains(
        1, 40, seed=0, thin=thin, collect_stats=True, chunk_size=10
    )
    fr = FlightRecorder("req")
    fr.divergence = stream.divergence
    for chunk in stream:
        fr.record_chunk(chunk)
    column = stream.results[0].stats["HMC mu"]["divergent"]
    divergence = fr.snapshot()["divergence"]
    assert divergence["rate"] == float(np.mean(column > 0)) == 1.0
    assert divergence["sweeps"] == column.size == 40 * thin
    assert divergence["exceeded"] is True


def test_dump_writes_post_mortem_artifact(tmp_path):
    fr = FlightRecorder("req-9", capacity=8)
    fr.record_chunk(_chunk(info=_info(divergent=1)))
    events = [
        ObsEvent("request.accepted", "info", 1.0, "req-9", 100, {}),
        ObsEvent("chunk.emitted", "info", 2.0, "req-9", 200, {"chain": 0}),
    ]
    path = str(tmp_path / "req-9.flight.json")
    try:
        raise ValueError("step size blew up")
    except ValueError as exc:
        doc = fr.dump(path, "error", error=exc, events=events)
    assert doc["reason"] == "error"
    assert doc["error"]["type"] == "ValueError"
    assert "step size blew up" in doc["error"]["traceback"]
    on_disk = json.load(open(path))
    assert on_disk["request_id"] == "req-9"
    assert on_disk["reason"] == "error"
    assert [e["event"] for e in on_disk["events"]] == [
        "request.accepted", "chunk.emitted",
    ]
    # The embedded trail spans both pids under the one rid.
    assert {e["pid"] for e in on_disk["events"]} == {100, 200}
    assert {e["rid"] for e in on_disk["events"]} == {"req-9"}


def test_dump_without_error_or_events(tmp_path):
    fr = FlightRecorder("req")
    path = str(tmp_path / "f.json")
    doc = fr.dump(path, "deadline")
    assert doc["reason"] == "deadline"
    assert "error" not in doc and "events" not in doc
    assert json.load(open(path))["divergence"]["exceeded"] is False
