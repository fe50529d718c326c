"""The request engine: budgets, checkpoints, cache reuse, verdicts."""

from __future__ import annotations

import copy
import io
import json
import math
import sys
import threading

import numpy as np
import pytest

from repro.core.compiler import compile_model
from repro.errors import ReproError
from repro.eval import models
from repro.serve.protocol import (
    ProtocolError,
    json_response,
    parse_infer_request,
)
from repro.serve.session import (
    DEFAULT_RHAT,
    InferenceService,
    _verdict,
    summarize_chains,
)
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.progress import StreamProgress
from tests.serve.conftest import (
    DONE_KEYS,
    ERROR_KEYS,
    HYPERS,
    PROGRESS_KEYS,
    QUEUED_KEYS,
    WARMUP_KEYS,
    make_y,
)


@pytest.fixture
def service(tmp_path):
    return InferenceService(
        checkpoint_dir=str(tmp_path / "ckpt"),
        artifact_dir=str(tmp_path / "art"),
    )


def _handle(service, payload):
    return service.handle(parse_infer_request(payload))


def _strict_json(payload):
    """``payload`` as the server encodes it, parsed back with the
    non-JSON ``Infinity``/``NaN`` tokens rejected."""
    body = json_response(200, payload).split(b"\r\n\r\n", 1)[1]

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(body, parse_constant=reject)


def test_complete_run(service, nn_payload):
    resp = _handle(service, nn_payload)
    assert resp["status"] == "ok"
    assert resp["complete"] is True
    assert resp["stopped_early"] is False
    assert resp["draws"]["kept"] == [24, 24]
    assert resp["verdict"] in ("converged", "not_converged")
    assert "mu" in resp["summary"]
    comp = resp["summary"]["mu"]["components"]["mu"]
    assert "rhat" in comp and np.isfinite(comp["rhat"])


def test_second_identical_request_hits_compile_cache(service, nn_payload):
    first = _handle(service, nn_payload)
    second = _handle(service, nn_payload)
    # First call may or may not hit (other tests share the process-wide
    # cache); the second must.
    assert second["cache"]["compile_cache_hit"] is True
    assert second["cache"]["spec_key"] == first["cache"]["spec_key"]
    ledger = second["cache"]["ledger"]
    assert ledger and ledger[0]["decision"] == "compile.cache"
    assert ledger[0]["choice"] == "hit"


def test_draw_budget_checkpoints_and_resumes_bitwise(service, nn_payload):
    direct = copy.deepcopy(nn_payload)
    direct["return_draws"] = True
    reference = _handle(service, direct)

    capped = copy.deepcopy(nn_payload)
    capped["request_id"] = "budgeted"
    capped["budget"] = {"max_draws": 10}
    partial = _handle(service, capped)
    assert partial["stopped_early"] is True
    assert partial["stop_reason"] == "draw_budget"
    assert partial["checkpointed"] is True
    assert min(partial["draws"]["kept"]) < 24

    capped["budget"] = {}
    capped["return_draws"] = True
    finished = _handle(service, capped)
    assert finished["complete"] is True
    assert finished["resumed"] is True
    for chain_ref, chain_res in zip(
        reference["draws_data"], finished["draws_data"]
    ):
        for name in chain_ref:
            np.testing.assert_array_equal(
                np.asarray(chain_res[name]), np.asarray(chain_ref[name])
            )
    # Completion consumes the checkpoint.
    assert service.checkpoints.load("budgeted") is None


def test_deadline_stops_early(service, nn_payload):
    payload = copy.deepcopy(nn_payload)
    payload["request_id"] = "deadline"
    payload["query"]["samples"] = 5000
    payload["query"]["chunk_size"] = 50
    payload["budget"] = {"deadline_s": 0.001}
    resp = _handle(service, payload)
    assert resp["stop_reason"] == "deadline"
    assert resp["stopped_early"] is True
    assert resp["checkpointed"] is True
    assert min(resp["draws"]["kept"]) < 5000


def test_target_rhat_converges_early(service, nn_payload):
    payload = copy.deepcopy(nn_payload)
    payload["query"]["samples"] = 4000
    payload["query"]["chunk_size"] = 25
    payload["budget"] = {"target_rhat": 1.2}
    resp = _handle(service, payload)
    assert resp["stop_reason"] == "converged"
    assert resp["verdict"] == "converged"
    assert resp["monitor"]["worst_rhat"] <= 1.2
    assert min(resp["draws"]["kept"]) < 4000


def _target_rhat_payload(nn_payload, chains, target, **query):
    payload = copy.deepcopy(nn_payload)
    payload["query"].update(
        samples=400, chains=chains, chunk_size=10, **query
    )
    payload["budget"] = {"target_rhat": target}
    return payload


def test_converged_stops_read_converged(service, nn_payload):
    # Sequentially, the common prefix the monitor judged when it stopped
    # the run is the prefix the verdict judges.
    stops = 0
    for schedule in ("Gibbs mu", "Slice mu"):
        for seed in range(4):
            payload = _target_rhat_payload(
                nn_payload, 4, 1.01, schedule=schedule, seed=seed
            )
            resp = _handle(service, payload)
            if resp["stop_reason"] == "converged":
                stops += 1
                assert resp["verdict"] == "converged", (schedule, seed)
    assert stops >= 1


def test_one_chain_takes_every_draw(service, nn_payload):
    # One chain has no split R-hat to judge: target_rhat never stops it.
    resp = _handle(service, _target_rhat_payload(nn_payload, 1, 1.05))
    assert resp["stop_reason"] is None and resp["complete"]
    assert resp["draws"]["kept"] == [400]
    assert resp["verdict"] == "unknown"


@pytest.mark.parametrize("executor", ["sequential", "processes"])
def test_monitor_equals_summary(service, nn_payload, executor):
    payload = _target_rhat_payload(
        nn_payload, 2, 1.01, schedule="MH mu", executor=executor
    )
    resp = _handle(service, payload)
    worst = max(e["worst_rhat"] for e in resp["summary"].values())
    assert resp["monitor"]["worst_rhat"] == worst


def test_resumed_monitor_judges_the_checkpointed_draws(service, nn_payload):
    # Sequentially chain 0 finishes before the draw budget stops chain
    # 1, so the resumed leg posts no chunk for chain 0: the monitor
    # counts the checkpointed draws, as the summary does.
    payload = copy.deepcopy(nn_payload)
    payload["request_id"] = "resumed-monitor"
    payload["query"].update(samples=200, chunk_size=10)
    payload["budget"] = {"max_draws": 30}
    assert _handle(service, payload)["draws"]["kept"] == [200, 30]
    payload["budget"] = {"target_rhat": 1.0}
    resp = _handle(service, payload)
    assert resp["resumed"]
    worst = max(e["worst_rhat"] for e in resp["summary"].values())
    assert resp["monitor"]["worst_rhat"] == worst


def test_stuck_chains_keep_the_monitor_json_valid(service, nn_payload):
    # Step size 50 rejects every proposal, so each chain stays at its own
    # start: the split R-hat is infinite, which is no convergence and has
    # no JSON number.
    payload = copy.deepcopy(nn_payload)
    payload["query"]["schedule"] = "HMC[steps=3, step_size=50.0] mu"
    payload["query"]["samples"] = 48
    payload["budget"] = {"target_rhat": 1.2}
    flight = service.open_record("stuck")
    resp = service.handle(parse_infer_request(payload), flight=flight)
    assert resp["stop_reason"] != "converged"
    assert resp["verdict"] == "not_converged"
    assert resp["monitor"]["worst_rhat"] == math.inf
    # The summary's R-hat, from the same draws, agrees.
    comp = resp["summary"]["mu"]["components"]["mu"]
    assert (comp["rhat"], comp["stuck"]) == (math.inf, True)
    # The record keeps the value as measured...
    assert flight.snapshot()["entries"][-1]["worst_rhat"] == math.inf
    # ...and on the wire (the response, and the record as the
    # flight-recorder route serves it) the infinite R-hat is null.
    wire = _strict_json(resp)
    assert wire["monitor"]["worst_rhat"] is None
    assert wire["summary"]["mu"]["components"]["mu"] == dict(
        comp, rhat=None
    )
    assert _strict_json(flight.snapshot())["entries"][-1]["worst_rhat"] is None


def test_stuck_components_fail_the_verdict():
    # A 2-component mu stuck at 0 in one chain and at 1 in the other has
    # an infinite split R-hat; a mixing scalar b beside it must not make
    # the pair read converged.
    b = np.random.default_rng(1).normal(size=(2, 40))
    chains = [
        {"mu": np.full((40, 2), float(c)), "b": b[c]} for c in (0, 1)
    ]
    summary = summarize_chains(chains)
    assert summary["b"]["worst_rhat"] <= DEFAULT_RHAT
    assert summary["mu"]["worst_rhat"] == math.inf
    assert _verdict(summary, 2, DEFAULT_RHAT) == "not_converged"
    # Encoded, the summary stays JSON and flags the stuck components.
    wire = _strict_json(summary)
    assert wire["mu"]["worst_rhat"] is None
    assert [
        (c["rhat"], c.get("stuck")) for c in wire["mu"]["components"].values()
    ] == [(None, True), (None, True)]
    assert "stuck" not in wire["b"]["components"]["b"]


def test_checkpoint_mismatch_is_rejected(service, nn_payload):
    payload = copy.deepcopy(nn_payload)
    payload["request_id"] = "strict"
    payload["budget"] = {"max_draws": 8}
    _handle(service, payload)
    payload["query"]["seed"] = 99
    payload["budget"] = {}
    with pytest.raises(ProtocolError, match="seed"):
        _handle(service, payload)
    # Opting out of resume starts over instead.
    payload["resume"] = False
    resp = _handle(service, payload)
    assert resp["resumed"] is False


RETURN_DRAWS_SCRIPT = """
import json
import numpy as np
from repro.eval import models
from repro.serve.protocol import json_response, parse_infer_request
from repro.serve.session import InferenceService

y = np.random.default_rng(0).normal(2.0, 1.0, size=40)
service = InferenceService()
draws = {}
for executor in ("processes", "sequential"):
    resp = service.handle(parse_infer_request({
        "model_source": models.NORMAL_NORMAL,
        "data": {"N": 40, "mu_0": 0.0, "v_0": 25.0, "v": 1.0,
                 "y": y.tolist()},
        "query": {"samples": 24, "chains": 2, "seed": 7,
                  "executor": executor},
        "return_draws": True,
    }))
    body = json_response(200, resp).split(b"\\r\\n\\r\\n", 1)[1]
    draws[executor] = json.loads(body)["draws_data"]
assert len(draws["processes"]) == 2
assert draws["processes"] == draws["sequential"]
print("ok")
"""


def test_returned_process_draws_outlive_the_run(run_isolated):
    # The response is encoded after the run's results, and with them
    # the shared draw segment, are released: returned draws must not
    # be views of it.  A fresh interpreter, because reading an unmapped
    # segment kills the process with SIGSEGV.
    code, out, err = run_isolated(RETURN_DRAWS_SCRIPT)
    assert code == 0, err
    assert out.strip() == "ok"


class StatusSpy(FlightRecorder):
    """A request record that also keeps its status after every chunk."""

    def __init__(self, request_id):
        super().__init__(request_id)
        self.statuses = []

    def record_chunk(self, *args, **kwargs):
        fired = super().record_chunk(*args, **kwargs)
        self.statuses.append(self.status())
        return fired


def test_record_carries_chunk_info(service, nn_payload):
    flight = StatusSpy("chunks")
    resp = service.handle(parse_infer_request(nn_payload), flight=flight)
    assert resp["complete"] is True
    assert len(flight.statuses) >= 2
    for status in flight.statuses:
        info = status["last_chunk"]["info"]
        entry = next(iter(info.values()))
        assert "accept_rate" in entry and "n_proposed" in entry
    entries = flight.snapshot()["entries"]
    assert len(entries) == len(flight.statuses)
    assert all(e["stats"] for e in entries)
    assert flight.status() == {
        "request_id": "chunks", "state": "done",
        "verdict": resp["verdict"], "complete": True, "stop_reason": None,
        "draws": resp["draws"],
    }


def test_warmup_phase_reaches_every_consumer(service, nn_payload):
    # NUTS with warmup on the pool, chunks shorter than half the warmup:
    # the phase rides on each chunk beside its stat digest, and every
    # consumer reports it in its own format.
    warmup, samples, chunk = 12, 8, 4
    sampler = compile_model(
        models.NORMAL_NORMAL, HYPERS, {"y": make_y()}, schedule="NUTS mu"
    )
    stream = sampler.stream_chains(
        2, samples, seed=3, warmup=warmup, collect_stats=True,
        chunk_size=chunk, executor="processes", n_workers=2,
    )
    out = io.StringIO()
    progress = StreamProgress(2, samples, out=out, clock=lambda: 1.0)
    chunks = []
    for c in stream:
        chunks.append(c)
        progress.update(c)
    # (a) zero-width warmup chunks carry the phase, not the digest.
    warm = [c for c in chunks if c.phase["phase"] == "warmup"]
    assert len(warm) == 2 * (warmup // chunk)
    assert all(c.start == c.stop for c in warm)
    assert all(c.phase["warmup"] == warmup for c in chunks)
    assert all(set(c.info) == {"NUTS mu"} for c in chunks)
    assert {c.phase["phase"] for c in chunks} == {"warmup", "sampling"}
    # (d) the TTY progress line showed the warmup.
    assert f"[stream] warmup c0:{warmup}/{warmup}" in out.getvalue()

    payload = copy.deepcopy(nn_payload)
    payload["request_id"] = "warm"
    payload["query"].update(
        schedule="NUTS mu", warmup=warmup, samples=samples,
        chunk_size=chunk, executor="processes",
    )
    flight = StatusSpy("warm")
    resp = service.handle(parse_infer_request(payload), flight=flight)
    assert resp["complete"] is True
    # (b) the request's status after each chunk.
    warm_status = [s for s in flight.statuses if s["state"] == "warmup"]
    assert len(warm_status) == 2 * (warmup // chunk)
    for s in warm_status:
        assert s["phase"] == "warmup"
        assert s["warmup_total"] == warmup
        assert 0 < s["warmup_sweep"] <= warmup
        assert s["step_size"] > 0
        assert set(s["last_chunk"]["info"]) == {"NUTS mu"}
    assert flight.statuses[-1]["state"] == "sampling"
    # (c) flight recorder entries.
    entries = flight.snapshot()["entries"]
    assert {e["phase"] for e in entries} == {"warmup", "sampling"}
    assert all(e["step_size"] > 0 for e in entries)


def test_report_artifact_written(service, nn_payload, tmp_path):
    payload = copy.deepcopy(nn_payload)
    payload["request_id"] = "reported"
    resp = _handle(service, payload)
    report = resp["report"]
    html = open(report["html"]).read()
    assert html.lstrip().startswith("<!DOCTYPE html>")
    assert open(report["json"]).read().startswith("{")


def test_metrics_aggregate(service, nn_payload):
    _handle(service, nn_payload)
    snap = service.metrics.snapshot()
    assert snap["requests"] == 1
    assert snap["total_draws"] == 48
    assert snap["sweeps_per_s"] > 0
    assert snap["recent"][0]["stop_reason"] is None


def test_summarize_handles_multidim_and_ragged():
    chains = [
        {
            "theta": np.arange(40.0).reshape(10, 2, 2),
            "z": [[1, 2], [3]],
        },
        {
            "theta": np.arange(40.0).reshape(10, 2, 2) + 0.5,
            "z": [[1], [2, 3]],
        },
    ]
    out = summarize_chains(chains)
    assert out["z"] == {"draws": 2, "ragged": True}
    comps = out["theta"]["components"]
    assert set(comps) == {"theta[0]", "theta[1]", "theta[2]", "theta[3]"}
    assert out["theta"]["worst_rhat"] >= 1.0


# -- the request record ------------------------------------------------------

def test_each_state_answers_exactly_its_keys(service, nn_payload):
    queued = service.open_record("keys").status()
    assert set(queued) == QUEUED_KEYS and queued["state"] == "queued"

    payload = copy.deepcopy(nn_payload)
    payload["query"].update(
        schedule="NUTS mu", warmup=8, samples=8, chunk_size=4,
    )
    payload["budget"] = {"target_rhat": 1.5}
    flight = StatusSpy("keys")
    resp = service.handle(parse_infer_request(payload), flight=flight)
    assert {s["state"] for s in flight.statuses} == {"warmup", "sampling"}
    for s in flight.statuses:
        assert set(s) == WARMUP_KEYS
        assert set(s["last_chunk"]) == {"chain", "start", "stop", "info"}
        assert s["requested"] == 8 and len(s["kept"]) == 2
        assert s["enqueued"] == flight.created
    assert flight.statuses[-1]["kept"] == resp["draws"]["kept"]
    assert set(flight.status()) == DONE_KEYS

    # Without warmup no warmup position is known.
    plain = StatusSpy("plain")
    service.handle(parse_infer_request(nn_payload), flight=plain)
    assert all(set(s) == PROGRESS_KEYS for s in plain.statuses)
    assert all(s["state"] == "sampling" for s in plain.statuses)

    bad = dict(nn_payload, request_id="keys-err", model_source="not a model")
    with pytest.raises(ReproError):
        _handle(service, bad)
    failed = service.request_status("keys-err")
    assert set(failed) == ERROR_KEYS and failed["state"] == "error"


def test_history_keeps_in_flight_and_recent_finished(service, nn_payload):
    service.open_record("long")  # accepted, never finished
    payload = dict(nn_payload, report=False)
    for i in range(70):
        _handle(service, dict(payload, request_id=f"r{i}"))
    assert service.request_status("long")["state"] == "queued"
    kept = [i for i in range(70) if service.request_status(f"r{i}")]
    assert kept == list(range(6, 70))
    for i in (0, 5, 6, 69):
        assert (service.request_status(f"r{i}") is None) == (
            service.flight_record(f"r{i}") is None
        )


def test_records_hold_under_concurrent_requests(service, nn_payload):
    # More request threads than cores and a short switch interval, with
    # a reader polling the status views the way the event loop does: a
    # torn status, a lost record or an evicted in-flight one shows.
    n_threads, per_thread = 6, 12
    payload = dict(nn_payload, report=False)
    payload["query"] = dict(payload["query"], samples=8, chunk_size=2)
    errors, done = [], threading.Event()

    def serve(t):
        try:
            service.open_record(f"held-{t}")  # in flight throughout
            for i in range(per_thread):
                _handle(service, dict(payload, request_id=f"t{t}-{i}"))
        except Exception as exc:  # reported below
            errors.append(exc)

    def poll():
        while not done.is_set():
            try:
                for rid, active in service.active_requests().items():
                    assert set(active) == {
                        "phase", "step_size", "warmup_sweep",
                        "warmup_total", "kept",
                    }
                for t in range(n_threads):
                    for i in range(per_thread):
                        s = service.request_status(f"t{t}-{i}")
                        if s is not None and s["state"] == "sampling":
                            last = s["last_chunk"]
                            assert s["kept"][last["chain"]] == last["stop"]
            except Exception as exc:  # reported below
                errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=serve, args=(t,))
                   for t in range(n_threads)]
        reader = threading.Thread(target=poll)
        for th in threads + [reader]:
            th.start()
        for th in threads:
            th.join(120)
        done.set()
        reader.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads + [reader])
    assert errors == []
    for t in range(n_threads):
        assert service.request_status(f"held-{t}")["state"] == "queued"
    finished = [
        (t, i) for t in range(n_threads) for i in range(per_thread)
        if service.request_status(f"t{t}-{i}") is not None
    ]
    assert len(finished) == 64
