"""The request engine: budgets, checkpoints, cache reuse, verdicts."""

from __future__ import annotations

import copy
import io

import numpy as np
import pytest

from repro.core.compiler import compile_model
from repro.eval import models
from repro.serve.protocol import ProtocolError, parse_infer_request
from repro.serve.session import InferenceService, summarize_chains
from repro.telemetry.progress import StreamProgress
from tests.serve.conftest import HYPERS, make_y


@pytest.fixture
def service(tmp_path):
    return InferenceService(
        checkpoint_dir=str(tmp_path / "ckpt"),
        artifact_dir=str(tmp_path / "art"),
    )


def _handle(service, payload, **kwargs):
    return service.handle(parse_infer_request(payload), **kwargs)


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


def test_progress_events_carry_chunk_info(service, nn_payload):
    events = []
    resp = _handle(service, nn_payload, progress_cb=events.append)
    assert resp["complete"] is True
    assert len(events) >= 2
    chunk_infos = [e["info"] for e in events if "info" in e]
    assert chunk_infos, "chunks should carry per-update stat digests"
    entry = next(iter(chunk_infos[0].values()))
    assert "accept_rate" in entry and "n_proposed" in entry


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
    events = []
    resp = _handle(service, payload, progress_cb=events.append)
    assert resp["complete"] is True
    # (b) service progress events.
    warm_events = [e for e in events if e.get("phase") == "warmup"]
    assert len(warm_events) == 2 * (warmup // chunk)
    for e in warm_events:
        assert e["warmup_total"] == warmup
        assert 0 < e["warmup_sweep"] <= warmup
        assert e["step_size"] > 0
        assert set(e["info"]) == {"NUTS mu"}
    assert events[-1]["phase"] == "sampling"
    # (c) flight recorder entries.
    entries = service.flight_record("warm")["entries"]
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
