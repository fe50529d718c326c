"""The asyncio front end, exercised over real sockets."""

from __future__ import annotations

import copy
import http.client
import json
import sys
import threading
import time

import pytest

from repro.serve.server import ReproServer
from repro.telemetry.monitors import ConvergenceMonitor
from tests.serve.conftest import DONE_KEYS, ERROR_KEYS, WARMUP_KEYS


@pytest.fixture
def server(tmp_path):
    srv = ReproServer(
        port=0,
        checkpoint_dir=str(tmp_path / "ckpt"),
        artifact_dir=str(tmp_path / "art"),
    )
    ready = threading.Event()
    thread = threading.Thread(
        target=srv.run, kwargs={"announce": lambda s: ready.set()},
        daemon=True,
    )
    thread.start()
    assert ready.wait(15), "server did not come up"
    yield srv
    _call(srv.port, "POST", "/v1/shutdown")
    thread.join(15)


def _call(port, method, path, body=None, raw=False):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(
            method, path, body=json.dumps(body) if body is not None else None
        )
        resp = conn.getresponse()
        data = resp.read()
    finally:
        conn.close()
    return (resp.status, data) if raw else (resp.status, json.loads(data))


def test_health_and_metrics(server):
    status, body = _call(server.port, "GET", "/v1/health")
    assert status == 200 and body["status"] == "ok"
    status, body = _call(server.port, "GET", "/v1/metrics")
    assert status == 200 and body["requests"] == 0


def test_infer_roundtrip_and_artifacts(server, nn_payload):
    payload = copy.deepcopy(nn_payload)
    payload["request_id"] = "over-http"
    status, body = _call(server.port, "POST", "/v1/infer", payload)
    assert status == 200
    assert body["complete"] is True
    assert "mu" in body["summary"]

    status, second = _call(server.port, "POST", "/v1/infer", payload)
    assert status == 200
    assert second["cache"]["compile_cache_hit"] is True

    status, tracked = _call(server.port, "GET", "/v1/requests/over-http")
    assert status == 200 and tracked["state"] == "done"

    status, html = _call(
        server.port, "GET", "/v1/report/over-http", raw=True
    )
    assert status == 200
    assert html.lstrip().startswith(b"<!DOCTYPE html>")


def test_error_mapping(server):
    status, body = _call(server.port, "POST", "/v1/infer", {"data": {}})
    assert status == 400 and "model_source" in body["error"]
    status, _ = _call(server.port, "GET", "/v1/infer")
    assert status == 405
    status, _ = _call(server.port, "GET", "/nope")
    assert status == 404
    status, _ = _call(server.port, "GET", "/v1/requests/ghost")
    assert status == 404
    status, _ = _call(server.port, "GET", "/v1/report/ghost")
    assert status == 404


def test_compile_errors_return_400(server, nn_payload):
    payload = copy.deepcopy(nn_payload)
    payload["model_source"] = "this is not a model"
    status, body = _call(server.port, "POST", "/v1/infer", payload)
    assert status == 400 and body["status"] == "error"
    # The service stays healthy afterwards.
    status, body = _call(server.port, "GET", "/v1/health")
    assert status == 200 and body["status"] == "ok"


def test_in_flight_status_over_http(server, nn_payload):
    # A deadline keeps the request sampling for a few seconds whatever
    # the host's speed; the status route and /v1/metrics read its record
    # meanwhile.
    payload = copy.deepcopy(nn_payload)
    payload.update(request_id="live", report=False)
    payload["query"].update(
        schedule="NUTS mu", warmup=50, samples=200_000, chunk_size=10,
    )
    payload["budget"] = {"deadline_s": 3.0}
    answer = {}
    thread = threading.Thread(
        target=lambda: answer.update(
            resp=_call(server.port, "POST", "/v1/infer", payload)
        ),
        daemon=True,
    )
    thread.start()
    live = active = None
    give_up = time.monotonic() + 60
    while live is None and thread.is_alive() and time.monotonic() < give_up:
        status, body = _call(server.port, "GET", "/v1/requests/live")
        if status == 200 and body["state"] in ("warmup", "sampling"):
            live = body
            _, active = _call(server.port, "GET", "/v1/metrics")
        time.sleep(0.01)
    thread.join(120)
    assert not thread.is_alive()
    assert live is not None, "never saw the request in flight"
    assert set(live) == WARMUP_KEYS
    assert set(live["last_chunk"]) == {"chain", "start", "stop", "info"}
    assert live["requested"] == 200_000 and len(live["kept"]) == 2
    assert set(active["active_requests"]["live"]) == {
        "phase", "step_size", "warmup_sweep", "warmup_total", "kept",
    }
    status, resp = answer["resp"]
    assert status == 200 and resp["stop_reason"] == "deadline"
    status, done = _call(server.port, "GET", "/v1/requests/live")
    assert set(done) == DONE_KEYS and done["state"] == "done"
    assert done["draws"] == resp["draws"]
    _, snap = _call(server.port, "GET", "/v1/metrics")
    assert "live" not in snap["active_requests"]

    bad = dict(payload, request_id="live-err", model_source="not a model")
    status, _ = _call(server.port, "POST", "/v1/infer", bad)
    assert status == 400
    status, failed = _call(server.port, "GET", "/v1/requests/live-err")
    assert set(failed) == ERROR_KEYS and failed["state"] == "error"


def test_finished_history_is_bounded(server, nn_payload):
    payload = copy.deepcopy(nn_payload)
    payload["report"] = False
    payload["query"].update(samples=4, chains=1, chunk_size=4)
    for _ in range(70):
        status, _ = _call(server.port, "POST", "/v1/infer", payload)
        assert status == 200
    known = []
    for i in range(1, 71):
        status, _ = _call(server.port, "GET", f"/v1/requests/anon-{i}")
        flight, _ = _call(
            server.port, "GET", f"/v1/requests/anon-{i}/flightrecorder"
        )
        assert status == flight, f"routes disagree on anon-{i}"
        if status == 200:
            known.append(i)
    assert known == list(range(7, 71))


def test_unreadable_checkpoint_answers_400(server, nn_payload):
    payload = dict(copy.deepcopy(nn_payload), request_id="corrupt")
    with open(server.service.checkpoints.path("corrupt"), "wb") as f:
        f.write(b"\x80\x05 truncated")
    status, body = _call(server.port, "POST", "/v1/infer", payload)
    assert status == 400 and "'resume': false" in body["error"]
    status, body = _call(server.port, "GET", "/v1/requests/corrupt")
    assert body["state"] == "error"
    # Starting over, as the error says, works.
    payload["resume"] = False
    status, body = _call(server.port, "POST", "/v1/infer", payload)
    assert status == 200 and body["complete"] and not body["resumed"]


def test_one_worst_rhat_per_chunk(server, nn_payload, monkeypatch):
    calls = []
    measure = ConvergenceMonitor.worst_rhat

    def spy(self):
        # The service's calls, not the stream's early-stop check.
        if sys._getframe(1).f_globals["__name__"] == "repro.serve.session":
            calls.append(1)
        return measure(self)

    monkeypatch.setattr(ConvergenceMonitor, "worst_rhat", spy)
    payload = dict(copy.deepcopy(nn_payload), request_id="rhat-calls")
    payload["budget"] = {"target_rhat": 1.2}
    status, _ = _call(server.port, "POST", "/v1/infer", payload)
    assert status == 200
    _, record = _call(
        server.port, "GET", "/v1/requests/rhat-calls/flightrecorder"
    )
    chunks = len(record["entries"])
    assert 0 < chunks < record["capacity"]
    # One per chunk, and one for the response's monitor block.
    assert len(calls) == chunks + 1
