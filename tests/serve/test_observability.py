"""Observability end to end: the two /v1/metrics views, the event log's
cross-process correlation ids, and the flight-recorder lifecycle."""

from __future__ import annotations

import copy
import http.client
import json
import os
import re
import threading

import pytest

from repro.serve.checkpoint import _safe_name
from repro.serve.protocol import parse_infer_request
from repro.serve.server import ReproServer
from repro.serve.session import InferenceService
from repro.telemetry.obslog import configure_event_log, get_event_log


@pytest.fixture(scope="module")
def obs_server(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs")
    srv = ReproServer(
        port=0,
        checkpoint_dir=str(root / "ckpt"),
        artifact_dir=str(root / "art"),
        log_path=str(root / "events.jsonl"),
        log_level="info",
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
    get_event_log().close()


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
    if raw:
        return resp.status, resp.getheader("Content-Type"), data
    return resp.status, json.loads(data)


def _infer(srv, nn_payload, request_id, **overrides):
    payload = copy.deepcopy(nn_payload)
    payload["request_id"] = request_id
    for key, value in overrides.items():
        if key in ("budget",):
            payload[key] = value
        else:
            payload["query"][key] = value
    return _call(srv.port, "POST", "/v1/infer", payload)


# -- JSON snapshot -----------------------------------------------------------


def test_metrics_json_fields_present_and_typed(obs_server, nn_payload):
    status, _ = _infer(obs_server, nn_payload, "json-view")
    assert status == 200
    status, snap = _call(obs_server.port, "GET", "/v1/metrics")
    assert status == 200
    for field in (
        "requests", "errors", "checkpoints_saved", "resumed_requests",
        "flight_dumps", "total_sweeps", "total_draws",
    ):
        assert isinstance(snap[field], int), field
    for field in ("mean_queue_wait_s", "total_sampling_s", "sweeps_per_s"):
        assert isinstance(snap[field], float), field
    assert snap["requests"] >= 1
    assert isinstance(snap["recent"], list)
    assert isinstance(snap["recent_errors"], list)
    hists = snap["histograms"]
    assert isinstance(hists, dict) and len(hists) >= 4
    for name, d in hists.items():
        assert name.startswith("repro_"), name
        assert isinstance(d["count"], int)
        assert isinstance(d["sum"], (int, float))
        assert "+Inf" in d["buckets"]
        counts = list(d["buckets"].values())
        assert all(isinstance(n, int) for n in counts)
        assert counts == sorted(counts), f"{name} buckets not monotone"
    assert hists["repro_request_latency_seconds"]["count"] >= 1


# -- Prometheus exposition ---------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? (?P<value>[^ ]+)$"
)


def _parse_prometheus(text):
    """Hand-rolled exposition parser: returns (types, samples) where
    ``samples`` maps (name, labels-string) -> float."""
    types: dict[str, str] = {}
    samples: dict[tuple[str, str], float] = {}
    lines = text.splitlines()
    assert lines[-1] == "# EOF"
    for line in lines[:-1]:
        assert line, "no blank lines inside the exposition"
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
            continue
        m = _SAMPLE_RE.match(line)
        assert m, f"unparseable sample line: {line!r}"
        samples[(m.group("name"), m.group("labels") or "")] = float(
            m.group("value")
        )
    return types, samples


def test_prometheus_exposition_parses(obs_server, nn_payload):
    status, _ = _infer(obs_server, nn_payload, "prom-view")
    assert status == 200
    status, ctype, body = _call(
        obs_server.port, "GET", "/v1/metrics?format=prometheus", raw=True
    )
    assert status == 200
    assert ctype.startswith("application/openmetrics-text")
    types, samples = _parse_prometheus(body.decode())

    assert samples[("repro_requests_total", "")] >= 1
    assert types["repro_requests_total"] == "counter"
    assert types["repro_in_flight_requests"] == "gauge"

    hist_families = [n for n, kind in types.items() if kind == "histogram"]
    assert len(hist_families) >= 4
    for family in hist_families:
        buckets = [
            (labels, value)
            for (name, labels), value in samples.items()
            if name == family + "_bucket"
        ]
        assert buckets, f"{family} has no _bucket series"
        # Cumulative counts are monotone in declaration order and the
        # +Inf bucket equals _count.
        counts = [v for _, v in buckets]
        assert counts == sorted(counts), f"{family} buckets not monotone"
        inf = dict(buckets)['le="+Inf"']
        assert inf == samples[(family + "_count", "")]


def test_unknown_metrics_format_is_rejected(obs_server):
    status, body = _call(obs_server.port, "GET", "/v1/metrics?format=xml")
    assert status == 400 and "format" in body["error"]


# -- flight recorder ---------------------------------------------------------


def test_deadline_kill_dumps_flight_artifact(obs_server, nn_payload):
    status, resp = _infer(
        obs_server, nn_payload, "flight-dl",
        samples=5000, chunk_size=50, budget={"deadline_s": 0.001},
    )
    assert status == 200 and resp["stop_reason"] == "deadline"
    path = os.path.join(
        obs_server.service.artifact_dir,
        _safe_name("flight-dl") + ".flight.json",
    )
    assert os.path.exists(path), "deadline kill must dump the recorder"
    doc = json.load(open(path))
    assert doc["reason"] == "deadline"
    assert doc["request_id"] == "flight-dl"
    assert doc["entries"], "the ring should hold the last sweep digests"
    assert {e["rid"] for e in doc["events"]} == {"flight-dl"}

    status, body = _call(
        obs_server.port, "GET", "/v1/requests/flight-dl/flightrecorder"
    )
    assert status == 200 and body["reason"] == "deadline"


def test_failed_request_dumps_flight_with_error(obs_server, nn_payload):
    payload = copy.deepcopy(nn_payload)
    payload["request_id"] = "flight-err"
    payload["model_source"] = "this is not a model"
    status, body = _call(obs_server.port, "POST", "/v1/infer", payload)
    assert status == 400
    path = os.path.join(
        obs_server.service.artifact_dir,
        _safe_name("flight-err") + ".flight.json",
    )
    doc = json.load(open(path))
    assert doc["reason"] == "error"
    assert doc["error"]["type"]
    assert "Traceback" in doc["error"]["traceback"]
    # The error also lands in the metrics ring.
    status, snap = _call(obs_server.port, "GET", "/v1/metrics")
    assert snap["errors"] >= 1
    assert any(
        e["request_id"] == "flight-err" for e in snap["recent_errors"]
    )
    assert snap["flight_dumps"] >= 1


def test_live_request_serves_flight_snapshot(obs_server, nn_payload):
    status, _ = _infer(obs_server, nn_payload, "flight-live")
    assert status == 200
    # No dump happened (clean completion), so the route answers from the
    # live recorder ring.
    status, body = _call(
        obs_server.port, "GET", "/v1/requests/flight-live/flightrecorder"
    )
    assert status == 200
    assert "reason" not in body
    assert body["request_id"] == "flight-live"
    assert body["entries"]
    assert body["divergence"]["exceeded"] is False
    status, _ = _call(
        obs_server.port, "GET", "/v1/requests/ghost/flightrecorder"
    )
    assert status == 404


def test_event_log_records_request_lifecycle(obs_server, nn_payload):
    status, _ = _infer(obs_server, nn_payload, "lifecycle")
    assert status == 200
    events = get_event_log().recent(rid="lifecycle")
    names = [e.event for e in events]
    assert "request.accepted" in names
    assert "request.compiled" in names
    assert "request.completed" in names


# -- cross-process correlation ----------------------------------------------
# NOTE: this test reconfigures the process-wide event log, so it must
# run after every test that relies on the module server's sink.


def test_worker_events_carry_parent_rid_across_processes(
    tmp_path, nn_payload
):
    log_path = tmp_path / "events.jsonl"
    configure_event_log(path=str(log_path), level="info")
    try:
        service = InferenceService(artifact_dir=str(tmp_path / "art"))
        payload = copy.deepcopy(nn_payload)
        payload["request_id"] = "xproc"
        payload["query"]["executor"] = "processes"
        resp = service.handle(parse_infer_request(payload))
        assert resp["status"] == "ok"
    finally:
        get_event_log().close()
    recs = [json.loads(line) for line in open(log_path)]
    parent = os.getpid()
    worker = [r for r in recs if r["pid"] != parent and r["rid"] == "xproc"]
    assert worker, "worker-origin events must ship to the parent's log"
    assert {r["event"] for r in worker} >= {"chunk.emitted", "chain.finished"}
    assert len({r["pid"] for r in worker}) >= 1
    local = [r for r in recs if r["pid"] == parent and r["rid"] == "xproc"]
    assert {r["event"] for r in local} >= {
        "request.compiled", "request.completed",
    }
    # One grep for the rid reconstructs the request across processes.
    pids = {r["pid"] for r in recs if r["rid"] == "xproc"}
    assert len(pids) >= 2
