"""The structured event log: levels, correlation ids, the worker capture."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.telemetry.obslog import (
    EventLog,
    WorkerCapture,
    configure_event_log,
    current_rid,
    get_event_log,
    log_event,
    request_context,
)
from repro.telemetry.trace import (
    disable_tracing,
    enable_tracing,
    span,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _reset_global_log():
    yield
    get_event_log().close()


def test_disabled_log_is_a_noop():
    log = EventLog()
    log.log("request.accepted", rid="r1", chains=2)
    assert log.recent() == []


def test_stream_sink_writes_json_lines():
    buf = io.StringIO()
    log = EventLog()
    log.configure(stream=buf, level="info")
    log.log("request.accepted", rid="job-1", chains=2)
    log.log("chunk.emitted", rid="job-1", chain=0, start=0, stop=5)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert [rec["event"] for rec in lines] == [
        "request.accepted", "chunk.emitted",
    ]
    rec = lines[0]
    assert rec["rid"] == "job-1"
    assert rec["pid"] == os.getpid()
    assert rec["level"] == "info"
    assert rec["chains"] == 2
    assert isinstance(rec["ts"], float)


def test_level_threshold_filters_events():
    buf = io.StringIO()
    log = EventLog()
    log.configure(stream=buf, level="warning")
    log.log("sample.finished", level="debug")
    log.log("request.accepted", level="info")
    log.log("worker.died", level="error", worker_pid=1234)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert [rec["event"] for rec in lines] == ["worker.died"]


def test_unknown_level_is_rejected():
    with pytest.raises(ValueError, match="unknown log level"):
        EventLog().configure(stream=io.StringIO(), level="loud")


def test_request_context_supplies_rid():
    buf = io.StringIO()
    log = EventLog()
    log.configure(stream=buf)
    assert current_rid() is None
    with request_context("job-7"):
        assert current_rid() == "job-7"
        log.log("request.compiled", cache_hit=True)
        log.log("budget.stop", rid="other", reason="deadline")
    assert current_rid() is None
    recs = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert recs[0]["rid"] == "job-7"  # from the ambient context
    assert recs[1]["rid"] == "other"  # explicit rid wins


def test_file_sink_appends_parseable_lines(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = EventLog()
    log.configure(path=path, level="debug")
    log.log("request.accepted", rid="r", chains=1)
    log.log("sample.finished", level="debug", kept=10)
    log.close()
    with open(path) as f:
        recs = [json.loads(line) for line in f]
    assert len(recs) == 2
    assert log.sink_path is None  # close() drops the sink


def test_capture_drain_adopt_round_trip():
    worker = WorkerCapture(trace=True, level="info")
    try:
        with span("sweep", cat="runtime"):
            log_event("chunk.emitted", rid="r9", chain=0, start=0, stop=5)
        log_event("chain.finished", rid="r9", chain=0, kept=5)
        payload = worker.drain()
        assert worker.drain() == ([], [])  # drain empties both buffers
    finally:
        worker.close()
    assert not get_event_log().enabled and not tracing_enabled()
    spans, events = payload
    assert [(e.name, e.pid) for e in spans] == [("sweep", os.getpid())]

    buf = io.StringIO()
    configure_event_log(stream=buf)
    tracer = enable_tracing()
    try:
        WorkerCapture.adopt(payload)  # one call adopts both kinds
        assert [e.name for e in tracer.events] == ["sweep"]
    finally:
        disable_tracing()
        tracer.reset()
    recs = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert [r["event"] for r in recs] == ["chunk.emitted", "chain.finished"]
    assert all(r["rid"] == "r9" for r in recs)
    assert get_event_log().recent(rid="r9")  # adopted events enter the ring


def test_capture_is_inert_when_parent_neither_traces_nor_logs():
    assert WorkerCapture.wanted() == (False, None)
    worker = WorkerCapture(*WorkerCapture.wanted())
    log_event("chunk.emitted", chain=0)
    assert worker.drain() is None
    worker.close()
    assert not get_event_log().enabled and not tracing_enabled()


def test_capture_buffer_is_bounded():
    from repro.telemetry import obslog

    dropped = get_event_log().dropped
    worker = WorkerCapture(level="info")
    try:
        for i in range(obslog.CAPTURE_CAP + 10):
            log_event("chunk.emitted", chain=0, start=i, stop=i + 1)
        spans, events = worker.drain()
    finally:
        worker.close()
    assert spans == [] and len(events) == obslog.CAPTURE_CAP
    assert get_event_log().dropped - dropped == 10


def test_ring_is_bounded_and_filterable():
    log = EventLog(ring=4)
    log.configure(stream=io.StringIO())
    for i in range(10):
        log.log("chunk.emitted", rid="a" if i % 2 else "b", index=i)
    recent = log.recent()
    assert len(recent) == 4
    assert all(e.rid == "a" for e in log.recent(rid="a"))


def test_reset_after_fork_clears_inherited_state():
    log = EventLog()
    log.configure(stream=io.StringIO())
    log.log("request.accepted", rid="r")
    assert log.recent()
    log.reset_after_fork()
    assert not log.enabled
    assert log.recent() == []
    assert log.sink_path is None


def test_module_level_helpers_drive_the_singleton(tmp_path):
    path = str(tmp_path / "mod.jsonl")
    from repro.telemetry.obslog import configure_event_log

    configure_event_log(path=path, level="info")
    log_event("worker.spawned", worker_pid=4321)
    get_event_log().close()
    with open(path) as f:
        rec = json.loads(f.readline())
    assert rec["event"] == "worker.spawned"
    assert rec["worker_pid"] == 4321
