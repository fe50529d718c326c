"""Pipeline tracing: the Tracer itself, compiler spans, runtime spans."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.compiler import compile_model
from repro.eval import models
from repro.telemetry.trace import (
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    tracing_enabled,
)

COMPILE_STAGES = [
    "cache.lookup",
    "frontend.parse",
    "frontend.analyze",
    "density.extract",
    "kernel.select",
    "codegen.updates",
    "codegen.verify",
    "backend.plan",
    "backend.emit",
    "backend.exec",
]


@pytest.fixture
def tracing():
    """Enable the process-wide tracer for one test, always disable after."""
    tracer = enable_tracing()
    yield tracer
    disable_tracing()


def nn_sampler(n=30, v0=25.0, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.normal(2.0, 1.0, size=n)
    return compile_model(
        models.NORMAL_NORMAL,
        {"N": n, "mu_0": 0.0, "v_0": v0, "v": 1.0},
        {"y": y},
    )


# -- the Tracer itself -----------------------------------------------------


def test_disabled_tracer_records_nothing():
    t = Tracer()
    with t.span("x"):
        pass
    t.instant("y")
    t.add_complete("z", "c", 0.0, 1.0)
    assert t.events == []


def test_span_and_instant_events():
    t = Tracer()
    t.enable()
    with t.span("work", cat="compile", detail=3):
        t.instant("marker")
    names = {e.name for e in t.events}
    assert names == {"work", "marker"}
    work = next(e for e in t.events if e.name == "work")
    assert work.phase == "X" and work.dur >= 0.0 and work.args == {"detail": 3}
    marker = next(e for e in t.events if e.name == "marker")
    assert marker.phase == "i" and marker.dur == 0.0


def test_tracer_is_bounded():
    t = Tracer(max_events=3)
    t.enable()
    for i in range(5):
        t.instant(f"e{i}")
    assert len(t.events) == 3
    assert t.dropped == 2
    t.reset()
    assert t.events == [] and t.dropped == 0


def test_chrome_export_format(tmp_path):
    t = Tracer()
    t.enable()
    with t.span("stage", cat="compile"):
        pass
    t.instant("hit", cat="cache")
    path = tmp_path / "trace.json"
    t.write(str(path))
    doc = json.loads(path.read_text())
    assert "traceEvents" in doc and doc["displayTimeUnit"] == "ms"
    by_name = {e["name"]: e for e in doc["traceEvents"]}
    stage = by_name["stage"]
    assert stage["ph"] == "X" and "dur" in stage and "ts" in stage
    assert stage["pid"] > 0 and "tid" in stage
    assert by_name["hit"]["ph"] == "i" and by_name["hit"]["s"] == "t"


# -- compiler + runtime instrumentation ------------------------------------


def test_compile_emits_one_span_per_stage(tracing):
    nn_sampler(v0=17.5)  # unique hyper -> guaranteed cache miss
    names = [e.name for e in tracing.events]
    for stage in COMPILE_STAGES:
        assert names.count(stage) == 1, stage
    assert names.count("cache.miss") == 1
    assert "cache.hit" not in names


def test_recompile_hits_the_cache(tracing):
    nn_sampler(v0=19.25)
    tracing.reset()
    nn_sampler(v0=19.25)  # same ingredients -> cache hit
    names = [e.name for e in tracing.events]
    assert "cache.hit" in names
    # Hot path skips codegen entirely.
    assert "codegen.updates" not in names
    # Exec/wiring still runs (the cache stores source, not live objects).
    assert "backend.exec" in names


def test_runtime_spans_cover_init_sweeps_collect(tracing):
    sampler = nn_sampler(v0=21.125)
    tracing.reset()
    sampler.sample(num_samples=6, burn_in=2, thin=2, seed=0)
    events = tracing.events
    names = [e.name for e in events]
    assert names.count("init") == 1
    assert names.count("sample") == 1
    assert names.count("sweep") == 2 + 6 * 2
    assert names.count("collect") == 6
    sweeps = [e for e in events if e.name == "sweep"]
    assert sorted(e.args["index"] for e in sweeps) == list(range(14))
    sam = next(e for e in events if e.name == "sample")
    assert sam.args == {"num_samples": 6, "burn_in": 2, "thin": 2}


def test_process_executor_merges_worker_traces(tracing, tmp_path):
    import os

    sampler = nn_sampler(v0=23.0625)
    tracing.reset()
    sampler.sample_chains(
        2, num_samples=4, seed=0, executor="processes", n_workers=2
    )
    events = tracing.events
    # The parent's own events are stamped pid=0 until export; the
    # adopted worker events arrive pre-stamped with the worker's pid.
    worker_pids = {e.pid for e in events if e.pid}
    assert worker_pids, "no worker events were merged"
    assert os.getpid() not in worker_pids
    # Each worker ran one whole chain: init + per-sweep spans.
    worker_sweeps = [e for e in events if e.name == "sweep" and e.pid]
    assert len(worker_sweeps) == 2 * 4
    assert sum(1 for e in events if e.name == "init" and e.pid) == 2
    # The chrome export keeps the rows distinct per process.
    path = tmp_path / "trace.json"
    tracing.write(str(path))
    doc = json.loads(path.read_text())
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert len(pids) >= 2  # parent row + at least one worker row


def test_drain_events_stamps_own_pid():
    import os

    t = Tracer()
    t.enable()
    t.instant("local")
    shipped = t.drain_events()
    assert [e.pid for e in shipped] == [os.getpid()]
    assert t.events == []  # a drain never re-ships what it sent
    # adopt() appends even onto a disabled tracer's recording predicate
    # -- the parent decides by enabling before the run.
    t2 = Tracer()
    t2.enable()
    t2.adopt(shipped)
    assert [e.name for e in t2.events] == ["local"]


def test_tracing_toggle_is_global():
    assert not tracing_enabled()
    enable_tracing()
    try:
        assert tracing_enabled()
        assert get_tracer().enabled
    finally:
        disable_tracing()
    assert not tracing_enabled()
