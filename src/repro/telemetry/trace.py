"""Pipeline tracing: timed spans over compiler stages and runtime phases.

A process-wide :class:`Tracer` collects *complete* events (name,
category, start, duration) plus *instant* markers (e.g. compile-cache
hits).  Tracing is off by default and every instrumentation point is a
cheap no-op until :func:`enable_tracing` flips the flag, so the hot
sampling loop pays nothing when nobody is looking.

The export format is the Chrome Trace Event JSON
(``chrome://tracing`` / Perfetto ``about:tracing`` compatible): a
top-level ``{"traceEvents": [...]}`` object whose events carry
microsecond timestamps.  ``python -m repro sample ... --trace out.json``
wires the whole pipeline -- density extraction, kernel selection,
codegen, exec, then init/sweep/collect -- into one such file.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace


@dataclass
class TraceEvent:
    """One complete ("X") or instant ("i") Chrome trace event."""

    name: str
    cat: str
    ts: float  # perf_counter seconds at start
    dur: float  # seconds (0 for instants)
    phase: str = "X"
    tid: int = 0
    args: dict = field(default_factory=dict)
    #: Originating process id; 0 means "this process" and is stamped at
    #: export.  Non-zero values come from worker processes whose events
    #: were adopted into the parent tracer.
    pid: int = 0


class Tracer:
    """Collects trace events; bounded, thread-safe, off by default."""

    def __init__(self, max_events: int = 200_000):
        self.max_events = max_events
        self.enabled = False
        self.dropped = 0
        self._events: list[TraceEvent] = []
        self._lock = threading.Lock()

    # -- control -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._events = []
            self.dropped = 0

    @property
    def events(self) -> list[TraceEvent]:
        with self._lock:
            return list(self._events)

    # -- recording ---------------------------------------------------------

    def _append(self, event: TraceEvent) -> None:
        with self._lock:
            if len(self._events) >= self.max_events:
                self.dropped += 1
                return
            self._events.append(event)

    def add_complete(
        self, name: str, cat: str, ts: float, dur: float, **args
    ) -> None:
        """Record a span from raw ``time.perf_counter`` readings.

        Used for bulk emission (e.g. per-sweep spans reconstructed from
        the sampler's timing arrays) where a context manager per event
        would distort what is being measured.
        """
        if not self.enabled:
            return
        self._append(
            TraceEvent(name, cat, ts, dur, "X", threading.get_ident(), args)
        )

    def instant(self, name: str, cat: str = "repro", **args) -> None:
        """Record a zero-duration marker (cache hit/miss, warning, ...)."""
        if not self.enabled:
            return
        self._append(
            TraceEvent(
                name, cat, time.perf_counter(), 0.0, "i",
                threading.get_ident(), args,
            )
        )

    @contextmanager
    def span(self, name: str, cat: str = "repro", **args):
        """Time a ``with`` block as one complete event."""
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_complete(name, cat, t0, time.perf_counter() - t0, **args)

    # -- cross-process merging --------------------------------------------

    def drain_events(self) -> list[TraceEvent]:
        """Atomically take (and clear) the collected events, pid-stamped
        for shipping to a parent process.

        Pool workers drain with every result-queue message
        (:class:`~repro.telemetry.obslog.WorkerCapture`), so spans
        stream to the parent incrementally instead of piling up until
        the chain ends, and a later drain never re-ships what an
        earlier one already sent.
        """
        with self._lock:
            events, self._events = self._events, []
        pid = os.getpid()
        return [e if e.pid else replace(e, pid=pid) for e in events]

    def adopt(self, events: list[TraceEvent]) -> None:
        """Merge events shipped from a worker process into this tracer.

        Adopted events keep their own ``pid``/``tid``, so the exported
        trace shows each worker as a distinct process row.
        """
        for e in events:
            self._append(e)

    # -- export ------------------------------------------------------------

    def to_chrome(self) -> dict:
        """The collected events as a Chrome Trace Event JSON object."""
        pid = os.getpid()
        out = []
        for e in self.events:
            rec = {
                "name": e.name,
                "cat": e.cat,
                "ph": e.phase,
                "ts": e.ts * 1e6,
                "pid": e.pid or pid,
                "tid": e.tid,
            }
            if e.phase == "X":
                rec["dur"] = e.dur * 1e6
            if e.phase == "i":
                rec["s"] = "t"  # thread-scoped instant
            if e.args:
                rec["args"] = e.args
            out.append(rec)
        meta = {"dropped_events": self.dropped}
        return {"traceEvents": out, "displayTimeUnit": "ms", "otherData": meta}

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_chrome(), f)


#: The process-wide tracer every instrumentation point reports to.
_tracer = Tracer()


def get_tracer() -> Tracer:
    return _tracer


def tracing_enabled() -> bool:
    return _tracer.enabled


def enable_tracing(reset: bool = True) -> Tracer:
    """Turn on span collection (optionally dropping prior events)."""
    if reset:
        _tracer.reset()
    _tracer.enable()
    return _tracer


def disable_tracing() -> None:
    _tracer.disable()


def span(name: str, cat: str = "repro", **args):
    """``with span("kernel.select", cat="compile"): ...``"""
    return _tracer.span(name, cat, **args)


def instant(name: str, cat: str = "repro", **args) -> None:
    _tracer.instant(name, cat, **args)


def write_trace(path: str) -> None:
    """Dump everything collected so far as a Chrome trace JSON file."""
    _tracer.write(path)
