"""Structured JSON-lines event log with request correlation ids.

The serving stack's operational log: one JSON object per line, each
carrying a leveled, dotted event name (``request.accepted``,
``chunk.emitted``, ``worker.died`` ...), the originating process id,
and — when the event happened on behalf of a request — the request's
correlation id (``rid``).  Because warm-pool workers capture their
events in memory and ship them to the parent together with their trace
spans (:class:`WorkerCapture`, one payload per result-queue message),
one ``grep`` for a rid reconstructs a request end to end across every
process that touched it.

Like the tracer, logging is **off by default** and every emission
point is one attribute check until :func:`configure_event_log` arms a
sink, so the sampling hot path pays nothing when nobody is operating
the service.

Three modes of one process-wide :class:`EventLog`:

- **disabled** (the default): :meth:`EventLog.log` returns after one
  ``enabled`` check.
- **sink mode** (the serving parent): events are serialized to the
  JSON-lines file under a lock and mirrored into a bounded in-memory
  ring, which post-mortem artifacts query by rid
  (:meth:`EventLog.recent`).
- **capture mode** (pool workers, armed by :class:`WorkerCapture`):
  events accumulate in a bounded buffer; :meth:`WorkerCapture.drain`
  takes them with the worker's trace spans, and the parent's
  :meth:`WorkerCapture.adopt` writes them out, preserving the worker's
  pid and timestamps.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.telemetry.jsonenc import json_default
from repro.telemetry.trace import enable_tracing, get_tracer

#: Numeric severities, syslog-style ordering.
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: Events kept in the in-memory ring for post-mortem artifacts.
DEFAULT_RING = 1024

#: Cap on a worker's capture buffer between drains.
CAPTURE_CAP = 10_000

_rid_var: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_obslog_rid", default=None
)


def current_rid() -> str | None:
    """The correlation id of the request this thread is serving."""
    return _rid_var.get()


@contextmanager
def request_context(rid: str | None):
    """Scope a correlation id: every event logged inside the block
    (without an explicit ``rid``) carries it."""
    token = _rid_var.set(rid)
    try:
        yield
    finally:
        _rid_var.reset(token)


@dataclass
class ObsEvent:
    """One structured log event."""

    event: str
    level: str
    ts: float  # epoch seconds
    rid: str | None
    pid: int
    fields: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        rec = {
            "ts": round(self.ts, 6),
            "level": self.level,
            "event": self.event,
            "rid": self.rid,
            "pid": self.pid,
        }
        rec.update(self.fields)
        return rec

    def line(self) -> str:
        return json.dumps(
            self.to_json(), default=json_default, separators=(",", ":")
        )


class EventLog:
    """Leveled structured event log; bounded, thread-safe, off by
    default (see the module docstring for the three modes)."""

    def __init__(self, ring: int = DEFAULT_RING):
        self.enabled = False
        self.level = LEVELS["info"]
        self.level_name = "info"
        self.dropped = 0
        self._sink = None
        self._owns_sink = False
        #: The worker capture buffer, ``None`` outside capture mode.
        self._capture: list[ObsEvent] | None = None
        self._ring: deque[ObsEvent] = deque(maxlen=ring)
        self._lock = threading.Lock()

    # -- control -----------------------------------------------------------

    def configure(self, path=None, stream=None, level: str = "info") -> None:
        """Arm the log: write JSON lines to ``path`` (append mode) or an
        open ``stream``, keeping events at or above ``level``."""
        if level not in LEVELS:
            raise ValueError(
                f"unknown log level {level!r}; use one of {', '.join(LEVELS)}"
            )
        with self._lock:
            self._close_sink_locked()
            if path is not None:
                self._sink = open(path, "a", buffering=1)
                self._owns_sink = True
            elif stream is not None:
                self._sink = stream
                self._owns_sink = False
            self.level = LEVELS[level]
            self.level_name = level
            self.enabled = self._sink is not None or self._capture is not None

    def close(self) -> None:
        with self._lock:
            self._close_sink_locked()
            self.enabled = self._capture is not None

    def _close_sink_locked(self) -> None:
        if self._sink is not None and self._owns_sink:
            try:
                self._sink.close()
            except OSError:
                pass
        self._sink = None
        self._owns_sink = False

    def reset_after_fork(self) -> None:
        """Drop state a forked worker inherited from the parent.

        The child must not write to the parent's sink (interleaved
        partial lines) nor report the parent's ring as its own.  The
        inherited file object is *abandoned*, not closed: closing would
        flush nothing (line-buffered writes leave no pending bytes) but
        the explicit drop keeps the intent obvious.
        """
        self._sink = None
        self._owns_sink = False
        self._capture = None
        self._ring.clear()
        self.enabled = False
        self._lock = threading.Lock()  # never carry a held parent lock

    # -- recording ---------------------------------------------------------

    def log(self, event: str, level: str = "info", rid=None, **fields) -> None:
        """Record one event.  ``rid`` defaults to the ambient request
        context (:func:`request_context`); pass it explicitly from code
        running outside the request's thread."""
        if not self.enabled:
            return
        severity = LEVELS.get(level, LEVELS["info"])
        if severity < self.level:
            return
        if rid is None:
            rid = _rid_var.get()
        e = ObsEvent(event, level, time.time(), rid, os.getpid(), fields)
        with self._lock:
            if self._capture is not None:
                if len(self._capture) >= CAPTURE_CAP:
                    self.dropped += 1
                    return
                self._capture.append(e)
            else:
                self._write_locked(e)

    def _write_locked(self, e: ObsEvent) -> None:
        self._ring.append(e)
        if self._sink is not None:
            try:
                self._sink.write(e.line() + "\n")
            except (OSError, ValueError):
                self.dropped += 1

    # -- reading -----------------------------------------------------------

    def recent(self, rid: str | None = None) -> list[ObsEvent]:
        """The ring's events, optionally filtered to one correlation id
        (post-mortem artifacts embed these)."""
        with self._lock:
            events = list(self._ring)
        if rid is None:
            return events
        return [e for e in events if e.rid == rid]


#: The process-wide event log every emission point reports to.
_log = EventLog()


class WorkerCapture:
    """The one cross-process telemetry channel, from a pool worker to
    the process that owns its pool.

    A worker opens one capture per chain task with the parent's
    :meth:`wanted` settings: it turns on this process's tracer if the
    parent traces, and switches the event log to its in-memory buffer
    if the parent logs.  :meth:`drain` takes the spans and log events
    recorded since the previous drain as one payload ``(spans,
    events)``; each result-queue message carries one, and the parent
    merges it with one :meth:`adopt` call.  Adopted records keep the
    worker's pid, their timestamps and their rid.  With both kinds off
    the capture is inert: :meth:`drain` returns ``None`` after one
    check, taking no lock and building no list.
    """

    def __init__(self, trace: bool = False, level: str | None = None):
        self._trace = trace
        self._events = level is not None
        self._active = trace or self._events
        if trace:
            enable_tracing()
        if self._events:
            with _log._lock:
                _log._capture = []
                _log.level = LEVELS.get(level, LEVELS["info"])
                _log.level_name = level
                _log.enabled = True

    @staticmethod
    def wanted() -> tuple[bool, str | None]:
        """Parent side: the ``(trace, level)`` a worker should capture
        for this process (``level`` is ``None`` while the log is off)."""
        return get_tracer().enabled, _log.level_name if _log.enabled else None

    def drain(self):
        """Take everything captured since the last drain as one payload
        (``None`` when nothing is captured)."""
        if not self._active:
            return None
        spans = get_tracer().drain_events() if self._trace else []
        events = []
        if self._events:
            with _log._lock:
                events, _log._capture = _log._capture, []
        return spans, events

    def close(self) -> None:
        """End the capture; whatever was not drained is dropped."""
        if self._trace:
            get_tracer().disable()
        if self._events:
            with _log._lock:
                _log._capture = None
                _log.enabled = _log._sink is not None

    @staticmethod
    def adopt(payload) -> None:
        """Parent side: merge one :meth:`drain` payload into this
        process's tracer and event log."""
        if payload is None:
            return
        spans, events = payload
        if spans:
            get_tracer().adopt(spans)
        if events:
            with _log._lock:
                for e in events:
                    _log._write_locked(e)


def get_event_log() -> EventLog:
    return _log


def configure_event_log(path=None, stream=None, level: str = "info") -> EventLog:
    """Arm the process-wide log (the serve/CLI entry points call this)."""
    _log.configure(path=path, stream=stream, level=level)
    return _log


def log_event(event: str, level: str = "info", rid=None, **fields) -> None:
    """``log_event("request.accepted", rid="job-1", chains=2)``"""
    _log.log(event, level=level, rid=rid, **fields)
