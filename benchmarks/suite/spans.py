"""The suite's own spans, kept in memory and written once as a Chrome trace.

The benchmark records a span around every call it makes into a layer
(compile, sampling run, chunk, request), so the trace shows where the
workload's wall time went without instrumenting the program.  The
program's own tracer events (compile stages, sweeps) and its event log
are adopted into the same file when the run ends.  Timestamps are
``time.perf_counter`` seconds, which on Linux is the monotonic clock
shared by every process on the host.
"""

from __future__ import annotations

import json
import os
import threading


class SpanRecorder:
    """Complete spans and instants from the benchmark's one thread."""

    def __init__(self):
        self.events: list[dict] = []
        self._pid = os.getpid()

    def add(self, name: str, cat: str, ts: float, dur: float, pid=None,
            tid=None, **args) -> None:
        event = {
            "name": name, "cat": cat, "ph": "X",
            "ts": ts * 1e6, "dur": dur * 1e6,
            "pid": pid or self._pid, "tid": tid or threading.get_ident(),
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def instant(self, name: str, cat: str, ts: float, pid=None, **args) -> None:
        event = {
            "name": name, "cat": cat, "ph": "i", "s": "p",
            "ts": ts * 1e6, "pid": pid or self._pid, "tid": 0,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def adopt_program(self, chrome: dict) -> None:
        """Merge the program tracer's Chrome export
        (``repro.telemetry.trace.Tracer.to_chrome()``)."""
        self.events.extend(chrome.get("traceEvents", []))

    def write(self, path: str, other: dict | None = None) -> None:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        doc = {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": dict(other or {}, self_ms=self_times(self.events)),
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def self_times(events) -> dict[str, float]:
    """Total self time per span name, in milliseconds.

    A span's self time is its duration minus the part of it covered by
    its direct children: spans on the same process and thread that
    start inside it.  Spans on one thread nest, so the direct children
    of a span never overlap one another.
    """
    by_thread: dict[tuple, list[dict]] = {}
    for e in events:
        if e.get("ph") == "X":
            by_thread.setdefault((e["pid"], e["tid"]), []).append(e)
    totals: dict[str, float] = {}
    for spans in by_thread.values():
        # Longest first among equal starts, so a parent precedes a
        # child that starts with it.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[list] = []  # [end, name, child_us, dur_us]

        def close(frame):
            name = frame[1]
            self_us = frame[3] - frame[2]
            totals[name] = totals.get(name, 0.0) + self_us / 1e3

        for e in spans:
            start, end = e["ts"], e["ts"] + e["dur"]
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                stack[-1][2] += min(end, stack[-1][0]) - start
            stack.append([end, e["name"], 0.0, e["dur"]])
        while stack:
            close(stack.pop())
    return totals
