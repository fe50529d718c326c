"""Per-request flight recorder: a request's one record.

The service opens one :class:`FlightRecorder` per request when it
accepts it, and the record is the request's live status: ``queued``,
then ``warmup`` or ``sampling`` while chunks stream, then ``done`` or
``error``.  While a request samples, the service feeds every streamed
:class:`~repro.core.chains.ChainChunk` into it: the chunk's per-update
stat digest (acceptance, divergences, NaN rejects, step size), the
warmup phase, and the monitor's worst split R-hat at that point, per
chain, in a ``deque(maxlen=N)``.  The memory cost is a constant
independent of request size — exactly an aircraft flight recorder:
always on, overwritten in flight, read only after something went wrong.

Values are stored as measured (an infinite R-hat stays ``inf``); the
encoder in :mod:`repro.telemetry.jsonenc` sends non-finite floats as
``null``.  One lock guards each record: the sampling thread writes
under it, and readers on other threads copy :meth:`status` and
:meth:`snapshot` under it.  The snapshot's divergence block reads the
followed stream's tally, which the sampling thread counts into outside
that lock, so a snapshot taken mid-chunk may mix two chunks' counts.

A recorder is dumped to a post-mortem JSON artifact
(``<request>.flight.json``, next to the request's HTML report) when
the request errors, exceeds the divergence-rate threshold, or is
killed by its deadline; the artifact embeds the event log's recent
events for the same correlation id, so one file holds both the last N
sweep digests and the cross-process event trail.
"""

from __future__ import annotations

import threading
import time
import traceback as _traceback
from collections import deque

from repro.telemetry.jsonenc import dumps
from repro.telemetry.monitors import DEFAULT_DIVERGENCE_WARN, DivergenceTally

#: Ring capacity (chunks, across chains) when the caller does not choose.
DEFAULT_CAPACITY = 64


class FlightRecorder:
    """One request's record: its status and a bounded ring of per-chunk
    stat digests.

    The divergence accounting of :meth:`snapshot` reads ``divergence``,
    the :class:`~repro.telemetry.monitors.DivergenceTally` of the run
    the record follows (``ChainStream.divergence``, set by the service
    when sampling starts).  :meth:`close` ends the record with its
    outcome.
    """

    def __init__(self, request_id: str | None, capacity: int = DEFAULT_CAPACITY):
        self.request_id = request_id
        self.capacity = capacity
        #: The followed run's divergence count; ``None`` before sampling.
        self.divergence: DivergenceTally | None = None
        self.created = time.time()
        self.state = "queued"
        self._entries: deque[dict] = deque(maxlen=capacity)
        #: The status keys beyond ``request_id`` and ``state``.
        self._status: dict = {"enqueued": self.created}
        self._lock = threading.Lock()

    @property
    def finished(self) -> bool:
        return self.state in ("done", "error")

    # -- feeding -----------------------------------------------------------

    def record_chunk(
        self, chunk, worst_rhat=None, kept=None, requested=None
    ) -> None:
        """Ingest one streamed chunk, with the kept draws per chain and
        the requested total so far."""
        phase = chunk.phase or {}
        entry = {
            "ts": round(time.time(), 6),
            "chain": chunk.chain,
            "start": chunk.start,
            "stop": chunk.stop,
            "phase": phase.get("phase", "sampling"),
            "step_size": phase.get("step_size"),
            "worst_rhat": worst_rhat,
            "stats": {},
        }
        for label, digest in (chunk.info or {}).items():
            stats = {
                k: v
                for k, v in digest.items()
                if k in (
                    "accept_rate", "n_proposed", "nan_rejects",
                    "divergent", "step_size", "n_sweeps",
                )
            }
            entry["stats"][label] = stats
            if entry["step_size"] is None:
                entry["step_size"] = stats.get("step_size")
        with self._lock:
            self._entries.append(entry)
            self.state = "warmup" if entry["phase"] == "warmup" else "sampling"
            self._status.update(
                phase=entry["phase"],
                kept=list(kept) if kept is not None else None,
                requested=requested,
                worst_rhat=worst_rhat,
                last_chunk={
                    "chain": chunk.chain,
                    "start": chunk.start,
                    "stop": chunk.stop,
                    "info": chunk.info or None,
                },
            )
            if entry["step_size"] is not None:
                self._status["step_size"] = entry["step_size"]
            if chunk.phase is not None:
                self._status["warmup_sweep"] = phase["sweep"]
                self._status["warmup_total"] = phase["warmup"]

    def close(self, state: str, **outcome) -> None:
        """End the record: ``state`` is ``"done"`` or ``"error"``, and
        ``outcome`` holds the keys its status answers with from now on
        (the verdict and draws, or the error message)."""
        with self._lock:
            self.state = state
            self._status = outcome

    # -- reading -----------------------------------------------------------

    def status(self) -> dict:
        """The request's status: ``queued`` with its ``enqueued`` time,
        ``warmup``/``sampling`` with the latest chunk's progress, or the
        outcome :meth:`close` stored."""
        with self._lock:
            return {
                "request_id": self.request_id, "state": self.state,
                **self._status,
            }

    def snapshot(self) -> dict:
        """The ring and the divergence accounting."""
        # Before sampling starts there is nothing counted yet.
        tally = self.divergence or DivergenceTally()
        with self._lock:
            return {
                "request_id": self.request_id,
                "created": round(self.created, 6),
                "capacity": self.capacity,
                "entries": list(self._entries),
                "divergence": {
                    "rate": tally.rate,
                    "divergent_sweeps": tally.divergent,
                    "sweeps": tally.sweeps,
                    "threshold": DEFAULT_DIVERGENCE_WARN,
                    "exceeded": tally.exceeded,
                },
            }

    def dump(self, path: str, reason: str, error=None, events=None) -> dict:
        """Write the post-mortem artifact and return its document.

        ``reason`` is one of ``"error"`` / ``"divergence"`` /
        ``"deadline"``; ``error`` (an exception) adds class, message
        and traceback; ``events`` (a list of
        :class:`~repro.telemetry.obslog.ObsEvent`) embeds the request's
        cross-process event trail.
        """
        doc = self.snapshot()
        doc["reason"] = reason
        doc["dumped"] = round(time.time(), 6)
        if error is not None:
            doc["error"] = {
                "type": type(error).__name__,
                "message": str(error),
                "traceback": "".join(
                    _traceback.format_exception(
                        type(error), error, error.__traceback__
                    )
                ),
            }
        if events is not None:
            doc["events"] = [e.to_json() for e in events]
        with open(path, "w") as f:
            f.write(dumps(doc, indent=2))
        return doc
