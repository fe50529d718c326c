"""Per-request flight recorder: a bounded ring of sweep digests.

While a request samples, the service feeds every streamed
:class:`~repro.core.chains.ChainChunk` into a :class:`FlightRecorder`:
the chunk's per-update stat digest (acceptance, divergences,
NaN rejects, step size), the warmup phase, and the monitor's worst
split R-hat at that point, per chain, in a ``deque(maxlen=N)``.  The
memory cost is a constant independent of request size — exactly an
aircraft flight recorder: always on, overwritten in flight, read only
after something went wrong.

A recorder is dumped to a post-mortem JSON artifact
(``<request>.flight.json``, next to the request's HTML report) when
the request errors, exceeds the divergence-rate threshold, or is
killed by its deadline; the artifact embeds the event log's recent
events for the same correlation id, so one file holds both the last N
sweep digests and the cross-process event trail.
"""

from __future__ import annotations

import json
import time
import traceback as _traceback
from collections import deque

from repro.telemetry.monitors import DEFAULT_DIVERGENCE_WARN, DivergenceTally

#: Ring capacity (chunks, across chains) when the caller does not choose.
DEFAULT_CAPACITY = 64


class FlightRecorder:
    """Bounded ring of per-chunk stat digests for one request.

    :meth:`record_chunk` also feeds the request's
    :class:`~repro.telemetry.monitors.DivergenceTally` (``divergence``)
    and returns ``True`` exactly once, when the rate first crosses
    ``divergence_warn``, so the caller can emit its single per-request
    WARNING.
    """

    def __init__(
        self,
        request_id: str,
        capacity: int = DEFAULT_CAPACITY,
        divergence_warn: float = DEFAULT_DIVERGENCE_WARN,
    ):
        self.request_id = request_id
        self.capacity = capacity
        self.divergence = DivergenceTally(divergence_warn)
        self.created = time.time()
        self._entries: deque[dict] = deque(maxlen=capacity)

    # -- feeding -----------------------------------------------------------

    def record_chunk(self, chunk, worst_rhat=None) -> bool:
        """Ingest one streamed chunk; returns ``True`` iff this chunk
        pushed the divergence rate over the threshold for the first
        time."""
        phase = chunk.phase or {}
        entry = {
            "ts": round(time.time(), 6),
            "chain": chunk.chain,
            "start": chunk.start,
            "stop": chunk.stop,
            "phase": phase.get("phase", "sampling"),
            "step_size": phase.get("step_size"),
            "worst_rhat": _finite(worst_rhat),
            "stats": {},
        }
        for label, digest in (chunk.info or {}).items():
            stats = {
                k: _plain(v)
                for k, v in digest.items()
                if k in (
                    "accept_rate", "n_proposed", "nan_rejects",
                    "divergent", "step_size", "n_sweeps",
                )
            }
            entry["stats"][label] = stats
            if entry["step_size"] is None:
                entry["step_size"] = stats.get("step_size")
        self._entries.append(entry)
        return self.divergence.observe(chunk.info)

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready view of the ring and the divergence accounting."""
        return {
            "request_id": self.request_id,
            "created": round(self.created, 6),
            "capacity": self.capacity,
            "entries": list(self._entries),
            "divergence": {
                "rate": self.divergence.rate,
                "divergent_sweeps": self.divergence.divergent,
                "sweeps": self.divergence.sweeps,
                "threshold": self.divergence.warn_rate,
                "exceeded": self.divergence.exceeded,
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
            json.dump(doc, f, indent=2, default=_json_fallback)
        return doc


def _finite(v):
    if v is None:
        return None
    try:
        v = float(v)
    except (TypeError, ValueError):
        return None
    return v if v == v and v not in (float("inf"), float("-inf")) else None


def _plain(v):
    import numpy as np

    if isinstance(v, np.generic):
        return v.item()
    if isinstance(v, float) and v != v:
        return None  # NaN is not JSON
    return v


def _json_fallback(obj):
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return repr(obj)
