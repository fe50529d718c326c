"""The synchronous request engine behind the service.

:class:`InferenceService.handle` takes one parsed
:class:`~repro.serve.protocol.InferRequest` end to end: compile (or hit
the compile cache), optionally resume the request's checkpoint, stream
chains in chunks while enforcing the budget (wall-clock deadline, new
kept-draw cap, online R-hat target), then answer with a summary, a
convergence verdict, and — when the run stopped short — a checkpoint so
a follow-up call with the same ``request_id`` continues bit-for-bit.

``handle`` is deliberately synchronous and thread-safe per call: the
asyncio server runs it on a thread pool (``loop.run_in_executor``).
Each request has one record, its
:class:`~repro.telemetry.flight.FlightRecorder`: the server opens it
when it accepts the request (:meth:`InferenceService.open_record`),
``handle`` feeds it once per chunk and closes it with the outcome, and
the status and flight-recorder routes read it from the event loop under
the record's lock.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

from repro.core.chains import stream_chains
from repro.core.compiler import (
    compile_cache_stats,
    compile_model,
    spec_cache_key,
)
from repro.core.options import CompileOptions
from repro.serve.checkpoint import (
    Checkpoint,
    CheckpointStore,
    _copy_draws,
    _safe_name,
)
from repro.serve.protocol import InferRequest, ProtocolError, coerce_values
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.monitors import (
    DEFAULT_DIVERGENCE_WARN,
    DEFAULT_RHAT,
    component_rhat,
    components,
)
from repro.telemetry.obslog import log_event, request_context
from repro.telemetry.requests import ServiceMetrics

#: The status keys ``/v1/metrics`` lists per request in warmup or sampling.
_ACTIVE_KEYS = ("phase", "step_size", "warmup_sweep", "warmup_total", "kept")


def summarize_chains(chain_samples: list[dict]) -> dict:
    """Per-parameter posterior summary over the chains' common prefix:
    mean/std pooled across chains plus split R-hat per judged
    component (:func:`~repro.telemetry.monitors.components`; absent
    with a single chain or too few draws).

    An R-hat is nan where it is unknown and ``inf`` where the chains are
    stuck at different values; such a component also reads ``"stuck":
    True``, because the encoded response sends nan and ``inf`` alike as
    ``null``.  An entry's ``worst_rhat`` is its largest R-hat that is
    not nan.

    Ragged parameters (list storage) are reported by draw count only.
    """
    if not chain_samples:
        return {}
    out: dict = {}
    names = list(chain_samples[0].keys())
    for name in names:
        per_chain = [cs[name] for cs in chain_samples]
        if not all(isinstance(v, np.ndarray) for v in per_chain):
            n = min(len(v) for v in per_chain)
            out[name] = {"draws": n, "ragged": True}
            continue
        n = min(v.shape[0] for v in per_chain)
        entry: dict = {"draws": int(n)}
        if n == 0:
            out[name] = entry
            continue
        comps = {}
        worst = None
        for suffix, series in components(per_chain, n):
            comp: dict = {
                "mean": float(series.mean()),
                "std": float(series.std()),
            }
            rhat = component_rhat(series)
            if rhat is not None:
                comp["rhat"] = rhat
                if math.isinf(rhat):
                    comp["stuck"] = True
                if not math.isnan(rhat):
                    worst = rhat if worst is None else max(worst, rhat)
            comps[name + suffix] = comp
        entry["components"] = comps
        if worst is not None:
            entry["worst_rhat"] = worst
        out[name] = entry
    return out


def _worst_rhat(summary: dict) -> float | None:
    worst = None
    for entry in summary.values():
        r = entry.get("worst_rhat")
        if r is not None:
            worst = r if worst is None else max(worst, r)
    return worst


def _verdict(summary: dict, n_chains: int, threshold: float) -> str:
    """``no_draws`` / ``unknown`` / ``converged`` / ``not_converged``."""
    draws = [e.get("draws", 0) for e in summary.values()]
    if not draws or max(draws) == 0:
        return "no_draws"
    worst = _worst_rhat(summary)
    if worst is None or n_chains < 2:
        return "unknown"
    return "converged" if worst <= threshold else "not_converged"


class InferenceService:
    """Compile-once, sample-forever request engine.

    ``checkpoint_dir`` enables checkpoint/resume for requests that
    carry a ``request_id``; ``artifact_dir`` enables the per-request
    HTML/JSON inference report.  Either may be ``None`` to disable the
    feature.
    """

    def __init__(
        self,
        checkpoint_dir: str | None = None,
        artifact_dir: str | None = None,
        metrics: ServiceMetrics | None = None,
        divergence_warn: float = DEFAULT_DIVERGENCE_WARN,
    ):
        self.checkpoints = (
            CheckpointStore(checkpoint_dir) if checkpoint_dir else None
        )
        self.artifact_dir = artifact_dir
        if artifact_dir:
            import os

            os.makedirs(artifact_dir, exist_ok=True)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.divergence_warn = divergence_warn
        #: Request records by rid, for the status routes: every one in
        #: flight plus the ``_flights_cap`` most recently finished, in
        #: the order they finished.
        self._flights: dict[str, FlightRecorder] = {}
        self._flights_cap = 64
        self._flights_lock = threading.Lock()

    # -- request pipeline --------------------------------------------------

    def handle(
        self, req: InferRequest, enqueued_at: float | None = None,
        flight: FlightRecorder | None = None,
    ) -> dict:
        """Run one request to its budget boundary and build the JSON
        response.  Raises :class:`ProtocolError` for request-shaped
        failures (bad data, a mismatched or unreadable checkpoint);
        compiler/runtime errors propagate for the server to map to a
        400.

        ``flight`` is the request's record from :meth:`open_record`
        (opened here for ``req.request_id`` when ``None``); its
        ``request_id`` is the correlation id of every event logged on
        behalf of this request.  The record is closed ``done`` or
        ``error``, and dumped to a post-mortem artifact if the request
        errors, diverges past the threshold, or is killed by its
        deadline.
        """
        if flight is None:
            flight = self.open_record(req.request_id)
        rid = flight.request_id
        with request_context(rid):
            try:
                return self._handle(req, enqueued_at, flight)
            except Exception as exc:
                self._dump_flight(flight, "error", error=exc)
                self._close_record(flight, "error", error=str(exc))
                raise

    def _handle(self, req: InferRequest, enqueued_at, flight) -> dict:
        rid = flight.request_id
        t0 = time.monotonic()
        queue_wait = max(0.0, t0 - enqueued_at) if enqueued_at else 0.0

        # Compile (or replay the cache entry keyed on model + data).
        stats = compile_cache_stats()
        hits_before = stats.hits
        values = coerce_values(req.values)
        from repro.cli import split_inputs

        hypers, data = split_inputs(req.model_source, values)
        tune_cache_hit = None
        if req.tune:
            from repro.tune import autotune, tuning_cache_stats

            tune_stats = tuning_cache_stats()
            tune_hits_before = tune_stats.hits
            sampler = autotune(
                req.model_source, hypers, data,
                options=CompileOptions(target="cpu"),
                schedule=req.schedule,
            )
            tune_cache_hit = tune_stats.hits > tune_hits_before
        else:
            sampler = compile_model(
                req.model_source, hypers, data,
                options=CompileOptions(target="cpu"),
                schedule=req.schedule,
            )
        cache_hit = stats.hits > hits_before
        compile_s = time.monotonic() - t0
        spec_key = (
            spec_cache_key(sampler.spec) if sampler.spec is not None else None
        )
        log_event(
            "request.compiled", rid=rid, cache_hit=cache_hit,
            compile_s=round(compile_s, 6), tuned=req.tune,
            spec_key=spec_key[:16] if spec_key else None,
        )

        checkpoint = self._load_checkpoint(req, spec_key)
        resume = checkpoint.chains if checkpoint is not None else None
        base_kept = checkpoint.min_kept if checkpoint is not None else 0

        # Sample in chunks until done or the budget says stop.
        budget = req.budget
        deadline = (
            t0 + budget.deadline_s if budget.deadline_s is not None else None
        )
        stream = stream_chains(
            sampler,
            n_chains=req.chains,
            num_samples=req.samples,
            burn_in=req.burn_in,
            thin=req.thin,
            seed=req.seed,
            collect=req.collect,
            executor=req.executor,
            collect_stats=True,
            chunk_size=req.chunk_size,
            early_stop_rhat=budget.target_rhat,
            resume=resume,
            warmup=req.warmup,
            target_accept=req.target_accept,
        )
        kept = (
            [r.start_kept for r in resume] if resume is not None
            else [0] * req.chains
        )
        stop_reason = None
        t_sample = time.monotonic()
        for chunk in stream:
            kept[chunk.chain] = chunk.stop
            worst = (
                stream.monitor.worst_rhat()
                if stream.monitor is not None else None
            )
            if flight.record_chunk(chunk, worst, kept, req.samples):
                log_event(
                    "divergence.threshold", level="warning", rid=rid,
                    rate=round(flight.divergence.rate, 4),
                    threshold=flight.divergence.warn_rate,
                )
            if stop_reason is not None:
                continue
            if deadline is not None and time.monotonic() >= deadline:
                stop_reason = "deadline"
                stream.request_stop()
            elif (
                budget.max_draws is not None
                and min(kept) - base_kept >= budget.max_draws
            ):
                stop_reason = "draw_budget"
                stream.request_stop()
            if stop_reason is not None:
                log_event("budget.stop", rid=rid, reason=stop_reason)
        sampling_s = time.monotonic() - t_sample
        results = stream.results
        if stop_reason is None and stream.stopped_early:
            stop_reason = "converged"
            log_event("budget.stop", rid=rid, reason=stop_reason)

        # Summarize, judge, checkpoint, report.
        summary = summarize_chains(
            [r.samples for r in results if r is not None]
        )
        threshold = (
            budget.target_rhat
            if budget.target_rhat is not None
            else DEFAULT_RHAT
        )
        verdict = _verdict(summary, req.chains, threshold)
        complete = all(
            r is not None and r.n_kept >= req.samples for r in results
        )
        checkpointed = False
        if not complete and self.checkpoints is not None and req.request_id:
            self.checkpoints.save(
                Checkpoint.from_results(
                    req.request_id, spec_key or "", results,
                    seed=req.seed, num_samples=req.samples,
                    burn_in=req.burn_in, thin=req.thin, collect=req.collect,
                    warmup=req.warmup, target_accept=req.target_accept,
                )
            )
            checkpointed = True
            log_event(
                "checkpoint.saved", rid=rid,
                kept=[r.n_kept if r is not None else 0 for r in results],
            )
        elif complete and self.checkpoints is not None and req.request_id:
            self.checkpoints.delete(req.request_id)

        response = {
            "status": "ok",
            "request_id": req.request_id,
            "verdict": verdict,
            "complete": complete,
            "stopped_early": not complete,
            "stop_reason": stop_reason,
            "resumed": resume is not None,
            "checkpointed": checkpointed,
            "chains": req.chains,
            "draws": {
                "requested": req.samples,
                "kept": [r.n_kept if r is not None else 0 for r in results],
                "new": max(0, min(kept) - base_kept),
            },
            "timing": {
                "queue_wait_s": queue_wait,
                "compile_s": compile_s,
                "sampling_s": sampling_s,
                "total_s": time.monotonic() - t0,
            },
            "cache": self._cache_block(
                sampler, stream, spec_key, cache_hit, tune_cache_hit
            ),
            "summary": summary,
        }
        if req.tune and sampler.tune_report is not None:
            report = sampler.tune_report
            response["tuning"] = {
                "cache": report["cache"],
                "schedule": report["winner"]["schedule"],
                "margin": report.get("margin"),
                "tuning_seconds": report.get("tuning_seconds"),
            }
        if stream.monitor is not None:
            response["monitor"] = {
                "worst_rhat": stream.monitor.worst_rhat(),
                "min_ess": stream.monitor.min_ess(),
            }
        if req.return_draws:
            # Process-executor draws are views of the run's shared
            # segment, unmapped once the results are dropped, and the
            # response is encoded after that: copy them out.
            response["draws_data"] = [
                _copy_draws(r.samples, r.n_kept)
                for r in results if r is not None
            ]
        if req.report and self.artifact_dir:
            response["report"] = self._write_report(req, sampler, results)

        if stop_reason == "deadline":
            self._dump_flight(flight, "deadline")
        elif flight.divergence.exceeded:
            self._dump_flight(flight, "divergence")

        sweeps = sum(r.sweeps_run for r in results if r is not None)
        total_s = time.monotonic() - t0
        self.metrics.record(
            request_id=req.request_id,
            queue_wait_s=queue_wait,
            compile_s=compile_s,
            sampling_s=sampling_s,
            cache_hit=cache_hit,
            sweeps=sweeps,
            draws=sum(r.n_kept for r in results if r is not None),
            stop_reason=stop_reason,
            resumed=resume is not None,
            checkpointed=checkpointed,
            tuned=req.tune,
            tune_cache_hit=tune_cache_hit,
            total_s=queue_wait + total_s,
            divergence_rate=(
                flight.divergence.rate if flight.divergence.sweeps else None
            ),
        )
        log_event(
            "request.completed", rid=rid, verdict=verdict,
            stop_reason=stop_reason, sweeps=sweeps,
            draws=sum(r.n_kept for r in results if r is not None),
            total_s=round(total_s, 6),
        )
        self._close_record(
            flight, "done", verdict=verdict, complete=complete,
            stop_reason=stop_reason, draws=response["draws"],
        )
        return response

    # -- request records ---------------------------------------------------

    def open_record(self, rid: str | None) -> FlightRecorder:
        """Open one request's record in state ``queued``; a named one is
        kept for the status and flight-recorder routes."""
        flight = FlightRecorder(rid, divergence_warn=self.divergence_warn)
        if rid is not None:
            with self._flights_lock:
                self._flights[rid] = flight
        return flight

    def _close_record(self, flight, state: str, **outcome) -> None:
        """Close ``flight`` and keep only the ``_flights_cap`` most
        recently finished records; no record in flight is evicted."""
        flight.close(state, **outcome)
        with self._flights_lock:
            rid = flight.request_id
            if self._flights.get(rid) is flight:
                # Re-insert, so finished records sit in finishing order.
                del self._flights[rid]
                self._flights[rid] = flight
            finished = [r for r, f in self._flights.items() if f.finished]
            for r in finished[:-self._flights_cap]:
                del self._flights[r]

    def _record(self, rid: str) -> FlightRecorder | None:
        with self._flights_lock:
            return self._flights.get(rid)

    def request_status(self, rid: str) -> dict | None:
        """The status of one request id (``None`` when unknown)."""
        flight = self._record(rid)
        return flight.status() if flight is not None else None

    def active_requests(self) -> dict:
        """Progress of each request in warmup or sampling, by rid."""
        with self._flights_lock:
            flights = list(self._flights.values())
        statuses = [f.status() for f in flights]
        return {
            s["request_id"]: {k: s.get(k) for k in _ACTIVE_KEYS}
            for s in statuses if s["state"] in ("warmup", "sampling")
        }

    def _flight_path(self, rid: str | None) -> str | None:
        if not self.artifact_dir or not rid:
            return None
        import os

        return os.path.join(self.artifact_dir, _safe_name(rid) + ".flight.json")

    def _dump_flight(self, flight, reason: str, error=None) -> None:
        """Write the post-mortem artifact (best effort: a dump failure
        must never mask the request's own outcome)."""
        rid = flight.request_id
        path = self._flight_path(rid)
        if path is None:
            return
        from repro.telemetry.obslog import get_event_log

        try:
            flight.dump(
                path, reason, error=error,
                events=get_event_log().recent(rid),
            )
            self.metrics.record_flight_dump()
            log_event(
                "flight.dumped", level="warning", rid=rid,
                reason=reason, path=path,
            )
        except OSError:
            pass

    def flight_record(self, rid: str) -> dict | None:
        """The flight-recorder view for one request id: the post-mortem
        artifact when one was dumped, else a live snapshot of the
        (possibly still recording) ring, else ``None``."""
        path = self._flight_path(rid)
        if path is not None:
            import json
            import os

            if os.path.exists(path):
                with open(path) as f:
                    return json.load(f)
        flight = self._record(rid)
        return flight.snapshot() if flight is not None else None

    # -- pieces ------------------------------------------------------------

    def _load_checkpoint(
        self, req: InferRequest, spec_key: str | None
    ) -> Checkpoint | None:
        if (
            self.checkpoints is None
            or req.request_id is None
            or not req.resume
        ):
            return None
        ckpt = self.checkpoints.load(req.request_id)
        if ckpt is None:
            return None
        mismatches = []
        if spec_key is not None and ckpt.spec_key != spec_key:
            mismatches.append("model/data fingerprint")
        for attr, want in (
            ("n_chains", req.chains),
            ("num_samples", req.samples),
            ("burn_in", req.burn_in),
            ("thin", req.thin),
            ("seed", req.seed),
            ("warmup", req.warmup),
            ("target_accept", req.target_accept),
        ):
            if getattr(ckpt, attr) != want:
                mismatches.append(attr)
        if (ckpt.collect or None) != (req.collect or None):
            mismatches.append("collect")
        if mismatches:
            raise ProtocolError(
                f"checkpoint for request {req.request_id!r} does not match "
                f"this request ({', '.join(mismatches)} differ); retry with "
                f"'resume': false or a new request_id to start over"
            )
        return ckpt

    def _cache_block(
        self, sampler, stream, spec_key, cache_hit, tune_cache_hit=None
    ) -> dict:
        stats = compile_cache_stats()
        block = {
            "compile_cache_hit": cache_hit,
            "hits": stats.hits,
            "misses": stats.misses,
            "spec_key": spec_key[:16] if spec_key else None,
        }
        if tune_cache_hit is not None:
            from repro.tune import tuning_cache_stats

            tune_stats = tuning_cache_stats()
            block["tuning_cache_hit"] = tune_cache_hit
            block["tuning_hits"] = tune_stats.hits
            block["tuning_misses"] = tune_stats.misses
        if stream._pool is not None:
            block["pool_pids"] = stream._pool.pids()
        if sampler.ledger is not None:
            decisions = sampler.ledger.entries_for(decision="compile.cache")
            decisions += sampler.ledger.entries_for(decision="tune.cache")
            block["ledger"] = [e.to_dict() for e in decisions]
        return block

    def _write_report(self, req, sampler, results) -> dict:
        import os

        from repro.telemetry.report import write_report

        stem = _safe_name(req.request_id) if req.request_id else "anonymous"
        path = os.path.join(self.artifact_dir, stem + ".html")
        try:
            write_report(path, sampler, [r for r in results if r is not None])
        except Exception as exc:  # report failure must not fail the request
            return {"error": f"report generation failed: {exc}"}
        return {"html": path, "json": path[:-len(".html")] + ".json"}
