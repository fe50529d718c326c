"""Telemetry overhead: the disabled hooks, and the price of each kind on.

The telemetry subsystem's contract is that *disabled* instrumentation is
free: the sweep loop pays one ``is None`` check per sweep when stats are
off (every update's tally counts on every step either way, so there is
nothing per update to switch off) and one ``enabled`` check when
tracing is off.  This benchmark measures that contract, and the price of
each kind switched on, on the Figure-1 GMM:

- the disabled hooks, measured directly: each disabled entry point --
  ``span``, ``add_complete`` and ``instant`` with tracing off,
  ``log_event`` with the event log off, and a pool worker's
  ``WorkerCapture.drain`` with nothing captured -- is timed in a tight
  loop, and its per-call time is multiplied by the calls a streamed GMM
  run makes with tracing and the log *on*, where every emission point
  that the off path guards is reached.  The sum is the most the
  disabled hooks can cost a run; the acceptance assertion holds it to
  <= 3% of the off run's wall time.  (Comparing an off run with a
  second off run instead measures only run-to-run noise.)
- ``collect_stats=True``, measured directly the same way: a recorded
  sweep's bookkeeping -- every update's ``begin_sweep``, ``end_sweep``
  and stat-buffer write -- is replayed on the drivers a run left
  behind, and its per-sweep time times the sweeps of a run, as a share
  of the off run, is held to <= 5%;
- ``profile=True``, likewise: the time one profiler wrapper adds to the
  call it wraps (each update's ``step`` and each compiled declaration
  call get the same wrapper) times the wrapped calls a profiled run
  makes, as a share of the off run, is held to <= 5%;
- ``off`` vs ``collect_stats=True``, tracing-enabled and
  ``profile=True`` runs, end to end, are reported too, ungated: five
  ~0.15 s runs spread about as wide as any bound a gate could set;
- the serve-path observability stack, measured directly like the
  disabled hooks: the streamed run that counts the hook calls, with the
  structured event log armed (JSON-lines sink, debug level), also keeps
  the arguments of its ``log_event`` calls and its chunks, and
  replaying them times the armed ``log_event`` and
  ``FlightRecorder.record_chunk`` per call.  Per-call time times calls
  per run, as a share of the streamed run, is held to <= 2%.  The gate
  covers these two entry points only, not the ``fields`` the call
  sites build; the end-to-end difference between a streamed run and
  the same run with the log armed and a recorder fed per chunk covers
  everything and is reported too, ungated: at a few microseconds per
  chunk it is smaller than the run-to-run spread of two ~0.2 s runs.

Results land in ``BENCH_telemetry_overhead.json`` at the repository
root.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import time

import numpy as np

from repro.core.compiler import compile_model
from repro.eval import models
from repro.eval.experiments.common import format_table
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.obslog import (
    WorkerCapture,
    configure_event_log,
    get_event_log,
    log_event,
)
from repro.telemetry.profile import SweepProfiler
from repro.telemetry.stats import allocate_stat_buffers
from repro.telemetry.trace import (
    disable_tracing,
    enable_tracing,
    get_tracer,
    instant,
    span,
)

FULL = os.environ.get("REPRO_FULL") == "1"
NUM_SAMPLES = 600 if FULL else 250
REPEATS = 7 if FULL else 5
CHUNK = 25
HOOK_LOOPS = 100_000
#: Times a streamed run's armed calls are replayed per timing round.
OBS_REPLAYS = 200
MAX_OFF_OVERHEAD_PCT = 3.0
MAX_OBS_OVERHEAD_PCT = 2.0
MAX_STATS_OVERHEAD_PCT = 5.0
MAX_PROFILE_OVERHEAD_PCT = 5.0
RESULTS_JSON = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_telemetry_overhead.json"
)


def _gmm_sampler(n=300, seed=0):
    rng = np.random.default_rng(seed)
    true_mu = np.array([[-4.0, 0.0], [4.0, 0.0]])
    z = rng.integers(0, 2, size=n)
    x = true_mu[z] + rng.normal(0, 0.5, size=(n, 2))
    hypers = {
        "K": 2,
        "N": n,
        "mu_0": np.zeros(2),
        "Sigma_0": np.eye(2) * 25.0,
        "pis": np.full(2, 0.5),
        "Sigma": np.eye(2) * 0.25,
    }
    return compile_model(models.GMM, hypers, {"x": x})


def _timed_run(sampler, collect_stats=False, profile=False):
    t0 = time.perf_counter()
    sampler.sample(
        num_samples=NUM_SAMPLES, seed=3,
        collect_stats=collect_stats, profile=profile,
    )
    return time.perf_counter() - t0


def _stream_run(sampler, recorder=None):
    """One single-chain streamed run (the serve hot path); with
    ``recorder`` every chunk also feeds the flight recorder, as
    ``InferenceService._handle`` does.  Returns the chunks."""
    stream = sampler.stream_chains(
        n_chains=1, num_samples=NUM_SAMPLES, seed=3,
        executor="sequential", collect_stats=True, chunk_size=CHUNK,
    )
    chunks = []
    for chunk in stream:
        chunks.append(chunk)
        if recorder is not None:
            recorder.record_chunk(chunk)
    return chunks


def _timed_stream_run(sampler, recorder=None):
    t0 = time.perf_counter()
    _stream_run(sampler, recorder)
    return time.perf_counter() - t0


def _median(xs):
    return float(np.median(xs))


# -- the disabled hooks -----------------------------------------------------


def _per_call_ns(call, loops=HOOK_LOOPS):
    """Best-of-5 time of one call, loop overhead included."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for _ in range(loops):
            call()
        best = min(best, (time.perf_counter_ns() - t0) / loops)
    return best


def _span_off():
    with span("x"):
        pass


def _disabled_hook_costs():
    """Per-call ns of every disabled entry point."""
    assert not get_tracer().enabled and not get_event_log().enabled
    tracer = get_tracer()
    idle = WorkerCapture(*WorkerCapture.wanted())
    return {
        "span": _per_call_ns(_span_off),
        "add_complete": _per_call_ns(
            lambda: tracer.add_complete("x", "runtime", 0.0, 0.0)
        ),
        "instant": _per_call_ns(lambda: instant("x")),
        "log_event": _per_call_ns(lambda: log_event("x")),
        "worker_drain": _per_call_ns(idle.drain),
    }


class _Counted:
    """An entry point that keeps the ``(args, kwargs)`` of each call."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, *args, **kwargs):
        self.calls.append((args, kwargs))
        return self.fn(*args, **kwargs)


def _hook_calls(sampler, sink):
    """One streamed run with tracing and the log on (JSON-lines sink,
    debug level): the calls each entry point gets, the ``(args,
    kwargs)`` of its ``log_event`` calls, and its chunks.  ``span``
    records through ``add_complete``, so those calls are subtracted; a
    worker drains once per chunk and once for its final message."""
    tracer = enable_tracing()
    log = configure_event_log(path=sink, level="debug")
    targets = {
        "span": (tracer, "span"),
        "add_complete": (tracer, "add_complete"),
        "instant": (tracer, "instant"),
        "log_event": (log, "log"),
    }
    hooks = {
        name: _Counted(getattr(obj, attr))
        for name, (obj, attr) in targets.items()
    }
    for name, (obj, attr) in targets.items():
        setattr(obj, attr, hooks[name])
    try:
        chunks = _stream_run(sampler)
    finally:
        for obj, attr in targets.values():
            delattr(obj, attr)  # back to the class's methods
        disable_tracing()
        tracer.reset()
        log.close()
    calls = {name: len(hook.calls) for name, hook in hooks.items()}
    calls["add_complete"] -= calls["span"]
    calls["worker_drain"] = len(chunks) + 1
    return calls, hooks["log_event"].calls, chunks


# -- stats and profiling, switched on ----------------------------------


def _bookkeeping_ns(sampler):
    """Per-sweep ns of a recorded sweep's bookkeeping -- every update's
    ``begin_sweep``, ``end_sweep`` and stat-buffer write -- replayed on
    the drivers as the last run left them."""
    updates = sampler.updates
    bufs = allocate_stat_buffers(updates, 1)

    def sweep():
        for upd in updates:
            upd.begin_sweep()
        for upd, buf in zip(updates, bufs):
            buf.write(0, upd.end_sweep())

    return _per_call_ns(sweep, HOOK_LOOPS // 10)


def _wrapper_ns(sampler):
    """The ns one profiler wrapper adds to the call it wraps."""

    def call(env, ws, rng):
        return None

    wrapped = SweepProfiler(sampler).wrap("bench", call)
    return max(
        0.0,
        _per_call_ns(lambda: wrapped(None, None, None))
        - _per_call_ns(lambda: call(None, None, None)),
    )


def _wrapped_calls(sampler):
    """Calls one profiled run makes through the profiler's wrappers:
    every update's ``step`` and every compiled declaration call."""
    prof = sampler.sample(num_samples=NUM_SAMPLES, seed=3, profile=True).profile
    return sum(r["calls"] for r in prof.updates + prof.decls)


# -- the armed serve-path observability ---------------------------------


def _armed_obs_costs(logged, chunks, sink):
    """Per-call ns of the armed event log (JSON-lines sink, debug level)
    and of ``record_chunk``, replaying a streamed run's ``log_event``
    calls and chunks."""
    log = configure_event_log(path=sink, level="debug")
    recorder = FlightRecorder("bench")

    def replay_log():
        for args, kwargs in logged:
            log_event(*args, **kwargs)

    def replay_chunks():
        for chunk in chunks:
            recorder.record_chunk(chunk)

    try:
        return {
            "log_event": _per_call_ns(replay_log, OBS_REPLAYS) / len(logged),
            "record_chunk": (
                _per_call_ns(replay_chunks, OBS_REPLAYS) / len(chunks)
            ),
        }
    finally:
        log.close()


def test_telemetry_off_overhead_within_budget(report):
    sampler = _gmm_sampler()
    sampler.sample(num_samples=30, seed=0)  # warm up caches / allocator

    # Interleave the variants so drift (thermal, page cache) spreads
    # evenly instead of biasing whichever variant runs last.
    base, stats_on, traced, profiled = [], [], [], []
    stream_base, obs_on = [], []
    with tempfile.TemporaryDirectory() as tmpdir:
        obs_sink = os.path.join(tmpdir, "events.jsonl")
        for _ in range(REPEATS):
            base.append(_timed_run(sampler))
            stats_on.append(_timed_run(sampler, collect_stats=True))
            tracer = enable_tracing()
            traced.append(_timed_run(sampler))
            disable_tracing()
            trace_events = len(tracer.events)
            tracer.reset()
            profiled.append(_timed_run(sampler, profile=True))
            stream_base.append(_timed_stream_run(sampler))
            configure_event_log(path=obs_sink, level="debug")
            obs_on.append(
                _timed_stream_run(sampler, recorder=FlightRecorder("bench"))
            )
            get_event_log().close()
        calls, logged, chunks = _hook_calls(sampler, obs_sink)
        obs_ns = _armed_obs_costs(logged, chunks, obs_sink)
    obs_calls = {"log_event": len(logged), "record_chunk": len(chunks)}
    per_call_ns = _disabled_hook_costs()
    bookkeeping_ns = _bookkeeping_ns(sampler)
    wrapper_ns = _wrapper_ns(sampler)
    wrapped_calls = _wrapped_calls(sampler)

    off_s = _median(base)
    stats_s, trace_s = _median(stats_on), _median(traced)
    profile_s = _median(profiled)
    stream_s, obs_s = _median(stream_base), _median(obs_on)
    hook_s = {
        name: per_call_ns[name] * calls[name] * 1e-9 for name in per_call_ns
    }
    hooks_pct = sum(hook_s.values()) / off_s * 100.0
    # The two gated prices of stats and profiling: per-call time times
    # calls per run, as a share of the off run.
    stats_cost_s = bookkeeping_ns * NUM_SAMPLES * 1e-9
    stats_pct = stats_cost_s / off_s * 100.0
    profile_cost_s = wrapper_ns * wrapped_calls * 1e-9
    profile_pct = profile_cost_s / off_s * 100.0
    stats_overhead_pct = (stats_s - off_s) / off_s * 100.0
    trace_overhead_pct = (trace_s - off_s) / off_s * 100.0
    profile_overhead_pct = (profile_s - off_s) / off_s * 100.0
    # Event log + flight recorder are measured against the *streamed*
    # baseline -- they only run on the serve path, which streams chunks.
    obs_cost_s = {
        name: obs_ns[name] * obs_calls[name] * 1e-9 for name in obs_ns
    }
    obs_pct = sum(obs_cost_s.values()) / stream_s * 100.0
    obslog_overhead_pct = (obs_s - stream_s) / stream_s * 100.0

    report(
        f"Telemetry overhead -- GMM, {NUM_SAMPLES} sweeps, "
        f"median of {REPEATS}",
        format_table(
            ["variant", "wall s", "overhead"],
            [
                ["telemetry off", f"{off_s:.3f}", "baseline"],
                ["disabled hooks (measured per call)",
                 f"{sum(hook_s.values()):.6f}", f"{hooks_pct:+.3f}%"],
                ["stats bookkeeping (measured per call)",
                 f"{stats_cost_s:.6f}", f"{stats_pct:+.3f}%"],
                ["collect_stats=True (end to end)", f"{stats_s:.3f}",
                 f"{stats_overhead_pct:+.2f}%"],
                ["tracing enabled", f"{trace_s:.3f}",
                 f"{trace_overhead_pct:+.2f}%"],
                ["profiler wrappers (measured per call)",
                 f"{profile_cost_s:.6f}", f"{profile_pct:+.3f}%"],
                ["profile=True (end to end)", f"{profile_s:.3f}",
                 f"{profile_overhead_pct:+.2f}%"],
                ["streamed chunks (serve path)", f"{stream_s:.3f}",
                 "stream baseline"],
                ["event log + flight recorder (measured per call)",
                 f"{sum(obs_cost_s.values()):.6f}",
                 f"{obs_pct:+.3f}% vs stream"],
                ["event log + flight recorder (end to end)", f"{obs_s:.3f}",
                 f"{obslog_overhead_pct:+.2f}% vs stream"],
            ],
        )
        + "\n\n"
        + format_table(
            ["disabled hook", "ns/call", "calls/run", "us/run"],
            [
                [name, f"{per_call_ns[name]:.0f}", str(calls[name]),
                 f"{hook_s[name] * 1e6:.1f}"]
                for name in per_call_ns
            ],
        )
        + "\n\n"
        + format_table(
            ["stats / profiling call", "ns/call", "calls/run", "us/run"],
            [
                ["recorded-sweep bookkeeping", f"{bookkeeping_ns:.0f}",
                 str(NUM_SAMPLES), f"{stats_cost_s * 1e6:.1f}"],
                ["profiler wrapper", f"{wrapper_ns:.0f}",
                 str(wrapped_calls), f"{profile_cost_s * 1e6:.1f}"],
            ],
        )
        + "\n\n"
        + format_table(
            ["armed serve-path call", "ns/call", "calls/run", "us/run"],
            [
                [name, f"{obs_ns[name]:.0f}", str(obs_calls[name]),
                 f"{obs_cost_s[name] * 1e6:.1f}"]
                for name in obs_ns
            ],
        ),
    )

    RESULTS_JSON.write_text(
        json.dumps(
            {
                "num_samples": NUM_SAMPLES,
                "repeats": REPEATS,
                "telemetry_off_s": off_s,
                "collect_stats_s": stats_s,
                "tracing_s": trace_s,
                "profile_s": profile_s,
                "trace_events_per_run": trace_events,
                # The acceptance number: the disabled entry points'
                # per-call time times their calls per run, as a share
                # of the off run.
                "disabled_hooks": {
                    name: {
                        "ns_per_call": per_call_ns[name],
                        "calls_per_run": calls[name],
                    }
                    for name in per_call_ns
                },
                "disabled_hooks_pct": hooks_pct,
                # The gated stats and profiling numbers: per-call time
                # times calls per run, as a share of the off run.
                "stats_bookkeeping": {
                    "ns_per_call": bookkeeping_ns,
                    "calls_per_run": NUM_SAMPLES,
                },
                "stats_bookkeeping_pct": stats_pct,
                "profile_wrapper": {
                    "ns_per_call": wrapper_ns,
                    "calls_per_run": wrapped_calls,
                },
                "profile_wrappers_pct": profile_pct,
                # End to end, reported only.
                "collect_stats_overhead_pct": stats_overhead_pct,
                "tracing_overhead_pct": trace_overhead_pct,
                "profile_overhead_pct": profile_overhead_pct,
                # Serve-path observability: the armed event log
                # (JSON-lines sink, debug level) and the flight
                # recorder, per call times calls per streamed run, as a
                # share of the streamed run (the gated number), and the
                # end-to-end difference of a streamed run with both on
                # (reported only).
                "stream_s": stream_s,
                "armed_obs": {
                    name: {
                        "ns_per_call": obs_ns[name],
                        "calls_per_run": obs_calls[name],
                    }
                    for name in obs_ns
                },
                "obslog_flight_pct": obs_pct,
                "obslog_flight_s": obs_s,
                "obslog_flight_overhead_pct": obslog_overhead_pct,
                "max_off_overhead_pct": MAX_OFF_OVERHEAD_PCT,
                "max_obs_overhead_pct": MAX_OBS_OVERHEAD_PCT,
                "max_stats_overhead_pct": MAX_STATS_OVERHEAD_PCT,
                "max_profile_overhead_pct": MAX_PROFILE_OVERHEAD_PCT,
            },
            indent=2,
        )
    )

    assert hooks_pct <= MAX_OFF_OVERHEAD_PCT, (
        f"disabled telemetry hooks cost {hooks_pct:.3f}% of a run "
        f"(budget {MAX_OFF_OVERHEAD_PCT}%)"
    )
    # Recording reads each update's tally twice per sweep and writes one
    # buffer row: cheap next to the generated-code density evaluations
    # that dominate a sweep.
    assert stats_pct <= MAX_STATS_OVERHEAD_PCT, (
        f"recorded-sweep bookkeeping costs {stats_pct:.3f}% of a run "
        f"(budget {MAX_STATS_OVERHEAD_PCT}%)"
    )
    # The profiler's wrappers are two perf_counter reads per update step
    # and per compiled call -- cheap, but not free.
    assert profile_pct <= MAX_PROFILE_OVERHEAD_PCT, (
        f"profiler wrappers cost {profile_pct:.3f}% of a run "
        f"(budget {MAX_PROFILE_OVERHEAD_PCT}%)"
    )
    # The armed event log writes a handful of JSON lines per *chunk*
    # (not per sweep) and the flight recorder appends one dict to a
    # bounded deque per chunk -- amortised across chunk_size sweeps
    # this must stay well under the per-sweep instrumentation costs.
    assert obs_pct <= MAX_OBS_OVERHEAD_PCT, (
        f"armed event log + flight recorder cost {obs_pct:.3f}% of a "
        f"streamed run (budget {MAX_OBS_OVERHEAD_PCT}%)"
    )
