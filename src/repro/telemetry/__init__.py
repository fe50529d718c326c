"""repro.telemetry: sampler statistics, pipeline tracing, monitors.

Three pillars of observability for compiled MCMC:

- :mod:`repro.telemetry.stats` -- typed per-sweep statistics for every
  base update of a composed kernel, captured into preallocated buffers
  and surfaced as ``SampleResult.stats`` / ``sample_stats``.
- :mod:`repro.telemetry.trace` -- a span API over compiler stages and
  runtime phases, exportable as a ``chrome://tracing`` JSON file.
- :mod:`repro.telemetry.monitors` -- streaming Welford moments, online
  split R-hat / ESS across live chains, and divergence-rate warnings.
- :mod:`repro.telemetry.explain` -- the compiler decision ledger:
  structured ``(decision, choice, reason, provenance)`` entries for
  every silent choice the pipeline makes.
- :mod:`repro.telemetry.profile` -- the sweep profiler: wall-time
  attribution per update, generated declaration, and model statement.
- :mod:`repro.telemetry.report` -- the self-contained HTML (+ JSON)
  inference report bundling all of the above.
- :mod:`repro.telemetry.obslog` -- the structured JSON-lines event log
  with request correlation ids spanning the serve/chains stack.
- :mod:`repro.telemetry.metrics` -- fixed-bucket histograms and the
  Prometheus/OpenMetrics text exposition behind ``/v1/metrics``.
- :mod:`repro.telemetry.flight` -- the per-request flight recorder:
  a bounded ring of sweep digests dumped as a post-mortem artifact.
"""

from repro.telemetry.explain import CompileLedger, Decision
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.metrics import Histogram, render_prometheus
from repro.telemetry.monitors import (
    ConvergenceMonitor,
    DivergenceTally,
    OnlineEss,
    SplitRhat,
    Welford,
)
from repro.telemetry.obslog import (
    EventLog,
    ObsEvent,
    configure_event_log,
    current_rid,
    get_event_log,
    log_event,
    request_context,
)
from repro.telemetry.profile import SweepProfile, SweepProfiler
from repro.telemetry.report import render_html, report_data, write_report
from repro.telemetry.stats import (
    BASE_FIELDS,
    SampleStats,
    StatField,
    UpdateStatsBuffer,
    acceptance_ranges,
    allocate_stat_buffers,
    stack_chain_stats,
)
from repro.telemetry.trace import (
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    instant,
    span,
    tracing_enabled,
    write_trace,
)

__all__ = [
    "BASE_FIELDS",
    "CompileLedger",
    "ConvergenceMonitor",
    "Decision",
    "DivergenceTally",
    "EventLog",
    "FlightRecorder",
    "Histogram",
    "ObsEvent",
    "OnlineEss",
    "SampleStats",
    "SplitRhat",
    "StatField",
    "SweepProfile",
    "SweepProfiler",
    "Tracer",
    "UpdateStatsBuffer",
    "Welford",
    "acceptance_ranges",
    "allocate_stat_buffers",
    "configure_event_log",
    "current_rid",
    "disable_tracing",
    "enable_tracing",
    "get_event_log",
    "get_tracer",
    "instant",
    "log_event",
    "render_html",
    "render_prometheus",
    "report_data",
    "request_context",
    "span",
    "stack_chain_stats",
    "tracing_enabled",
    "write_report",
    "write_trace",
]
