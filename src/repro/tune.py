"""Profile-guided schedule autotuning: measured trial-sweep tournaments.

The paper (Section 4.2) frames kernel selection as a one-shot choice:
either the user pins a schedule or the heuristic picks one.  Both are
static -- but the best schedule is model- *and* data-size-dependent
(Tristan et al., 2014): scalar conjugate Gibbs beats batched MH on ten
elements and loses badly on ten thousand.  This module closes the loop
with measurement:

1. **Enumerate** a bounded candidate set around the baseline schedule:
   per-block method alternatives (Gibbs vs. MH vs. Slice/ESlice where
   each validates), ``batch=off`` twins for element-wise updates, and
   HMC<->NUTS for the gradient block.  Every candidate compiles with
   the caller's options: the tournament varies the schedule only.
2. **Trial** each candidate with a short probe round and, for the
   survivors, a longer trial round -- every trial on its own fresh
   :class:`~repro.runtime.rng.Rng` stream, so the caller's production
   stream is never advanced: a tuned-then-sampled run is bitwise
   identical to compiling the winner's schedule directly.
3. **Score** with measured seconds/sweep (the sweep profiler's
   attribution rides into the report); gradient-method swaps are judged
   on ESS/second (the trial chain's bulk ESS) instead, since a NUTS sweep
   costs more but may mix far better.
4. **Record** the whole tournament as ``tune.*`` ledger entries on the
   winning sampler (surfaced by ``explain()``, the CLI table, and the
   HTML report's "Schedule tournament" section).
5. **Cache** the verdict keyed by the *data-shape* fingerprint
   (:func:`repro.core.compiler.shape_cache_key`): repeat compiles and
   repeat serve requests with the same model shape skip the search.
   The cache is persistable to disk.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.compiler import compile_model, shape_cache_key
from repro.core.density.lower import lower_and_factorize
from repro.core.frontend.parser import parse_model
from repro.core.frontend.symbols import analyze_model
from repro.core.frontend.typecheck import type_of_value
from repro.core.kernel.heuristic import heuristic_schedule
from repro.core.kernel.ir import KBase, UpdateMethod, compose, flatten
from repro.core.kernel.schedule import format_schedule, parse_schedule
from repro.core.kernel.validate import validate_schedule
from repro.core.options import CompileOptions
from repro.errors import ParseError, ReproError, ScheduleError
from repro.runtime.rng import Rng

#: Trials always sample from fresh streams seeded with this constant --
#: never from the caller's seed -- so tuning cannot perturb production
#: draws.
TRIAL_SEED = 0x7A11

#: A candidate whose probe-round s/sweep exceeds the round's best by
#: this factor is eliminated without a trial round.
ELIMINATION_FACTOR = 3.0

#: The winner must beat the baseline by at least this relative margin
#: (hysteresis: measurement noise must not flip schedules).
MIN_GAIN = 0.05

_ELEMENTWISE = (UpdateMethod.MH, UpdateMethod.SLICE, UpdateMethod.ESLICE)


# ----------------------------------------------------------------------
# The verdict cache.
# ----------------------------------------------------------------------


@dataclass
class TuningCacheStats:
    """Hit/miss counters for the shape-keyed verdict cache."""

    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


_verdicts: dict[str, dict] = {}
_verdict_stats = TuningCacheStats()


def tuning_cache_stats() -> TuningCacheStats:
    """The live hit/miss counters (process-wide)."""
    return _verdict_stats


def clear_tuning_cache() -> None:
    """Drop every cached verdict and reset the counters."""
    _verdicts.clear()
    _verdict_stats.hits = 0
    _verdict_stats.misses = 0


def save_tuning_cache(path) -> int:
    """Persist the verdict cache as JSON; returns the verdict count."""
    with open(path, "w") as f:
        json.dump(_verdicts, f, indent=2, sort_keys=True)
    return len(_verdicts)


def load_tuning_cache(path) -> int:
    """Merge verdicts persisted by :func:`save_tuning_cache`; returns
    how many were loaded."""
    with open(path) as f:
        loaded = json.load(f)
    if not isinstance(loaded, dict):
        raise ReproError(f"not a tuning-cache file: {path}")
    _verdicts.update(loaded)
    return len(loaded)


# ----------------------------------------------------------------------
# Candidates.
# ----------------------------------------------------------------------


@dataclass
class Candidate:
    """One tournament entry: a schedule string."""

    label: str
    schedule: str
    #: What was varied relative to the baseline: ``baseline``,
    #: ``method``, ``batch``, or ``grad-method``.
    kind: str
    probe_s_per_sweep: float | None = None
    s_per_sweep: float | None = None
    ess_per_s: float | None = None
    #: ``winner`` / ``baseline`` / ``contender`` / ``eliminated`` /
    #: ``failed``.
    verdict: str = "pending"
    #: Relative improvement over the baseline (s/sweep ratio - 1, or
    #: ESS/s ratio - 1 for gradient-method swaps).
    gain: float | None = None
    error: str | None = None
    #: Top per-update attribution rows from the trial-round profile.
    profile_updates: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "schedule": self.schedule,
            "kind": self.kind,
            "probe_s_per_sweep": self.probe_s_per_sweep,
            "s_per_sweep": self.s_per_sweep,
            "ess_per_s": self.ess_per_s,
            "verdict": self.verdict,
            "gain": self.gain,
            "error": self.error,
        }


def _validates(kernel, fd, info, options) -> bool:
    """Does this candidate kernel survive the schedule validator?"""
    try:
        validate_schedule(
            parse_schedule(format_schedule(kernel)), fd, info,
            categorical_rule=options.categorical_rule,
        )
    except (ScheduleError, ParseError, ReproError):
        return False
    return True


def _swap(updates, i, new_upd):
    out = list(updates)
    out[i] = new_upd
    return compose(out)


def enumerate_candidates(
    baseline_kernel, fd, info, options: CompileOptions,
    max_candidates: int = 12,
) -> tuple[list[Candidate], int]:
    """The bounded candidate set around a baseline schedule.

    One change per candidate: a single update's method, one update's
    ``batch`` flag, or the gradient block's method.  Returns
    ``(candidates, dropped)`` where ``dropped`` counts eligible
    candidates cut by ``max_candidates`` (baseline always survives the
    cap and comes first).
    """
    updates = flatten(baseline_kernel)
    baseline = Candidate(
        label="baseline",
        schedule=format_schedule(baseline_kernel),
        kind="baseline",
    )
    out: list[Candidate] = [baseline]
    seen = {baseline.schedule}

    def add(label, kernel, kind) -> None:
        sched = format_schedule(kernel)
        if sched in seen or not _validates(kernel, fd, info, options):
            return
        seen.add(sched)
        out.append(Candidate(label=label, schedule=sched, kind=kind))

    for i, upd in enumerate(updates):
        if upd.method.needs_gradient:
            other = (
                UpdateMethod.NUTS
                if upd.method is UpdateMethod.HMC
                else UpdateMethod.HMC
            )
            # NUTS chooses its own trajectory length; ``steps`` is
            # HMC-only.  Leaving ``step_size`` unpinned keeps warmup
            # adaptation eligibility identical to the baseline.
            opts = tuple(
                (k, v) for k, v in upd.options
                if not (other is UpdateMethod.NUTS and k == "steps")
            )
            swapped = KBase(method=other, unit=upd.unit, options=opts)
            add(f"{other.value} {upd.unit}", _swap(updates, i, swapped),
                "grad-method")
            continue
        if not upd.unit.is_single:
            continue
        for method in (UpdateMethod.GIBBS, *_ELEMENTWISE):
            if method is upd.method:
                continue
            alt = KBase(method=method, unit=upd.unit)
            add(f"{method.value} {upd.unit}", _swap(updates, i, alt),
                "method")
        if upd.method in _ELEMENTWISE and upd.opt("batch") is None:
            off = KBase(
                method=upd.method, unit=upd.unit,
                options=upd.options + (("batch", "off"),),
            )
            add(f"{upd.method.value}[batch=off] {upd.unit}",
                _swap(updates, i, off), "batch")

    dropped = max(0, len(out) - max_candidates)
    return out[:max_candidates], dropped


# ----------------------------------------------------------------------
# Trials.
# ----------------------------------------------------------------------


def _grad_vars(baseline_kernel) -> tuple[str, ...]:
    for upd in flatten(baseline_kernel):
        if upd.method.needs_gradient:
            return upd.unit.names
    return ()


def _first_component(arr: np.ndarray) -> np.ndarray:
    a = np.asarray(arr, dtype=float)
    return a.reshape(a.shape[0], -1)[:, 0] if a.ndim > 1 else a


def _trial(
    cand: Candidate, source, hyper_values, data_values, options, proposals,
    sweeps: int, collect: tuple[str, ...], ess_vars: tuple[str, ...],
) -> tuple[float, float | None, list]:
    """One measured run of ``sweeps`` trial sweeps on a fresh stream.

    Returns ``(s_per_sweep, ess_per_s | None, profile_update_rows)``.
    """
    sampler = compile_model(
        source, hyper_values, data_values,
        options=options, schedule=cand.schedule, proposals=proposals,
    )
    result = sampler.sample(
        num_samples=sweeps, seed=Rng(TRIAL_SEED), collect=collect,
        profile=True,
    )
    times = np.asarray(result.sweep_times, dtype=float)
    if times.size > 1:
        # The first sweep pays one-off costs (allocator warm-up, page
        # faults); the median of the rest is the steady-state cost.
        sps = float(np.median(times[1:]))
    elif result.profile is not None:
        sps = float(result.profile.seconds_per_sweep)
    else:
        sps = float(times.mean()) if times.size else 0.0
    sps = max(sps, 1e-9)

    ess_per_s = None
    measured = [v for v in ess_vars if v in result.samples]
    if measured and sweeps >= 4:  # bulk ESS splits the chain in halves
        # eval.metrics imports scipy.stats; only gradient trials pay it.
        from repro.eval.metrics import ess_bulk

        worst = min(
            ess_bulk(_first_component(result.array(var))[None, :])
            for var in measured
        )
        ess_per_s = worst / (sps * sweeps)

    rows = []
    if result.profile is not None:
        rows = [
            {"name": r["name"], "seconds": r["seconds"]}
            for r in result.profile.updates
        ]
    return sps, ess_per_s, rows


# ----------------------------------------------------------------------
# The tournament.
# ----------------------------------------------------------------------


def autotune(
    source: str,
    hyper_values: dict,
    data_values: dict,
    *,
    options: CompileOptions | None = None,
    schedule: str | None = None,
    proposals: dict | None = None,
    probe_sweeps: int = 4,
    trial_sweeps: int = 16,
    max_candidates: int = 12,
    min_gain: float = MIN_GAIN,
    use_cache: bool = True,
    executor: str | None = None,
    n_workers: int | None = None,
):
    """Tune the schedule by measurement and compile the winner.

    Returns a :class:`~repro.core.sampler.CompiledSampler` compiled
    with the tournament winner's schedule string, carrying
    the tournament as ``sampler.tune_report`` plus ``tune.*`` ledger
    entries.  Sampling from it with the caller's seed is bitwise
    identical to compiling the winner's schedule directly: trials run
    on their own fresh streams.

    When ``use_cache`` is on and the model's shape fingerprint has a
    cached verdict, the search is skipped entirely and the winner is
    compiled directly (``tune_report["cache"] == "hit"``).

    ``executor="processes"`` pre-warms the winner's worker pool so a
    following multi-chain run lands on resident workers.
    """
    options = options or CompileOptions()
    t0 = time.perf_counter()
    shape_key = shape_cache_key(source, hyper_values, data_values, options, schedule)

    if use_cache and shape_key in _verdicts:
        _verdict_stats.hits += 1
        verdict = _verdicts[shape_key]
        report = dict(verdict["tournament"])
        report["cache"] = "hit"
        report["tuning_seconds"] = time.perf_counter() - t0
        return _finish(
            source, hyper_values, data_values, options, proposals,
            verdict["schedule"], report, executor, n_workers,
        )
    if use_cache:
        _verdict_stats.misses += 1

    # -- baseline kernel (frontend runs once for the whole tournament) --
    model = parse_model(source)
    missing = [h for h in model.hypers if h not in hyper_values]
    if missing:
        raise ReproError(f"missing hyper-parameter values: {missing}")
    hyper_types = {k: type_of_value(v) for k, v in hyper_values.items()}
    info = analyze_model(model, hyper_types)
    fd = lower_and_factorize(model)
    if schedule is not None:
        baseline_kernel = validate_schedule(
            parse_schedule(schedule), fd, info,
            categorical_rule=options.categorical_rule,
        )
    else:
        baseline_kernel = heuristic_schedule(
            fd, info, categorical_rule=options.categorical_rule
        )

    candidates, dropped = enumerate_candidates(
        baseline_kernel, fd, info, options, max_candidates=max_candidates
    )
    baseline = candidates[0]
    grad_vars = _grad_vars(baseline_kernel)
    collect = grad_vars or (tuple(info.param_names())[:1] or None)

    # -- probe round: every candidate, few sweeps ----------------------
    for cand in candidates:
        try:
            cand.probe_s_per_sweep, _, _ = _trial(
                cand, source, hyper_values, data_values, options, proposals,
                probe_sweeps, collect, (),
            )
        except Exception as exc:  # candidate compiles are speculative
            if cand is baseline:
                raise
            cand.verdict = "failed"
            cand.error = f"{type(exc).__name__}: {exc}"

    probed = [c for c in candidates if c.probe_s_per_sweep is not None]
    best_probe = min(c.probe_s_per_sweep for c in probed)
    for cand in probed:
        if (
            cand is not baseline
            and cand.probe_s_per_sweep > ELIMINATION_FACTOR * best_probe
        ):
            cand.verdict = "eliminated"

    # -- trial round: survivors, longer sweeps -------------------------
    for cand in probed:
        if cand.verdict == "eliminated":
            continue
        ess_vars = grad_vars if cand.kind in ("baseline", "grad-method") else ()
        try:
            cand.s_per_sweep, cand.ess_per_s, cand.profile_updates = _trial(
                cand, source, hyper_values, data_values, options, proposals,
                trial_sweeps, collect, ess_vars,
            )
        except Exception as exc:
            if cand is baseline:
                raise
            cand.verdict = "failed"
            cand.error = f"{type(exc).__name__}: {exc}"

    # -- scoring -------------------------------------------------------
    contenders = []
    for cand in candidates:
        if cand is baseline or cand.s_per_sweep is None:
            continue
        if (
            cand.kind == "grad-method"
            and cand.ess_per_s is not None
            and baseline.ess_per_s is not None
        ):
            cand.gain = cand.ess_per_s / baseline.ess_per_s - 1.0
        else:
            cand.gain = baseline.s_per_sweep / cand.s_per_sweep - 1.0
        contenders.append(cand)

    winner = max(contenders, key=lambda c: c.gain, default=None)
    if winner is None or winner.gain < min_gain:
        winner = baseline
    baseline.gain = 0.0
    for cand in contenders:
        if cand.verdict == "pending":
            cand.verdict = "contender"
    winner.verdict = "winner"
    if baseline.verdict == "pending":
        baseline.verdict = "baseline"

    report = {
        "cache": "miss",
        "shape_key": shape_key,
        "baseline_schedule": baseline.schedule,
        "winner": winner.to_dict(),
        "margin": winner.gain,
        "probe_sweeps": probe_sweeps,
        "trial_sweeps": trial_sweeps,
        "dropped_candidates": dropped,
        "candidates": [c.to_dict() for c in candidates],
        "tuning_seconds": time.perf_counter() - t0,
    }
    if use_cache:
        _verdicts[shape_key] = {"schedule": winner.schedule, "tournament": report}
    return _finish(
        source, hyper_values, data_values, options, proposals,
        winner.schedule, report, executor, n_workers,
    )


def _finish(
    source, hyper_values, data_values, options, proposals,
    winner_schedule, report, executor, n_workers,
):
    """Compile the winner, attach the tournament, prewarm its pool."""
    sampler = compile_model(
        source, hyper_values, data_values,
        options=options, schedule=winner_schedule, proposals=proposals,
    )
    sampler.tune_report = report
    if sampler.ledger is not None:
        _record_ledger(sampler.ledger, report)
    if executor == "processes":
        from repro.core.chains import default_workers, get_worker_pool

        get_worker_pool(sampler.spec, n_workers or default_workers(2))
    return sampler


def _record_ledger(ledger, report) -> None:
    for cand in report["candidates"]:
        sps = cand.get("s_per_sweep")
        probe = cand.get("probe_s_per_sweep")
        ess = cand.get("ess_per_s")
        if cand["verdict"] == "failed":
            reason = f"trial failed: {cand.get('error')}"
        elif cand["verdict"] == "eliminated":
            reason = (
                f"probe {probe:.3g} s/sweep dominated "
                f"(> {ELIMINATION_FACTOR:g}x best)"
            )
        else:
            reason = f"measured {sps:.3g} s/sweep"
            if ess is not None:
                reason += f", {ess:.3g} ESS/s"
            gain = cand.get("gain")
            if gain is not None and cand["verdict"] != "baseline":
                reason += f" ({gain:+.1%} vs. baseline)"
        ledger.record("tune.candidate", cand["label"], cand["verdict"], reason)
    winner = report["winner"]
    margin = report.get("margin")
    ledger.record(
        "tune.winner", winner["label"], winner["schedule"],
        "won the trial-sweep tournament"
        + (f" by {margin:+.1%}" if margin else " (baseline retained)"),
    )
    ledger.record(
        "tune.cache", report["shape_key"][:16], report["cache"],
        "verdict cache keyed by model + data-shape fingerprint"
        if report["cache"] == "miss"
        else "cached verdict reused; trial sweeps skipped",
    )


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------


def render_tournament(report: dict) -> str:
    """The tournament as an aligned console table (CLI ``--explain``)."""
    if not report:
        return "schedule tournament: not run"
    header = (
        f"schedule tournament ({len(report['candidates'])} candidates, "
        f"cache {report['cache']}, {report['tuning_seconds']:.2f} s):"
    )

    def fmt(v, spec=".3g"):
        return format(v, spec) if v is not None else "-"

    rows = [("candidate", "s/sweep", "ESS/s", "gain", "verdict")]
    for cand in report["candidates"]:
        rows.append((
            cand["label"],
            fmt(cand.get("s_per_sweep") or cand.get("probe_s_per_sweep")),
            fmt(cand.get("ess_per_s")),
            (
                format(cand["gain"], "+.1%")
                if cand.get("gain") is not None
                else "-"
            ),
            cand["verdict"],
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = [header]
    for r in rows:
        lines.append(
            "  " + "  ".join(
                f"{r[i]:<{widths[i]}}" if i == 0 else f"{r[i]:>{widths[i]}}"
                for i in range(5)
            )
        )
    if report.get("dropped_candidates"):
        lines.append(
            f"  ({report['dropped_candidates']} further candidates cut by "
            "the candidate cap)"
        )
    lines.append(f"  winner: {report['winner']['schedule']}")
    return "\n".join(lines)
