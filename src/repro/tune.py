"""Measured schedule autotuning: HMC raced against NUTS on each gradient block.

The paper (Section 4.2) frames kernel selection as a one-shot choice:
either the user pins a schedule or the heuristic picks one.  The
heuristic samples every gradient block with HMC, and whether NUTS mixes
better per second depends on the model and the data size.
This module settles that one question by measurement:

1. **Race** the baseline schedule (the heuristic's, or the user's)
   against one entry per gradient update that swaps its method
   HMC<->NUTS.  A schedule without a gradient update keeps its
   baseline and runs no trial at all.  Every entry compiles with the
   caller's options: the race varies the schedule only.
2. **Trial** each entry for :data:`TRIAL_SWEEPS` sweeps on its own
   fresh :class:`~repro.runtime.rng.Rng` stream, so the caller's
   production stream is never advanced: a tuned-then-sampled run is
   bitwise identical to compiling the winner's schedule directly.
3. **Score** each entry by ESS per second (the trial chain's bulk ESS
   over its measured sweep time): a NUTS sweep costs more than an HMC
   sweep but may mix far better.  An entry whose chain never moved
   scores 0 and cannot win; a swap must beat the baseline by
   :data:`MIN_GAIN`.
4. **Record** the race as ``tune.*`` ledger entries on the winning
   sampler (surfaced by ``explain()``, the CLI table, and the HTML
   report's "Schedule tournament" section).
5. **Cache** the verdict keyed by the *data-shape* fingerprint
   (:func:`repro.core.compiler.shape_cache_key`): repeat compiles and
   repeat serve requests with the same model shape skip the race.  The
   cache is persistable to disk.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.compiler import compile_model, front_end, shape_cache_key
from repro.core.kernel.ir import KBase, UpdateMethod, compose, flatten
from repro.core.kernel.schedule import format_schedule
from repro.core.options import CompileOptions
from repro.errors import ReproError
from repro.runtime.rng import Rng

#: Trials always sample from fresh streams seeded with this constant --
#: never from the caller's seed -- so tuning cannot perturb production
#: draws.
TRIAL_SEED = 0x7A11

#: Sweeps per trial (bulk ESS splits the chain in halves, so at least 4).
TRIAL_SWEEPS = 16

#: The winner must beat the baseline by at least this relative margin
#: (hysteresis: measurement noise must not flip schedules).
MIN_GAIN = 0.05


# ----------------------------------------------------------------------
# The verdict cache.
# ----------------------------------------------------------------------


@dataclass
class TuningCacheStats:
    """Hit/miss counters for the shape-keyed verdict cache."""

    hits: int = 0
    misses: int = 0


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
# Entries.
# ----------------------------------------------------------------------


@dataclass
class Candidate:
    """One race entry: a schedule string."""

    label: str
    schedule: str
    #: ``baseline`` or ``grad-method`` (an HMC<->NUTS swap).
    kind: str
    s_per_sweep: float | None = None
    ess_per_s: float | None = None
    #: ``winner`` / ``baseline`` / ``contender`` / ``failed``.
    verdict: str = "pending"
    #: ESS/s ratio over the baseline, minus 1 (``inf`` when only this
    #: entry's chain moved).
    gain: float | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _grad_swaps(baseline_kernel) -> list[Candidate]:
    """One HMC<->NUTS swap per gradient update of the baseline."""
    updates = flatten(baseline_kernel)
    swaps = []
    for i, upd in enumerate(updates):
        if not upd.method.needs_gradient:
            continue
        other = (
            UpdateMethod.NUTS
            if upd.method is UpdateMethod.HMC
            else UpdateMethod.HMC
        )
        # NUTS chooses its own trajectory length; ``steps`` is HMC-only.
        # Leaving ``step_size`` unpinned keeps warmup adaptation
        # eligibility identical to the baseline.
        opts = tuple(
            (k, v) for k, v in upd.options
            if not (other is UpdateMethod.NUTS and k == "steps")
        )
        swapped = list(updates)
        swapped[i] = KBase(method=other, unit=upd.unit, options=opts)
        swaps.append(Candidate(
            label=f"{other.value} {upd.unit}",
            schedule=format_schedule(compose(swapped)),
            kind="grad-method",
        ))
    return swaps


def _judge(baseline: Candidate, swaps: list[Candidate]) -> Candidate:
    """Score the trialled swaps against the baseline and set every
    verdict; returns the winner.

    A swap's gain is its ESS/s over the baseline's, minus 1.  Against a
    baseline whose chain never moved (0 ESS/s) a moving swap gains
    ``inf`` and a stuck one 0, so an entry at 0 ESS/s never wins.
    """
    base = baseline.ess_per_s
    baseline.gain = 0.0
    contenders = [c for c in swaps if c.verdict != "failed"]
    for cand in contenders:
        if base > 0.0:
            cand.gain = cand.ess_per_s / base - 1.0
        else:
            cand.gain = math.inf if cand.ess_per_s > 0.0 else 0.0
        cand.verdict = "contender"
    winner = max(
        (c for c in contenders if c.gain >= MIN_GAIN),
        key=lambda c: c.gain, default=baseline,
    )
    baseline.verdict = "baseline"
    winner.verdict = "winner"
    return winner


# ----------------------------------------------------------------------
# Trials.
# ----------------------------------------------------------------------


def _first_component(arr: np.ndarray) -> np.ndarray:
    a = np.asarray(arr, dtype=float)
    return a.reshape(a.shape[0], -1)[:, 0] if a.ndim > 1 else a


def _trial(
    cand: Candidate, source, hyper_values, data_values, options, proposals,
    grad_vars: tuple[str, ...],
) -> None:
    """One measured run of :data:`TRIAL_SWEEPS` sweeps on a fresh
    stream; fills ``cand.s_per_sweep`` and ``cand.ess_per_s``."""
    # eval.metrics imports scipy.stats; only gradient trials pay it.
    from repro.eval.metrics import ess_bulk

    sampler = compile_model(
        source, hyper_values, data_values,
        options=options, schedule=cand.schedule, proposals=proposals,
    )
    result = sampler.sample(
        num_samples=TRIAL_SWEEPS, seed=Rng(TRIAL_SEED), collect=grad_vars,
    )
    # The first sweep pays one-off costs (allocator warm-up, page
    # faults); the median of the rest is the steady-state cost.
    sps = max(float(np.median(result.sweep_times[1:])), 1e-9)
    worst = min(
        ess_bulk(_first_component(result.array(var))[None, :])
        for var in grad_vars
    )
    cand.s_per_sweep = sps
    cand.ess_per_s = worst / (sps * TRIAL_SWEEPS)


# ----------------------------------------------------------------------
# The race.
# ----------------------------------------------------------------------


def autotune(
    source: str,
    hyper_values: dict,
    data_values: dict,
    *,
    options: CompileOptions | None = None,
    schedule: str | None = None,
    proposals: dict | None = None,
):
    """Tune the schedule by measurement and compile the winner.

    Returns a :class:`~repro.core.sampler.CompiledSampler` compiled
    with the race winner's schedule string, carrying the race as
    ``sampler.tune_report`` plus ``tune.*`` ledger entries.  Sampling
    from it with the caller's seed is bitwise identical to compiling the
    winner's schedule directly: trials run on their own fresh streams.

    When the model's shape fingerprint has a cached verdict, the race
    is skipped entirely and the winner is compiled directly
    (``tune_report["cache"] == "hit"``).
    """
    options = options or CompileOptions()
    t0 = time.perf_counter()
    shape_key = shape_cache_key(source, hyper_values, data_values, options, schedule)

    verdict = _verdicts.get(shape_key)
    if verdict is not None:
        _verdict_stats.hits += 1
        report = dict(verdict["tournament"], cache="hit")
        report["tuning_seconds"] = time.perf_counter() - t0
    else:
        _verdict_stats.misses += 1
        winner, entries = _race(
            source, hyper_values, data_values, options, schedule, proposals
        )
        report = {
            "cache": "miss",
            "shape_key": shape_key,
            "baseline_schedule": entries[0].schedule,
            "winner": winner.to_dict(),
            "margin": winner.gain,
            "trial_sweeps": TRIAL_SWEEPS if len(entries) > 1 else 0,
            "candidates": [c.to_dict() for c in entries],
            "tuning_seconds": time.perf_counter() - t0,
        }
        verdict = {"schedule": winner.schedule, "tournament": report}
        _verdicts[shape_key] = verdict

    sampler = compile_model(
        source, hyper_values, data_values,
        options=options, schedule=verdict["schedule"], proposals=proposals,
    )
    sampler.tune_report = report
    if sampler.ledger is not None:
        _record_ledger(sampler.ledger, report)
    return sampler


def _race(
    source, hyper_values, data_values, options, schedule, proposals,
) -> tuple[Candidate, list[Candidate]]:
    """Trial and judge the baseline and its HMC<->NUTS swaps; returns
    the winner and every entry, baseline first."""
    _, _, _, kernel = front_end(
        source, hyper_values, data_values, options, schedule
    )
    baseline = Candidate("baseline", format_schedule(kernel), "baseline")
    swaps = _grad_swaps(kernel)
    if swaps:
        grad_vars = tuple(
            name
            for upd in flatten(kernel)
            if upd.method.needs_gradient
            for name in upd.unit.names
        )
        for cand in (baseline, *swaps):
            try:
                _trial(
                    cand, source, hyper_values, data_values, options,
                    proposals, grad_vars,
                )
            except Exception as exc:  # swap compiles are speculative
                if cand is baseline:
                    raise
                cand.verdict = "failed"
                cand.error = f"{type(exc).__name__}: {exc}"
    return _judge(baseline, swaps), [baseline, *swaps]


def _record_ledger(ledger, report) -> None:
    for cand in report["candidates"]:
        sps = cand.get("s_per_sweep")
        ess = cand.get("ess_per_s")
        if cand["verdict"] == "failed":
            reason = f"trial failed: {cand.get('error')}"
        elif sps is None:
            reason = "not trialled"
        else:
            reason = f"measured {sps:.3g} s/sweep"
            if ess is not None:
                reason += f", {ess:.3g} ESS/s"
            gain = cand.get("gain")
            if gain is not None and cand["kind"] != "baseline":
                reason += f" ({gain:+.1%} vs. baseline)"
        ledger.record("tune.candidate", cand["label"], cand["verdict"], reason)
    winner = report["winner"]
    margin = report.get("margin")
    ledger.record(
        "tune.winner", winner["label"], winner["schedule"],
        "won the trial-sweep race"
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
    """The race as an aligned console table (CLI ``--explain``)."""
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
            fmt(cand.get("s_per_sweep")),
            fmt(cand.get("ess_per_s")),
            fmt(cand.get("gain"), "+.1%"),
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
    lines.append(f"  winner: {report['winner']['schedule']}")
    return "\n".join(lines)
