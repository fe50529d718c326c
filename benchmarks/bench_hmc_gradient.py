"""Fused-gradient HMC/NUTS throughput on hierarchical LR.

Both legs integrate on the packed flat state vector.  The baseline leg
(``fuse_gradient=False``) evaluates each point with separate compiled
log-density and gradient calls; the standalone adjoint function
re-derives the forward pass (the sigmoid of the linear predictor) for
every partial.  The fused leg (the defaults) emits one
``ll_grad_<block>`` declaration whose CSE'd body evaluates the forward
pass once per call, so every NUTS leaf costs a single compiled
evaluation.

Results land in ``BENCH_hmc_gradient.json`` at the repository root,
stamped with the host's CPU count and the Python and NumPy versions.
Acceptance: the combined HMC+NUTS sweep time must improve by at least
``MIN_SPEEDUP_COMBINED``, with per-schedule regression floors on HMC
and NUTS individually.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time

import numpy as np

from repro.core.compiler import compile_model
from repro.core.options import CompileOptions
from repro.eval import models
from repro.eval.datasets import german_credit_like
from repro.eval.experiments.common import format_table
from repro.eval.experiments.hlr import _hlr_inputs
from repro.eval.metrics import ess_bulk
from repro.runtime.rng import Rng

FULL = os.environ.get("REPRO_FULL") == "1"
N, D = (8000, 64) if FULL else (4000, 48)
HMC_SWEEPS = 30 if FULL else 15
NUTS_SWEEPS = 16 if FULL else 8

MIN_SPEEDUP_COMBINED = 2.0
MIN_SPEEDUP_HMC = 1.5
MIN_SPEEDUP_NUTS = 2.0

# Adaptive-warmup comparison: NUTS with no user step size (dual
# averaging + mass-matrix warmup) must reach at least this fraction of
# the hand-tuned schedule's bulk-ESS per second, warmup time included.
ADAPT_WARMUP = 200 if FULL else 150
ESS_SAMPLES = 150 if FULL else 100
MIN_ADAPTED_ESS_FRACTION = 0.5

RESULTS_JSON = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_hmc_gradient.json"
)

SCHEDULES = {
    "HMC": ("HMC[steps=10, step_size=0.005] (sigma2, b, theta)", HMC_SWEEPS),
    "NUTS": ("NUTS[step_size=0.005] (sigma2, b, theta)", NUTS_SWEEPS),
}


def _record(section: dict) -> None:
    """Merge ``section`` into the results file (each test owns its own
    keys) and stamp the host it was measured on."""
    recorded = {}
    if RESULTS_JSON.exists():
        try:
            recorded = json.loads(RESULTS_JSON.read_text())
        except (json.JSONDecodeError, OSError):
            recorded = {}
    recorded.update(section)
    recorded.update(
        host_cpus=os.cpu_count(),
        python=platform.python_version(),
        numpy=np.__version__,
    )
    RESULTS_JSON.write_text(json.dumps(recorded, indent=2))


def _per_sweep_seconds(hypers, observed, schedule, sweeps, **opts) -> float:
    options = CompileOptions(**opts) if opts else None
    sampler = compile_model(
        models.HLR, hypers, observed, schedule=schedule, options=options
    )
    rng = Rng(7)
    state = sampler.init_state(rng)
    for _ in range(3):  # warm up caches and allocators
        sampler.step(state, rng)
    t0 = time.perf_counter()
    for _ in range(sweeps):
        sampler.step(state, rng)
    return (time.perf_counter() - t0) / sweeps


def test_fused_gradient_speedup(report):
    data = german_credit_like(n=N, d=D)
    hypers, observed = _hlr_inputs(data)

    results = {}
    for label, (schedule, sweeps) in SCHEDULES.items():
        base = _per_sweep_seconds(
            hypers, observed, schedule, sweeps, fuse_gradient=False
        )
        fused = _per_sweep_seconds(hypers, observed, schedule, sweeps)
        results[label] = {
            "baseline_s_per_sweep": base,
            "fused_s_per_sweep": fused,
            "speedup": base / fused,
            "sweeps": sweeps,
        }

    base_total = sum(r["baseline_s_per_sweep"] for r in results.values())
    fused_total = sum(r["fused_s_per_sweep"] for r in results.values())
    combined = base_total / fused_total

    report(
        f"Fused ll+grad HMC & NUTS -- HLR n={N} d={D}",
        format_table(
            ["schedule", "baseline s/sweep", "fused s/sweep", "speedup"],
            [
                [label,
                 f"{r['baseline_s_per_sweep']:.4f}",
                 f"{r['fused_s_per_sweep']:.4f}",
                 f"{r['speedup']:.2f}x"]
                for label, r in results.items()
            ] + [["combined", f"{base_total:.4f}", f"{fused_total:.4f}",
                  f"{combined:.2f}x"]],
        ),
    )

    _record({
        "n": N,
        "d": D,
        "schedules": results,
        "combined_speedup": combined,
        "min_speedup_combined": MIN_SPEEDUP_COMBINED,
        "min_speedup_hmc": MIN_SPEEDUP_HMC,
        "min_speedup_nuts": MIN_SPEEDUP_NUTS,
    })

    assert combined >= MIN_SPEEDUP_COMBINED, (
        f"fused HMC+NUTS only {combined:.2f}x faster "
        f"(required {MIN_SPEEDUP_COMBINED}x)"
    )
    assert results["HMC"]["speedup"] >= MIN_SPEEDUP_HMC, (
        f"fused HMC only {results['HMC']['speedup']:.2f}x faster "
        f"(required {MIN_SPEEDUP_HMC}x)"
    )
    assert results["NUTS"]["speedup"] >= MIN_SPEEDUP_NUTS, (
        f"fused NUTS only {results['NUTS']['speedup']:.2f}x faster "
        f"(required {MIN_SPEEDUP_NUTS}x)"
    )


def _ess_run(hypers, observed, schedule: str, warmup: int) -> dict:
    """One end-to-end NUTS run; returns bulk-ESS/s plus the adaptation
    telemetry the CI regression gate reads (leapfrogs per kept draw,
    final step size)."""
    sampler = compile_model(models.HLR, hypers, observed, schedule=schedule)
    result = sampler.sample(
        num_samples=ESS_SAMPLES,
        seed=11,
        collect=("theta",),
        collect_stats=True,
        warmup=warmup,
    )
    draws = np.asarray(result.samples["theta"], dtype=np.float64)
    ess = float(
        np.mean([ess_bulk(draws[None, :, i]) for i in range(draws.shape[1])])
    )
    label = result.stats.update_labels[0]
    cols = result.stats[label]
    kept = cols["n_leapfrog"][result.stats.kept_slice]
    return {
        "schedule": schedule,
        "warmup": warmup,
        "samples": ESS_SAMPLES,
        "ess_bulk_mean": ess,
        "wall_s": float(result.wall_time),
        "ess_per_s": ess / max(float(result.wall_time), 1e-9),
        "leapfrogs_per_draw": float(np.mean(kept)),
        "step_size": float(cols["step_size"][-1]),
    }


def test_adaptive_warmup_ess(report):
    data = german_credit_like(n=N, d=D)
    hypers, observed = _hlr_inputs(data)

    hand = _ess_run(
        hypers, observed, "NUTS[step_size=0.005] (sigma2, b, theta)", warmup=0
    )
    adapted = _ess_run(
        hypers, observed, "NUTS (sigma2, b, theta)", warmup=ADAPT_WARMUP
    )
    fraction = adapted["ess_per_s"] / max(hand["ess_per_s"], 1e-12)

    report(
        f"Adaptive warmup vs hand-tuned NUTS -- HLR n={N} d={D}",
        format_table(
            ["run", "ESS/s", "bulk ESS", "wall s", "leapfrogs/draw", "step"],
            [
                [name,
                 f"{r['ess_per_s']:.1f}",
                 f"{r['ess_bulk_mean']:.1f}",
                 f"{r['wall_s']:.2f}",
                 f"{r['leapfrogs_per_draw']:.1f}",
                 f"{r['step_size']:.4g}"]
                for name, r in [("hand-tuned", hand), ("adapted", adapted)]
            ] + [["adapted/hand-tuned", f"{fraction:.2f}x", "", "", "", ""]],
        ),
    )

    _record({"adaptive": {
        "hand_tuned": hand,
        "adapted": adapted,
        "ess_fraction": fraction,
        "min_ess_fraction": MIN_ADAPTED_ESS_FRACTION,
    }})

    assert fraction >= MIN_ADAPTED_ESS_FRACTION, (
        f"adapted NUTS reaches only {fraction:.2f}x of the hand-tuned "
        f"ESS/s (required {MIN_ADAPTED_ESS_FRACTION}x)"
    )
