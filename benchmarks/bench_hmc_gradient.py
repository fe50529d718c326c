"""Adapted NUTS against hand-tuned NUTS on hierarchical LR.

Both runs sample the fused ``ll_grad_<block>`` declaration on the packed
flat state.  The hand-tuned run pins a small step size; the adapted run
leaves it free, so warmup tunes the step size by dual averaging and
estimates a diagonal mass matrix.  Acceptance: the adapted run reaches
at least ``MIN_ADAPTED_ESS_FRACTION`` of the hand-tuned bulk-ESS per
second, warmup time included.

Results land in ``BENCH_hmc_gradient.json`` at the repository root,
stamped with the host's CPU count and the Python and NumPy versions;
CI compares the adapted run's leapfrogs per draw against the committed
copy.  The fused path's sweep time at the same size (n=4000, d=48) is
timed by the repository benchmark's ``hlr_nuts`` workload.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform

import numpy as np

from repro.core.compiler import compile_model
from repro.eval import models
from repro.eval.datasets import german_credit_like
from repro.eval.experiments.common import format_table
from repro.eval.experiments.hlr import _hlr_inputs
from repro.eval.metrics import ess_bulk

FULL = os.environ.get("REPRO_FULL") == "1"
N, D = (8000, 64) if FULL else (4000, 48)

# NUTS with no user step size (dual averaging + mass-matrix warmup) must
# reach at least this fraction of the hand-tuned schedule's bulk-ESS per
# second, warmup time included.
ADAPT_WARMUP = 200 if FULL else 150
ESS_SAMPLES = 150 if FULL else 100
MIN_ADAPTED_ESS_FRACTION = 0.5

RESULTS_JSON = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_hmc_gradient.json"
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

    RESULTS_JSON.write_text(json.dumps({
        "n": N,
        "d": D,
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "adaptive": {
            "hand_tuned": hand,
            "adapted": adapted,
            "ess_fraction": fraction,
            "min_ess_fraction": MIN_ADAPTED_ESS_FRACTION,
        },
    }, indent=2))

    assert fraction >= MIN_ADAPTED_ESS_FRACTION, (
        f"adapted NUTS reaches only {fraction:.2f}x of the hand-tuned "
        f"ESS/s (required {MIN_ADAPTED_ESS_FRACTION}x)"
    )
