"""Profile-guided schedule tuning: the tournament's verdict on a
gradient block.

On ``EXP_NORMAL`` the heuristic samples the scale ``v`` with fixed-step
HMC, and the tournament swaps in NUTS, which mixes several times better
per second.  The swap is judged the way the tournament judges every
gradient-method swap: by ESS per second of trial sweeps.  This
benchmark records both schedules' tournament scores and checks the
shape-keyed verdict cache: the second ``autotune`` with the same shape
fingerprint must skip the trial sweeps entirely.

Results land in ``BENCH_schedule_tuning.json`` at the repository
root.  The acceptance assertions: the tournament changed the schedule,
the tuned schedule scores at least the heuristic's ESS/s, and the
repeat tuning call is a cache hit.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.eval import models
from repro.eval.experiments.common import format_table
from repro.tune import MIN_GAIN, autotune, clear_tuning_cache, tuning_cache_stats

#: One size for every run: from about 4000 observations the heuristic's
#: fixed HMC step diverges on every proposal, leaving no score to beat.
N_OBS = 2000
RESULTS_JSON = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_schedule_tuning.json"
)

MODEL = models.EXP_NORMAL
HYPERS = {"N": N_OBS, "lam": 1.0}


def _data():
    rng = np.random.default_rng(0)
    return {"y": rng.normal(0.0, 1.5, size=N_OBS)}


def _scores(report: dict) -> tuple[float, float]:
    """The tournament's ESS/s for the heuristic and for the winner."""
    (baseline,) = [c for c in report["candidates"] if c["kind"] == "baseline"]
    return baseline["ess_per_s"], report["winner"]["ess_per_s"]


def test_tuned_schedule_beats_heuristic(report):
    data = _data()

    clear_tuning_cache()
    t0 = time.perf_counter()
    tuned = autotune(MODEL, HYPERS, data)
    tuning_s = time.perf_counter() - t0
    assert tuned.tune_report["cache"] == "miss"
    heuristic_schedule = tuned.tune_report["baseline_schedule"]

    t0 = time.perf_counter()
    cached = autotune(MODEL, HYPERS, data)
    cached_s = time.perf_counter() - t0
    cache_hit = cached.tune_report["cache"] == "hit"
    assert cache_hit, "second autotune with the same shapes must hit"
    assert tuning_cache_stats().hits >= 1
    assert cached.spec.schedule == tuned.spec.schedule

    heuristic_ess_s, tuned_ess_s = _scores(tuned.tune_report)
    gain = tuned.tune_report["margin"]

    report(
        f"Schedule tuning -- EXP_NORMAL, {N_OBS} observations",
        format_table(
            ["schedule", "ESS/s", "gain", "tuning s"],
            [
                [heuristic_schedule, f"{heuristic_ess_s:.1f}", "baseline", "-"],
                [tuned.spec.schedule, f"{tuned_ess_s:.1f}",
                 f"{gain:+.2f}", f"{tuning_s:.2f}"],
                ["(cache hit)", "-", "-", f"{cached_s:.3f}"],
            ],
        ),
    )

    RESULTS_JSON.write_text(
        json.dumps(
            {
                "model": "EXP_NORMAL",
                "n_obs": N_OBS,
                "heuristic_schedule": heuristic_schedule,
                "tuned_schedule": tuned.spec.schedule,
                "heuristic_ess_per_s": heuristic_ess_s,
                "tuned_ess_per_s": tuned_ess_s,
                "gain": gain,
                "min_gain": MIN_GAIN,
                "tuning_seconds": tuning_s,
                "cached_tuning_seconds": cached_s,
                "cache_hit": cache_hit,
                "tournament": tuned.tune_report["candidates"],
            },
            indent=2,
        )
    )

    assert tuned.spec.schedule != heuristic_schedule, (
        "the tournament should discover a non-heuristic winner here"
    )
    assert tuned_ess_s >= heuristic_ess_s, (
        f"tuned schedule scores below the heuristic: "
        f"{tuned_ess_s:.1f} vs {heuristic_ess_s:.1f} ESS/s"
    )
