"""Element-parallel update throughput: batched vs scalar drivers.

The scalar element drivers pay two compiled conditional evaluations
plus Python loop overhead *per element per sweep*; the batched drivers
(PR 3) advance every lane with a handful of whole-vector calls against
the scatter-accumulated ``batch_cond_ll`` declaration.  This benchmark
measures per-sweep wall time and elements/second for both paths on a
model with ``N_ELEMENTS`` element-wise MH updates: ``MH mu`` against
its ``MH[batch=off] mu`` twin.

Results land in ``BENCH_element_updates.json`` at the repository root.
The acceptance assertion is on the MH path: the batched driver must be
at least ``MIN_SPEEDUP``x faster per sweep than the scalar driver.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from repro.core.compiler import compile_model
from repro.eval.experiments.common import format_table
from repro.runtime.rng import Rng

FULL = os.environ.get("REPRO_FULL") == "1"
N_ELEMENTS = 8000 if FULL else 2000
SCALAR_SWEEPS = 20 if FULL else 8
BATCHED_SWEEPS = 400 if FULL else 150
MIN_SPEEDUP = 5.0
RESULTS_JSON = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_element_updates.json"
)

MODEL = """
(N, v0, v) => {
  param mu[n] ~ Normal(0.0, v0) for n <- 0 until N ;
  data y[n] ~ Normal(mu[n], v) for n <- 0 until N ;
}
"""


def _sampler(batched: bool):
    rng = np.random.default_rng(0)
    hypers = {"N": N_ELEMENTS, "v0": 4.0, "v": 1.0}
    data = {"y": rng.normal(loc=1.0, size=N_ELEMENTS)}
    schedule = "MH mu" if batched else "MH[batch=off] mu"
    return compile_model(MODEL, hypers, data, schedule=schedule)


def _per_sweep_seconds(sampler, sweeps: int) -> float:
    rng = Rng(7)
    state = sampler.init_state(rng)
    for _ in range(3):  # warm up allocator and caches
        sampler.step(state, rng)
    t0 = time.perf_counter()
    for _ in range(sweeps):
        sampler.step(state, rng)
    return (time.perf_counter() - t0) / sweeps


def test_batched_element_updates_speedup(report):
    scalar = _sampler(batched=False)
    batched = _sampler(batched=True)
    (upd_s,) = scalar.updates
    (upd_b,) = batched.updates
    assert not upd_s.is_batched
    assert upd_b.is_batched

    scalar_s = _per_sweep_seconds(scalar, SCALAR_SWEEPS)
    batched_s = _per_sweep_seconds(batched, BATCHED_SWEEPS)
    speedup = scalar_s / batched_s

    def _eps(per_sweep: float) -> float:
        return N_ELEMENTS / per_sweep

    report(
        f"Element-parallel MH -- {N_ELEMENTS} element updates per sweep",
        format_table(
            ["driver", "s/sweep", "elements/s", "speedup"],
            [
                ["scalar MHDriver", f"{scalar_s:.4f}",
                 f"{_eps(scalar_s):,.0f}", "baseline"],
                ["VectorizedMHDriver", f"{batched_s:.4f}",
                 f"{_eps(batched_s):,.0f}", f"{speedup:.1f}x"],
            ],
        ),
    )

    RESULTS_JSON.write_text(
        json.dumps(
            {
                "n_elements": N_ELEMENTS,
                "scalar_sweeps": SCALAR_SWEEPS,
                "batched_sweeps": BATCHED_SWEEPS,
                "scalar_s_per_sweep": scalar_s,
                "batched_s_per_sweep": batched_s,
                "scalar_elements_per_s": _eps(scalar_s),
                "batched_elements_per_s": _eps(batched_s),
                "speedup": speedup,
                "min_speedup": MIN_SPEEDUP,
            },
            indent=2,
        )
    )

    assert speedup >= MIN_SPEEDUP, (
        f"batched MH only {speedup:.1f}x faster than scalar "
        f"(required {MIN_SPEEDUP}x)"
    )
