"""HMC and NUTS on a ragged parameter, end to end.

A ragged variable packs as one slot over its flat buffer, so gradient
blocks over vectors of vectors run on the same integrator as dense
ones.  The model is conjugate per element, which gives a closed-form
posterior to check the kept draws against.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compiler import compile_model
from repro.core.options import CompileOptions

from tests.telemetry.test_explain import RAGGED_ELEMENTS, ragged_inputs


def _draws(results) -> np.ndarray:
    """Kept draws of ``t`` as a (draws, elements) array over all chains."""
    return np.concatenate(
        [np.stack([t.flat for t in r.samples["t"]]) for r in results]
    )


@pytest.mark.parametrize(
    "schedule,warmup",
    [("HMC[steps=10, step_size=0.2] t", 0), ("NUTS t", 75)],
    ids=["hmc", "nuts"],
)
def test_ragged_block_samples_closed_form_posterior(schedule, warmup):
    hypers, data = ragged_inputs()
    sampler = compile_model(RAGGED_ELEMENTS, hypers, data, schedule=schedule)
    runs = {
        executor: sampler.sample_chains(
            2, num_samples=150, seed=3, executor=executor, n_workers=2,
            warmup=warmup,
        )
        for executor in ("sequential", "processes")
    }
    np.testing.assert_array_equal(
        _draws(runs["sequential"]), _draws(runs["processes"])
    )

    draws = _draws(runs["sequential"])
    v0, v = hypers["v0"], hypers["v"]
    var = 1.0 / (1.0 / v0 + 1.0 / v)
    mean = var * data["y"].flat / v
    # Conservative effective sample size: a tenth of the kept draws.
    ess = draws.shape[0] / 10
    z = (draws.mean(axis=0) - mean) / np.sqrt(var / ess)
    assert np.max(np.abs(z)) <= 5.0, z
    ratio = draws.var(axis=0) / var
    assert np.all((ratio > 0.5) & (ratio < 2.0)), ratio


@pytest.mark.parametrize(
    "schedule,warmup",
    [("HMC[steps=10, step_size=0.2] t", 0), ("NUTS t", 20)],
    ids=["hmc", "nuts"],
)
def test_ragged_gradient_paths_draw_identically(schedule, warmup):
    # The CPU target's fused value+gradient and the GPU target's
    # separate log-density and gradient kernels both run the ragged
    # block on its flat buffer, summing in the same order.
    hypers, data = ragged_inputs(d=40)
    cpu, gpu = (
        compile_model(
            RAGGED_ELEMENTS, hypers, data, schedule=schedule, options=options
        ).sample(num_samples=30, seed=5, warmup=warmup, collect_stats=True)
        for options in (CompileOptions(), CompileOptions(target="gpu"))
    )
    np.testing.assert_array_equal(_draws([cpu]), _draws([gpu]))
    st_cpu, st_gpu = cpu.stats.to_dict(), gpu.stats.to_dict()
    assert st_cpu.keys() == st_gpu.keys()
    for k in st_cpu:
        np.testing.assert_array_equal(st_cpu[k], st_gpu[k], err_msg=k)
