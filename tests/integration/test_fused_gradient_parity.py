"""Compiled fused-gradient parity on a real model.

The acceptance contract for the fused codegen path: with the same seed,
HMC and NUTS trajectories are *bitwise identical* with fusion on vs.
off (both run the packed flat-state integrator; fusion only changes how
many compiled calls produce the same numbers).  Sweep telemetry must
not change shape or meaning under the option.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compiler import compile_model
from repro.core.options import CompileOptions
from repro.eval import models
from repro.eval.datasets import german_credit_like
from repro.eval.experiments.hlr import _hlr_inputs

HMC_SCHED = "HMC[steps=5, step_size=0.05] (sigma2, b, theta)"
NUTS_SCHED = "NUTS[step_size=0.05] (sigma2, b, theta)"


@pytest.fixture(scope="module")
def hlr_inputs():
    data = german_credit_like(n=40, d=3)
    return _hlr_inputs(data)


def _compile(hlr_inputs, schedule, **opts):
    hypers, observed = hlr_inputs
    options = CompileOptions(**opts) if opts else None
    return compile_model(
        models.HLR, hypers, observed, schedule=schedule, options=options
    )


@pytest.mark.parametrize("schedule", [HMC_SCHED, NUTS_SCHED])
def test_fused_draws_bitwise_identical(hlr_inputs, schedule):
    s_fused = _compile(hlr_inputs, schedule)
    s_plain = _compile(hlr_inputs, schedule, fuse_gradient=False)
    r_fused = s_fused.sample(num_samples=12, seed=7)
    r_plain = s_plain.sample(num_samples=12, seed=7)
    for k in ("sigma2", "b", "theta"):
        np.testing.assert_array_equal(
            r_fused.array(k), r_plain.array(k),
            err_msg=f"fused vs unfused draws differ for {k} ({schedule})",
        )


def test_fused_decl_in_generated_source(hlr_inputs):
    s_fused = _compile(hlr_inputs, HMC_SCHED)
    s_plain = _compile(hlr_inputs, HMC_SCHED, fuse_gradient=False)
    assert "ll_grad_sigma2_b_theta" in s_fused.source
    assert "ll_grad_" not in s_plain.source


@pytest.mark.parametrize("schedule", [HMC_SCHED, NUTS_SCHED])
def test_telemetry_unchanged_under_fusion(hlr_inputs, schedule):
    s_fused = _compile(hlr_inputs, schedule)
    s_plain = _compile(hlr_inputs, schedule, fuse_gradient=False)
    r_fused = s_fused.sample(num_samples=12, seed=7, collect_stats=True)
    r_plain = s_plain.sample(num_samples=12, seed=7, collect_stats=True)
    st_fused = r_fused.stats.to_dict()
    st_plain = r_plain.stats.to_dict()
    assert st_fused.keys() == st_plain.keys()
    for k in st_fused:
        np.testing.assert_allclose(
            st_fused[k], st_plain[k], rtol=1e-7, atol=1e-9, equal_nan=True,
            err_msg=f"stat {k} changed under the fused path",
        )


def test_mixed_schedule_with_discrete_block_still_runs(hlr_inputs):
    # GMM: HMC on mu rides the fused path; the discrete z block stays on
    # its own update.  Smoke-checks the decl-level fallback wiring.
    rng = np.random.default_rng(0)
    K, N, D = 2, 12, 2
    hypers = {
        "K": K, "N": N,
        "mu_0": np.zeros(D), "Sigma_0": np.eye(D) * 4.0,
        "pis": np.full(K, 0.5), "Sigma": np.eye(D) * 0.5,
    }
    observed = {"x": rng.normal(size=(N, D))}
    sched = "HMC[steps=4, step_size=0.02] mu (*) Gibbs z"
    s_fused = compile_model(models.GMM, hypers, observed, schedule=sched)
    s_plain = compile_model(
        models.GMM, hypers, observed, schedule=sched,
        options=CompileOptions(fuse_gradient=False),
    )
    r1 = s_fused.sample(num_samples=8, seed=3)
    r2 = s_plain.sample(num_samples=8, seed=3)
    np.testing.assert_array_equal(r1.array("mu"), r2.array("mu"))
    np.testing.assert_array_equal(r1.array("z"), r2.array("z"))
