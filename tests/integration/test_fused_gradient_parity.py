"""Fused-gradient parity on a real model: CPU target against GPU target.

Each target compiles a gradient block one way: the CPU target emits one
fused ``ll_grad_<block>`` declaration, the GPU target the separate
``block_ll_<block>``/``grad_<block>`` kernels.  Both run the packed
flat-state integrator on the same numbers, so with the same seed HMC
and NUTS draws -- and every sweep statistic -- are bitwise identical
across targets, with or without warmup adaptation.  The GPU target is
the reference the fused path is held to.
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
ADAPTED_SCHED = "NUTS (sigma2, b, theta)"
WARMUP = {HMC_SCHED: 0, NUTS_SCHED: 0, ADAPTED_SCHED: 20}

GPU = CompileOptions(target="gpu")


@pytest.fixture(scope="module")
def hlr_inputs():
    data = german_credit_like(n=40, d=3)
    return _hlr_inputs(data)


def _run_both(source, hypers, observed, schedule, warmup=0, **kw):
    """The same seeded run on the CPU and the GPU target."""
    return [
        compile_model(
            source, hypers, observed, schedule=schedule, options=options
        ).sample(num_samples=12, seed=7, warmup=warmup, **kw)
        for options in (None, GPU)
    ]


def _assert_stats_equal(r_cpu, r_gpu):
    st_cpu, st_gpu = r_cpu.stats.to_dict(), r_gpu.stats.to_dict()
    assert st_cpu.keys() == st_gpu.keys()
    for k in st_cpu:
        np.testing.assert_array_equal(
            st_cpu[k], st_gpu[k], err_msg=f"stat {k} differs across targets"
        )


@pytest.mark.parametrize("schedule", list(WARMUP))
def test_fused_draws_bitwise_identical(hlr_inputs, schedule):
    r_cpu, r_gpu = _run_both(
        models.HLR, *hlr_inputs, schedule, warmup=WARMUP[schedule]
    )
    for k in ("sigma2", "b", "theta"):
        np.testing.assert_array_equal(
            r_cpu.array(k), r_gpu.array(k),
            err_msg=f"CPU vs GPU draws differ for {k} ({schedule})",
        )


def test_fused_decl_in_generated_source(hlr_inputs):
    cpu = compile_model(models.HLR, *hlr_inputs, schedule=HMC_SCHED)
    gpu = compile_model(
        models.HLR, *hlr_inputs, schedule=HMC_SCHED, options=GPU
    )
    assert "def ll_grad_sigma2_b_theta(" in cpu.source
    assert "block_ll_" not in cpu.source
    assert "def grad_" not in cpu.source
    assert "ll_grad_" not in gpu.source
    assert "block_ll_sigma2_b_theta" in gpu.source
    assert "grad_sigma2_b_theta" in gpu.source


@pytest.mark.parametrize("schedule", list(WARMUP))
def test_telemetry_unchanged_under_fusion(hlr_inputs, schedule):
    _assert_stats_equal(*_run_both(
        models.HLR, *hlr_inputs, schedule, warmup=WARMUP[schedule],
        collect_stats=True,
    ))


def test_mixed_schedule_with_discrete_block_still_runs():
    # GMM: HMC on mu rides the fused path on the CPU; the discrete z
    # block stays on its own update.
    rng = np.random.default_rng(0)
    K, N, D = 2, 12, 2
    hypers = {
        "K": K, "N": N,
        "mu_0": np.zeros(D), "Sigma_0": np.eye(D) * 4.0,
        "pis": np.full(K, 0.5), "Sigma": np.eye(D) * 0.5,
    }
    observed = {"x": rng.normal(size=(N, D))}
    sched = "HMC[steps=4, step_size=0.02] mu (*) Gibbs z"
    r_cpu, r_gpu = _run_both(
        models.GMM, hypers, observed, sched, collect_stats=True
    )
    np.testing.assert_array_equal(r_cpu.array("mu"), r_gpu.array("mu"))
    np.testing.assert_array_equal(r_cpu.array("z"), r_gpu.array("z"))
    _assert_stats_equal(r_cpu, r_gpu)
