"""GPU backend: numerics identical to CPU, device time charged per block."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backend.cpu import compile_cpu_module
from repro.core.backend.gpu import compile_gpu_module
from repro.core.blk.optimize import OptimizeConfig
from repro.core.density.conditionals import blocked_factors, conditional
from repro.core.kernel.conjugacy import detect_conjugacy
from repro.core.lowmm.ir import lower_decl
from repro.core.lowmm.size_inference import allocate
from repro.core.lowpp.ad import gen_grad
from repro.core.lowpp.gen_gibbs import gen_gibbs_conjugate
from repro.core.lowpp.gen_ll import gen_model_ll
from repro.gpusim import CostModel, Device
from repro.runtime.rng import Rng

from tests.lowpp.conftest import make_setup
from tests.lowpp.test_gen_gibbs import gmm_gibbs_env


def hlr_env(n=2000, d=8, seed=2):
    rng = np.random.default_rng(seed)
    return {
        "N": n,
        "D": d,
        "lam": 1.0,
        "x": rng.normal(size=(n, d)),
        "sigma2": 1.0,
        "b": 0.1,
        "theta": rng.normal(size=d),
        "y": rng.integers(0, 2, size=n),
    }


def gpu_compile(decl, env, workspaces=(), writes=(), cfg=None, ragged=frozenset()):
    low = lower_decl(decl, workspaces=tuple(w.name for w in workspaces), writes=writes)
    return compile_gpu_module([low], env, ragged_names=ragged, cfg=cfg)


def test_gpu_model_ll_matches_cpu():
    fd, info = make_setup("gmm")
    decl = gen_model_ll(fd)
    env = gmm_gibbs_env()
    cpu = compile_cpu_module([lower_decl(decl)])
    gpu = gpu_compile(decl, env)
    dev = Device()
    (a,) = cpu.fn("model_ll")(env, {}, Rng(0))
    (b,) = gpu.fn("model_ll")(env, {}, Rng(0), dev)
    assert float(a) == pytest.approx(float(b), rel=1e-12)
    assert dev.elapsed > 0


def test_gpu_charges_kernel_launches():
    fd, info = make_setup("gmm")
    decl = gen_model_ll(fd)
    env = gmm_gibbs_env()
    gpu = gpu_compile(decl, env)
    dev = Device()
    gpu.fn("model_ll")(env, {}, Rng(0), dev)
    assert dev.stats.kernels_launched + dev.stats.reduce_kernels >= 2


def test_gpu_gibbs_matches_cpu_statistics():
    fd, info = make_setup("gmm")
    match = detect_conjugacy(conditional(fd, "mu", info))
    from repro.core.lowpp.gen_gibbs import gen_gibbs_conjugate

    code = gen_gibbs_conjugate(match, fd.lets)
    env = gmm_gibbs_env()
    low = lower_decl(
        code.decl,
        workspaces=tuple(w.name for w in code.workspaces),
        writes=("mu",),
    )
    gpu = compile_gpu_module([low], env)
    ws = allocate(code.workspaces, env)
    dev = Device()
    gpu.fn(code.decl.name)(dict(env, mu=env["mu"].copy()), ws, Rng(0), dev)
    counts = np.bincount(env["z"], minlength=2).astype(float)
    np.testing.assert_allclose(ws["ws_mu_cnt"], counts)


def test_sum_block_conversion_reduces_atomic_time():
    # The HLR gradient at Adult-income-like scale: with conversion ON the
    # shared-variance adjoint becomes a reduction; with conversion OFF it
    # pays the atomic-contention penalty (the paper's Section 5.4/7.2
    # observation).
    fd, info = make_setup("hlr")
    env = hlr_env(n=50_000, d=14)
    blk = blocked_factors(fd, ("sigma2", "b", "theta"))
    decl = gen_grad(blk, fd.lets)

    on = gpu_compile(decl, env, cfg=OptimizeConfig())
    off = gpu_compile(decl, env, cfg=OptimizeConfig(sum_block_conversion=False))

    dev_on, dev_off = Device(), Device()
    on.fn(decl.name)(dict(env), {}, Rng(0), dev_on)
    off.fn(decl.name)(dict(env), {}, Rng(0), dev_off)

    assert dev_off.stats.atomic_time > 10 * dev_on.stats.atomic_time
    assert dev_off.elapsed > dev_on.elapsed
    # Gradients themselves are identical either way.
    g_on = on.fn(decl.name)(dict(env), {}, Rng(0), dev_on)
    g_off = off.fn(decl.name)(dict(env), {}, Rng(0), dev_off)
    for a, b in zip(g_on, g_off):
        np.testing.assert_allclose(a, b, rtol=1e-10)


def test_gpu_time_scales_with_data():
    fd, info = make_setup("hlr")
    blk = blocked_factors(fd, ("sigma2", "b", "theta"))
    decl = gen_grad(blk, fd.lets)
    times = {}
    for n in (1000, 100_000):
        env = hlr_env(n=n)
        gpu = gpu_compile(decl, env)
        dev = Device()
        gpu.fn(decl.name)(dict(env), {}, Rng(0), dev)
        times[n] = dev.elapsed
    assert times[100_000] > times[1000]
    # Sub-linear scaling: 100x the data costs far less than 100x the time.
    assert times[100_000] < 60 * times[1000]


def test_small_problem_dominated_by_launch_overhead():
    # The German-Credit observation: tiny problems don't amortise launches.
    fd, info = make_setup("hlr")
    env = hlr_env(n=50, d=4)
    blk = blocked_factors(fd, ("sigma2", "b", "theta"))
    decl = gen_grad(blk, fd.lets)
    gpu = gpu_compile(decl, env)
    dev = Device()
    gpu.fn(decl.name)(dict(env), {}, Rng(0), dev)
    launches = dev.stats.kernels_launched + dev.stats.reduce_kernels
    overhead = launches * dev.cost.launch_overhead
    assert overhead > 0.3 * dev.elapsed


def test_cost_model_basic_properties():
    cm = CostModel()
    assert cm.par_time(10_000, 10) > cm.par_time(100, 10)
    assert cm.atomic_penalty(10_000, 1) > cm.atomic_penalty(10_000, 10_000)
    assert cm.seq_time(100) > 100 * cm.op_time  # penalised
    assert cm.reduce_time(0, 5) == cm.launch_overhead


def test_device_reset_and_snapshot():
    dev = Device()
    dev.par(100, 5)
    snap = dev.snapshot()
    assert snap.kernels_launched == 1
    dev.reset()
    assert dev.elapsed == 0.0
    assert snap.kernels_launched == 1
