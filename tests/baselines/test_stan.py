"""The Stan-like engine: taped posteriors, NUTS warmup, compile model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.stan.compilemodel import simulate_cpp_compile
from repro.baselines.stan.engine import StanSampler
from repro.baselines.stan.marginalize import (
    gmm_stan_data,
    hgmm_stan_data,
    hlr_model,
    marginalized_gmm_model,
    marginalized_hgmm_model,
)
from repro.baselines.stan.model import TapedPosterior
from repro.runtime.mcmc.adapt import DualAveraging


def hlr_data(seed=0, n=120, d=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    true_theta = np.array([2.0, -2.0, 0.5])
    p = 1 / (1 + np.exp(-(x @ true_theta)))
    y = (rng.uniform(size=n) < p).astype(np.float64)
    return {"x": x, "y": y, "lam": 1.0}, true_theta


def test_taped_posterior_grad_matches_numeric():
    data, _ = hlr_data(n=30)
    model = hlr_model(30, 3)
    post = TapedPosterior(model, data)
    rng = np.random.default_rng(1)
    z = {"sigma2": np.array(0.3), "b": np.array(0.2), "theta": rng.normal(size=3)}
    grads = post.grad(z)
    eps = 1e-6
    for name in z:
        base = np.asarray(z[name], dtype=np.float64)
        it = np.nditer(base, flags=["multi_index"]) if base.ndim else None
        idxs = [()] if base.ndim == 0 else list(np.ndindex(base.shape))
        for ix in idxs:
            zp = {k: np.array(v, copy=True) for k, v in z.items()}
            zm = {k: np.array(v, copy=True) for k, v in z.items()}
            zp[name][ix] += eps
            zm[name][ix] -= eps
            num = (post.logpdf(zp) - post.logpdf(zm)) / (2 * eps)
            got = grads[name][ix] if base.ndim else float(grads[name])
            assert got == pytest.approx(num, rel=1e-4, abs=1e-6), (name, ix)


def test_hlr_stan_recovers_signal():
    data, true_theta = hlr_data(n=200)
    model = hlr_model(200, 3)
    sampler = StanSampler(model, data, simulate_compile=False)
    samples, wall = sampler.sample(num_samples=150, warmup=80, seed=0)
    theta_mean = samples["theta"].mean(axis=0)
    assert theta_mean[0] > 0.8
    assert theta_mean[1] < -0.8
    assert np.all(samples["sigma2"] > 0)


def test_marginalized_gmm_grad_and_recovery():
    rng = np.random.default_rng(2)
    true_mu = np.array([[-3.0, 0.0], [3.0, 0.0]])
    z = rng.integers(0, 2, size=80)
    x = true_mu[z] + rng.normal(0, 0.4, size=(80, 2))
    data = gmm_stan_data(
        x, np.full(2, 0.5), np.eye(2) * 0.16, np.zeros(2), np.eye(2) * 16.0
    )
    model = marginalized_gmm_model(2, 2)
    post = TapedPosterior(model, data)
    # Gradient spot-check.
    z0 = {"mu": rng.normal(size=(2, 2))}
    g = post.grad(z0)["mu"]
    eps = 1e-6
    for ix in np.ndindex(2, 2):
        zp = {"mu": z0["mu"].copy()}
        zm = {"mu": z0["mu"].copy()}
        zp["mu"][ix] += eps
        zm["mu"][ix] -= eps
        num = (post.logpdf(zp) - post.logpdf(zm)) / (2 * eps)
        assert g[ix] == pytest.approx(num, rel=1e-4, abs=1e-6)
    # Recovery.
    sampler = StanSampler(model, data, simulate_compile=False)
    samples, _ = sampler.sample(num_samples=80, warmup=60, seed=3)
    mean_mu = samples["mu"][40:].mean(axis=0)
    for t in true_mu:
        assert np.linalg.norm(mean_mu - t, axis=1).min() < 0.5


def test_marginalized_hgmm_logp_finite_and_differentiable():
    rng = np.random.default_rng(4)
    y = rng.normal(size=(40, 2))
    data = hgmm_stan_data(y, np.ones(3), np.zeros(2), np.eye(2) * 9.0)
    model = marginalized_hgmm_model(3, 2)
    post = TapedPosterior(model, data)
    z = {
        "mu": rng.normal(size=(3, 2)),
        "pi_free": rng.normal(size=2),
        "log_s": rng.normal(size=(3, 2)) * 0.1,
    }
    lp = post.logpdf(z)
    assert np.isfinite(lp)
    g = post.grad(z)
    eps = 1e-6
    zp = {k: np.array(v, copy=True) for k, v in z.items()}
    zm = {k: np.array(v, copy=True) for k, v in z.items()}
    zp["pi_free"][0] += eps
    zm["pi_free"][0] -= eps
    num = (post.logpdf(zp) - post.logpdf(zm)) / (2 * eps)
    assert g["pi_free"][0] == pytest.approx(num, rel=1e-4, abs=1e-6)


def test_dual_averaging_shrinks_step_on_rejections():
    # The warmup schedule StanSampler runs: restart at the initial step,
    # then keep the averaged iterate.
    da = DualAveraging()
    da.restart(0.5)
    for _ in range(30):
        da.update(0.0)  # always rejecting
    assert da.step_size_bar < 0.5
    da2 = DualAveraging()
    da2.restart(0.01)
    for _ in range(30):
        da2.update(1.0)  # always accepting
    assert da2.step_size_bar > 0.01


def test_compile_simulation_is_slower_than_augurv2():
    from repro.core.compiler import compile_model
    from repro.eval import models as zoo

    data, _ = hlr_data(n=40)
    model = hlr_model(40, 3)
    stan_compile = simulate_cpp_compile(model, data)

    import time

    t0 = time.perf_counter()
    compile_model(
        zoo.HLR,
        {"N": 40, "D": 3, "lam": 1.0, "x": data["x"]},
        {"y": data["y"].astype(np.int64)},
    )
    augur_compile = time.perf_counter() - t0
    assert stan_compile > 2 * augur_compile
