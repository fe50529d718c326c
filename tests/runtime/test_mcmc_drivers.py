"""MCMC library routines tested directly on analytic targets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lowmm.size_inference import PackPlan
from repro.runtime.mcmc.accept import mh_accept
from repro.runtime.mcmc.hmc import FlatLogDensity, hmc_step_flat
from repro.runtime.mcmc.mh import random_walk_step, user_proposal_step
from repro.runtime.mcmc.nuts import nuts_step_flat
from repro.runtime.mcmc.slice_sampler import elliptical_slice, slice_coordinate
from repro.runtime.rng import Rng
from repro.runtime.transforms import IdentityTransform, LogTransform


def flat_target(ll, grad, shape=(), transform=None):
    """A one-variable ``x`` density on the packed state; ``ll`` and
    ``grad`` take the constrained value."""
    target = FlatLogDensity(
        {"x": transform or IdentityTransform()},
        PackPlan.of([("x", shape, None)]),
        ll_fn=lambda: ll(target.x_views["x"]),
        grad_fn=lambda: {"x": grad(target.x_views["x"])},
    )
    return target


def gaussian_target(mean, var):
    """A diagonal Gaussian over one vector variable."""
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    return flat_target(
        lambda v: float(np.sum(-0.5 * (v - mean) ** 2 / var)),
        lambda v: -(v - mean) / var,
        shape=mean.shape,
    )


class ScriptedMomentum:
    """Stands in for the RNG: the momentum draw returns ``p`` and every
    uniform is 0.5, so one HMC transition is a plain leapfrog run."""

    def __init__(self, p):
        self.p = np.asarray(p, dtype=np.float64)

    def standard_normal(self, shape):
        return self.p.reshape(shape)

    def uniform(self):
        return 0.5


def leapfrog(target, z, p, step, n):
    """``n`` leapfrog steps from ``(z, p)`` through :func:`hmc_step_flat`,
    read back from its trajectory buffers; returns ``(z', p')``."""
    work = tuple(np.empty(z.shape[0]) for _ in range(3))
    hmc_step_flat(ScriptedMomentum(p), target, z, step, n, work=work)
    return work[0].copy(), work[1].copy()


# ----------------------------------------------------------------------
# Acceptance.
# ----------------------------------------------------------------------


def test_mh_accept_edge_cases(rng):
    assert mh_accept(rng, 0.0)
    assert mh_accept(rng, 10.0)
    assert not mh_accept(rng, float("nan"))
    accepts = sum(mh_accept(rng, np.log(0.3)) for _ in range(20_000))
    assert accepts / 20_000 == pytest.approx(0.3, abs=0.02)


# ----------------------------------------------------------------------
# Leapfrog / HMC.
# ----------------------------------------------------------------------


def test_leapfrog_is_reversible():
    target = gaussian_target(np.zeros(3), np.ones(3))
    rng = Rng(0)
    z = rng.normal(size=3)
    p = rng.normal(size=3)
    z1, p1 = leapfrog(target, z, p, 0.1, 10)
    # Negate momentum and integrate back.
    z2, p2 = leapfrog(target, z1, -p1, 0.1, 10)
    np.testing.assert_allclose(z2, z, atol=1e-10)
    np.testing.assert_allclose(p2, -p, atol=1e-10)


def test_leapfrog_conserves_energy_approximately():
    target = gaussian_target(np.zeros(2), np.ones(2))
    rng = Rng(1)
    z = rng.normal(size=2)
    p = rng.normal(size=2)
    h0 = -target.value(z) + 0.5 * float(p @ p)
    z1, p1 = leapfrog(target, z, p, 0.05, 50)
    h1 = -target.value(z1) + 0.5 * float(p1 @ p1)
    assert abs(h1 - h0) < 0.05


def test_hmc_samples_gaussian_moments():
    target = gaussian_target(np.array([2.0, -1.0]), np.array([1.0, 4.0]))
    rng = Rng(2)
    z = np.zeros(2)
    draws = []
    for _ in range(2000):
        z, _ = hmc_step_flat(rng, target, z, step_size=0.3, n_steps=8)
        draws.append(z.copy())
    draws = np.asarray(draws)[200:]
    np.testing.assert_allclose(draws.mean(axis=0), [2.0, -1.0], atol=0.2)
    np.testing.assert_allclose(draws.var(axis=0), [1.0, 4.0], rtol=0.25)


def test_hmc_with_log_transform_stays_positive():
    # Target: log-normal-ish via transform; underlying density on x > 0.
    def ll(v):
        v = float(v)
        return -0.5 * (np.log(v)) ** 2 - np.log(v) if v > 0 else -np.inf

    def grad(v):
        v = float(v)
        return (-np.log(v) - 1.0) / v

    target = flat_target(ll, grad, transform=LogTransform())
    rng = Rng(3)
    z = target.unconstrain_into({"x": 1.0}, np.empty(1))
    for _ in range(200):
        z, _ = hmc_step_flat(rng, target, z, 0.2, 5)
        assert target.constrain_point(z)["x"] > 0


# ----------------------------------------------------------------------
# NUTS.
# ----------------------------------------------------------------------


def test_nuts_samples_gaussian_moments():
    target = gaussian_target(np.array([1.0]), np.array([2.0]))
    rng = Rng(4)
    z = np.zeros(1)
    draws = []
    for _ in range(1500):
        z, leapfrogs, accept = nuts_step_flat(rng, target, z, step_size=0.5)
        assert leapfrogs >= 1
        assert 0.0 <= accept <= 1.0
        draws.append(float(z[0]))
    draws = np.asarray(draws)[200:]
    assert draws.mean() == pytest.approx(1.0, abs=0.15)
    assert draws.var() == pytest.approx(2.0, rel=0.25)


def test_nuts_tiny_step_gives_low_accept_stat():
    target = gaussian_target(np.zeros(1), np.ones(1))
    rng = Rng(5)
    _, _, accept_big = nuts_step_flat(rng, target, np.zeros(1), step_size=10.0)
    _, _, accept_small = nuts_step_flat(rng, target, np.zeros(1), step_size=0.1)
    assert accept_small > accept_big


# ----------------------------------------------------------------------
# Slice samplers.
# ----------------------------------------------------------------------


def test_slice_coordinate_gaussian_moments(np_rng):
    logp = lambda x: -0.5 * (x - 1.5) ** 2 / 0.25
    x = 0.0
    draws = []
    for _ in range(4000):
        x = slice_coordinate(np_rng, logp, x, width=1.0)
        draws.append(x)
    draws = np.asarray(draws)[400:]
    assert draws.mean() == pytest.approx(1.5, abs=0.05)
    assert draws.std() == pytest.approx(0.5, abs=0.05)


def test_slice_requires_positive_density_start(np_rng):
    with pytest.raises(ValueError):
        slice_coordinate(np_rng, lambda x: -np.inf, 0.0)


def test_elliptical_slice_conjugate_gaussian(np_rng):
    # Prior N(0, 1), likelihood N(y | x, s2): posterior is conjugate.
    y, s2 = 1.2, 0.5
    loglik = lambda x: float(-0.5 * (y - x) ** 2 / s2)
    x = 0.0
    draws = []
    for _ in range(6000):
        nu = np_rng.normal(0.0, 1.0)
        x = float(elliptical_slice(np_rng, loglik, x, 0.0, nu))
        draws.append(x)
    draws = np.asarray(draws)[500:]
    post_var = 1 / (1 + 1 / s2)
    post_mean = post_var * (y / s2)
    assert draws.mean() == pytest.approx(post_mean, abs=0.05)
    assert draws.var() == pytest.approx(post_var, rel=0.15)


# ----------------------------------------------------------------------
# MH proposals.
# ----------------------------------------------------------------------


def test_random_walk_gaussian_moments(np_rng):
    logp = lambda x: float(-0.5 * np.sum(x**2))
    x = np.zeros(1)
    draws = []
    for _ in range(8000):
        x, _ = random_walk_step(np_rng, logp, x, scale=1.0)
        draws.append(float(x[0]))
    draws = np.asarray(draws)[800:]
    assert draws.mean() == pytest.approx(0.0, abs=0.08)
    assert draws.var() == pytest.approx(1.0, rel=0.15)


def test_user_proposal_respects_q_ratio(np_rng):
    logp = lambda x: float(-0.5 * np.sum(np.asarray(x) ** 2))

    # A huge forward/backward proposal-density ratio kills acceptance
    # even for a density-neutral move...
    never = lambda x, rng: (x, 1e9)
    x = np.zeros(1)
    for _ in range(50):
        x, accepted = user_proposal_step(np_rng, logp, x, never)
        assert not accepted
    # ...and a hugely negative one forces acceptance even downhill.
    always = lambda x, rng: (x + 3.0, -1e9)
    x, accepted = user_proposal_step(np_rng, logp, np.zeros(1), always)
    assert accepted and x[0] == 3.0
