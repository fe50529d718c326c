"""Warmup adaptation primitives: dual averaging, windows, Welford."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.runtime.mcmc.adapt import (
    BASE_WINDOW,
    INIT_BUFFER,
    TERM_BUFFER,
    DiagMetric,
    DualAveraging,
    WarmupAdapter,
    WelfordVariance,
    find_reasonable_step_size,
    mass_matrix_windows,
)


# ----------------------------------------------------------------------
# Dual averaging.
# ----------------------------------------------------------------------


def test_dual_averaging_matches_closed_form_iterates():
    target, gamma, t0, kappa = 0.8, 0.05, 10.0, 0.75
    eps0 = 0.3
    accepts = [0.2, 0.95, 0.6, 1.0, 0.0, 0.85, 0.7]

    da = DualAveraging(target, gamma=gamma, t0=t0, kappa=kappa)
    da.restart(eps0)

    # Hand-rolled Hoffman & Gelman (2014) section 3.2 recursion.
    mu = math.log(10.0 * eps0)
    h_bar, log_bar = 0.0, 0.0
    for t, a in enumerate(accepts, start=1):
        frac = 1.0 / (t + t0)
        h_bar = (1.0 - frac) * h_bar + frac * (target - a)
        log_eps = mu - math.sqrt(t) / gamma * h_bar
        eta = t ** -kappa
        log_bar = eta * log_eps + (1.0 - eta) * log_bar
        stepped = da.update(a)
        assert stepped == pytest.approx(math.exp(log_eps), rel=1e-14)
        assert da.step_size == pytest.approx(math.exp(log_eps), rel=1e-14)
        assert da.step_size_bar == pytest.approx(math.exp(log_bar), rel=1e-14)


def test_dual_averaging_moves_step_toward_target():
    da = DualAveraging(0.8)
    da.restart(1.0)
    for _ in range(100):
        da.update(0.1)  # acceptance far below target -> shrink
    assert da.step_size < 1.0
    da2 = DualAveraging(0.8)
    da2.restart(1e-3)
    for _ in range(100):
        da2.update(1.0)  # perfect acceptance -> grow
    assert da2.step_size > 1e-3


def test_dual_averaging_clamps_bad_accept_stats():
    clean = DualAveraging(0.8)
    clean.restart(0.5)
    dirty = DualAveraging(0.8)
    dirty.restart(0.5)
    clean.update(0.0)
    dirty.update(float("nan"))  # NaN counts as zero acceptance
    assert dirty.step_size == clean.step_size
    clean.update(1.0)
    dirty.update(7.5)  # clamped into [0, 1]
    assert dirty.step_size == clean.step_size


def test_dual_averaging_state_round_trip():
    da = DualAveraging(0.9)
    da.restart(0.2)
    for a in (0.3, 0.8, 0.95):
        da.update(a)
    clone = DualAveraging(0.9)
    clone.load_state(da.state_dict())
    for a in (0.1, 0.99):
        assert clone.update(a) == da.update(a)


# ----------------------------------------------------------------------
# Window geometry.
# ----------------------------------------------------------------------


def test_windows_standard_stan_geometry():
    windows = mass_matrix_windows(1000)
    assert windows == [(75, 100), (100, 150), (150, 250), (250, 450),
                       (450, 950)]
    # Contiguous, doubling until the terminal extension, inside the
    # init/term buffers.
    assert windows[0][0] == INIT_BUFFER
    assert windows[-1][1] == 1000 - TERM_BUFFER
    for (s0, e0), (s1, _) in zip(windows, windows[1:]):
        assert e0 == s1
    assert windows[0][1] - windows[0][0] == BASE_WINDOW


def test_windows_shrink_proportionally_for_short_warmup():
    windows = mass_matrix_windows(140)
    # 15% init buffer, 10% terminal buffer, one slow window between.
    assert windows == [(21, 126)]


def test_windows_degenerate_warmups():
    assert mass_matrix_windows(0) == []
    assert mass_matrix_windows(-5) == []
    assert mass_matrix_windows(1) == []  # no room for a slow window


def test_windows_cover_no_sweep_twice():
    for warmup in (60, 151, 500, 1000, 2003):
        seen: set[int] = set()
        for start, end in mass_matrix_windows(warmup):
            span = set(range(start, end))
            assert not (seen & span)
            seen |= span
            assert 0 <= start < end <= warmup


# ----------------------------------------------------------------------
# Welford variance.
# ----------------------------------------------------------------------


def test_welford_matches_numpy_two_pass():
    rng = np.random.default_rng(3)
    xs = rng.normal(2.0, 3.0, size=(200, 7))
    w = WelfordVariance(7)
    for x in xs:
        w.observe(x)
    np.testing.assert_allclose(w.mean, xs.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(
        w.variance(), xs.var(axis=0, ddof=1), rtol=1e-10
    )


def test_welford_regularization_shrinks_toward_identity_scale():
    rng = np.random.default_rng(4)
    xs = rng.normal(0.0, 10.0, size=(50, 3))
    w = WelfordVariance(3)
    for x in xs:
        w.observe(x)
    n = 50.0
    frac = n / (n + 5.0)
    expected = frac * xs.var(axis=0, ddof=1) + 1e-3 * (1.0 - frac) * 5.0
    np.testing.assert_allclose(w.regularized_variance(), expected, rtol=1e-10)
    # Degenerate: fewer than two observations falls back to identity.
    assert np.all(WelfordVariance(3).regularized_variance() == 1.0)


def test_welford_state_round_trip():
    w = WelfordVariance(2)
    for x in np.arange(10.0).reshape(5, 2):
        w.observe(x)
    clone = WelfordVariance.from_state(w.state_dict())
    extra = np.array([9.0, -1.0])
    w.observe(extra)
    clone.observe(extra)
    np.testing.assert_array_equal(clone.mean, w.mean)
    np.testing.assert_array_equal(clone.m2, w.m2)


# ----------------------------------------------------------------------
# Reasonable initial step size.
# ----------------------------------------------------------------------


def test_find_reasonable_step_size_halves_when_too_large():
    # log accept ratio -(2 eps)^2: crosses log(1/2) near eps ~ 0.416.
    eps = find_reasonable_step_size(lambda e: -((2.0 * e) ** 2), init=1.0)
    assert eps == 0.25
    assert -((2.0 * eps) ** 2) > math.log(0.5)


def test_find_reasonable_step_size_doubles_when_too_small():
    eps = find_reasonable_step_size(lambda e: -((2.0 * e) ** 2), init=0.01)
    # Doubled past the crossing, then stops one step beyond it.
    assert eps > 0.3
    assert -((2.0 * eps) ** 2) <= math.log(0.5)


def test_find_reasonable_step_size_survives_nan_log_accept():
    eps = find_reasonable_step_size(
        lambda e: float("nan") if e > 0.1 else 0.0, init=1.0
    )
    assert eps <= 0.1


# ----------------------------------------------------------------------
# WarmupAdapter lifecycle.
# ----------------------------------------------------------------------


def _drive(adapter: WarmupAdapter, rng: np.ndarray, sweeps: int) -> None:
    for s in range(sweeps):
        adapter.observe(0.7 + 0.2 * math.sin(s), rng[s % len(rng)])


def test_adapter_closes_windows_and_versions_metric():
    warmup = 200
    adapter = WarmupAdapter(warmup, 0.8)
    adapter.initialize(0.5)
    rng = np.random.default_rng(5).normal(size=(16, 4))
    windows = adapter.windows
    assert windows  # the geometry must produce at least one window
    metrics = []
    for s in range(warmup):
        adapter.observe(0.7 + 0.2 * math.sin(s), rng[s % len(rng)])
        if adapter.metric is not None and (
            not metrics or adapter.metric is not metrics[-1]
        ):
            metrics.append(adapter.metric)
    assert adapter.window_index == len(windows)
    # One new metric per closed window.
    assert len(metrics) == len(windows)
    assert adapter.metric is not None
    assert adapter.metric.inv_mass.shape == (4,)
    np.testing.assert_allclose(
        adapter.metric.momentum_scale,
        1.0 / np.sqrt(adapter.metric.inv_mass),
        rtol=1e-14,
    )


def test_adapter_finalize_freezes_averaged_step():
    adapter = WarmupAdapter(100, 0.8)
    adapter.initialize(0.5)
    rng = np.random.default_rng(6).normal(size=(8, 3))
    _drive(adapter, rng, 100)
    bar = adapter.step_size_bar
    adapter.finalize()
    assert adapter.finalized
    assert adapter.step_size == bar
    frozen = adapter.step_size
    adapter.observe(0.0, rng[0])  # no-op after finalize
    assert adapter.step_size == frozen
    adapter.finalize()  # idempotent
    assert adapter.step_size == frozen


def test_adapter_state_round_trip_resumes_bitwise():
    warmup = 160
    rng = np.random.default_rng(7).normal(size=(warmup, 5))
    full = WarmupAdapter(warmup, 0.8)
    full.initialize(0.3)
    for s in range(warmup):
        full.observe(0.5 + 0.4 * math.cos(s), rng[s])
    full.finalize()

    half = WarmupAdapter(warmup, 0.8)
    half.initialize(0.3)
    stop = warmup // 2
    for s in range(stop):
        half.observe(0.5 + 0.4 * math.cos(s), rng[s])
    resumed = WarmupAdapter(warmup, 0.8)
    resumed.load_state(half.state_dict())
    assert resumed.initialized and not resumed.finalized
    for s in range(stop, warmup):
        resumed.observe(0.5 + 0.4 * math.cos(s), rng[s])
    resumed.finalize()

    assert resumed.step_size == full.step_size
    assert resumed.da.state_dict() == full.da.state_dict()
    np.testing.assert_array_equal(resumed.inv_mass, full.inv_mass)


def test_adapter_without_metric_adaptation():
    adapter = WarmupAdapter(100, 0.8, adapt_metric=False)
    adapter.initialize(0.5)
    _drive(adapter, np.zeros((1, 2)), 100)
    assert adapter.windows == []
    assert adapter.metric is None
    assert adapter.inv_mass is None


def test_diag_metric_momentum_scale():
    m = DiagMetric(np.array([4.0, 0.25]))
    np.testing.assert_array_equal(m.momentum_scale, [0.5, 2.0])
