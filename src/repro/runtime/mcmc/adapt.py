"""Warmup adaptation for HMC/NUTS: step size + diagonal mass matrix.

Two estimators compose into a :class:`WarmupAdapter`:

* **Nesterov dual averaging** (Hoffman & Gelman 2014, section 3.2) drives
  the leapfrog step size toward a target acceptance statistic (default
  0.8) from the per-draw ``accept_stat`` both kernels emit.  The
  averaged iterate ``step_size_bar`` is frozen in at the end of warmup.
* **Windowed diagonal mass-matrix estimation** (Stan / nutpie style):
  an initial fast buffer tunes only the step size, then doubling "slow"
  windows accumulate a streaming Welford variance of the unconstrained
  state; each window close snaps the metric to the regularized variance
  estimate and restarts dual averaging around the current step size.

The adapter operates on the packed flat state vector laid out by the
block's ``PackPlan``, so the metric is one contiguous array applied
inside ``hmc_step_flat`` / ``nuts_step_flat`` with near-zero overhead.

Everything here is deterministic given the RNG stream and fully
picklable via ``state_dict()`` / ``load_state()`` so mid-warmup
checkpoints resume bitwise-identically.
"""

from __future__ import annotations

import math

import numpy as np

_LOG_HALF = math.log(0.5)

DEFAULT_TARGET_ACCEPT = 0.8
DEFAULT_WARMUP = 500

# Stan's window geometry: fast init buffer (step size only), doubling
# slow windows from BASE_WINDOW, fast terminal buffer.
INIT_BUFFER = 75
TERM_BUFFER = 50
BASE_WINDOW = 25

# Regularization of the variance estimate toward the identity, matching
# Stan: (n / (n + 5)) * var + 1e-3 * (5 / (n + 5)).
_REG_PSEUDO_OBS = 5.0
_REG_SCALE = 1e-3


class DualAveraging:
    """Nesterov dual averaging on ``log(step_size)``.

    The closed-form iterates (tested in ``tests/runtime/test_adapt.py``):

    .. code-block:: text

        h_bar_t   = (1 - 1/(t + t0)) h_bar_{t-1}
                    + (target - accept_t) / (t + t0)
        log_eps_t = mu - sqrt(t)/gamma * h_bar_t
        eta_t     = t ** -kappa
        log_bar_t = eta_t * log_eps_t + (1 - eta_t) * log_bar_{t-1}
    """

    def __init__(
        self,
        target_accept: float = DEFAULT_TARGET_ACCEPT,
        gamma: float = 0.05,
        t0: float = 10.0,
        kappa: float = 0.75,
    ):
        self.target_accept = float(target_accept)
        self.gamma = float(gamma)
        self.t0 = float(t0)
        self.kappa = float(kappa)
        self.mu = 0.0
        self.log_step = 0.0
        self.log_step_bar = 0.0
        self.h_bar = 0.0
        self.count = 0

    def restart(self, step_size: float) -> None:
        """Re-anchor the optimum search around ``step_size``."""
        self.mu = math.log(10.0 * step_size)
        self.log_step = math.log(step_size)
        self.log_step_bar = 0.0
        self.h_bar = 0.0
        self.count = 0

    def update(self, accept_stat: float) -> float:
        """Fold in one acceptance statistic; return the new step size."""
        a = float(accept_stat)
        if not math.isfinite(a):
            a = 0.0
        a = min(1.0, max(0.0, a))
        self.count += 1
        frac = 1.0 / (self.count + self.t0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (
            self.target_accept - a
        )
        self.log_step = self.mu - math.sqrt(self.count) / self.gamma * self.h_bar
        eta = self.count ** -self.kappa
        self.log_step_bar = (
            eta * self.log_step + (1.0 - eta) * self.log_step_bar
        )
        return math.exp(self.log_step)

    @property
    def step_size(self) -> float:
        return math.exp(self.log_step)

    @property
    def step_size_bar(self) -> float:
        return math.exp(self.log_step_bar)

    def state_dict(self) -> dict:
        return {
            "mu": self.mu,
            "log_step": self.log_step,
            "log_step_bar": self.log_step_bar,
            "h_bar": self.h_bar,
            "count": self.count,
        }

    def load_state(self, state: dict) -> None:
        self.mu = float(state["mu"])
        self.log_step = float(state["log_step"])
        self.log_step_bar = float(state["log_step_bar"])
        self.h_bar = float(state["h_bar"])
        self.count = int(state["count"])


class WelfordVariance:
    """Streaming mean/variance over a flat state vector."""

    def __init__(self, dim: int):
        self.count = 0
        self.mean = np.zeros(dim, dtype=np.float64)
        self.m2 = np.zeros(dim, dtype=np.float64)

    def observe(self, x: np.ndarray) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    def variance(self) -> np.ndarray:
        if self.count < 2:
            return np.ones_like(self.m2)
        return self.m2 / (self.count - 1)

    def regularized_variance(self) -> np.ndarray:
        """Sample variance shrunk toward a small multiple of identity."""
        n = float(self.count)
        if self.count < 2:
            return np.ones_like(self.m2)
        w = n / (n + _REG_PSEUDO_OBS)
        return w * self.variance() + _REG_SCALE * (1.0 - w) * _REG_PSEUDO_OBS

    def state_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean.copy(),
            "m2": self.m2.copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "WelfordVariance":
        self = cls(len(state["mean"]))
        self.count = int(state["count"])
        self.mean = np.array(state["mean"], dtype=np.float64, copy=True)
        self.m2 = np.array(state["m2"], dtype=np.float64, copy=True)
        return self


class DiagMetric:
    """Diagonal inverse mass matrix ``M^-1`` plus the momentum scale.

    ``inv_mass`` is the regularized variance estimate (the diagonal of
    ``M^-1``); momenta are drawn ``p = std_normal * momentum_scale``
    with ``momentum_scale = 1/sqrt(inv_mass)`` so ``p ~ N(0, M)``.
    """

    __slots__ = ("inv_mass", "momentum_scale")

    def __init__(self, inv_mass: np.ndarray):
        self.inv_mass = np.asarray(inv_mass, dtype=np.float64)
        self.momentum_scale = 1.0 / np.sqrt(self.inv_mass)


def mass_matrix_windows(
    warmup: int,
    init_buffer: int = INIT_BUFFER,
    term_buffer: int = TERM_BUFFER,
    base_window: int = BASE_WINDOW,
) -> list:
    """Return ``(start, end)`` sweep ranges of the slow windows.

    At each window ``end`` the metric snaps to that window's variance
    estimate.  When ``warmup`` is shorter than the standard
    75 + 25 + 50 geometry the buffers shrink proportionally (15% init,
    10% terminal); a warmup too short for even one window adapts the
    step size only.
    """
    warmup = int(warmup)
    if warmup <= 0:
        return []
    if init_buffer + base_window + term_buffer > warmup:
        init_buffer = int(0.15 * warmup)
        term_buffer = int(0.10 * warmup)
        base_window = warmup - init_buffer - term_buffer
        if base_window < 2:
            return []
    windows = []
    start = init_buffer
    size = base_window
    last = warmup - term_buffer
    while start < last:
        end = start + size
        if end + 2 * size > last:
            # The next (doubled) window would not fit: extend this one
            # to cover the remaining slow-adaptation span.
            end = last
        windows.append((start, end))
        start = end
        size *= 2
    return windows


def find_reasonable_step_size(
    log_accept, init: float = 1.0, max_doublings: int = 50
) -> float:
    """Bracket a step size whose one-leapfrog accept ratio is ~0.5.

    ``log_accept(eps)`` evaluates the log acceptance ratio of a single
    leapfrog step of size ``eps`` from the current point with a fixed
    momentum (drawn once by the caller, so this consumes no RNG).  The
    step doubles or halves until the ratio crosses ``log(0.5)``
    (Hoffman & Gelman 2014, algorithm 4).
    """

    def finite(v: float) -> float:
        v = float(v)
        return v if math.isfinite(v) else -math.inf

    eps = float(init)
    la = finite(log_accept(eps))
    direction = 1.0 if la > _LOG_HALF else -1.0
    for _ in range(max_doublings):
        if direction * (la - _LOG_HALF) <= 0.0:
            break
        eps *= 2.0 ** direction
        la = finite(log_accept(eps))
    return eps


class WarmupAdapter:
    """Per-chain warmup state: step size + windowed diagonal metric.

    Lifecycle (driven by ``GradBlockDriver`` during warmup sweeps):

    1. ``initialize(eps)`` with the reasonable-step-size result.
    2. ``observe(accept_stat, z_flat)`` once per warmup sweep, after
       the draw; updates dual averaging, feeds the Welford window, and
       snaps the metric on window close.
    3. ``finalize()`` at the end of warmup freezes
       ``step_size = step_size_bar`` and stops adaptation.
    """

    def __init__(
        self,
        warmup: int,
        target_accept: float = DEFAULT_TARGET_ACCEPT,
        adapt_metric: bool = True,
    ):
        self.warmup = int(warmup)
        self.target_accept = float(target_accept)
        self.windows = mass_matrix_windows(self.warmup) if adapt_metric else []
        self.da = DualAveraging(self.target_accept)
        self.welford = None
        self.metric = None
        self.step_size = None
        self.sweep = 0
        self.window_index = 0
        self.initialized = False
        self.finalized = False

    # -- lifecycle ---------------------------------------------------

    def initialize(self, step_size: float) -> None:
        self.step_size = float(step_size)
        self.da.restart(self.step_size)
        self.initialized = True

    def observe(self, accept_stat: float, z_flat) -> None:
        if self.finalized:
            return
        self.step_size = self.da.update(accept_stat)
        s = self.sweep
        if self.window_index < len(self.windows) and z_flat is not None:
            start, end = self.windows[self.window_index]
            if s >= start:
                if self.welford is None:
                    self.welford = WelfordVariance(len(z_flat))
                self.welford.observe(np.asarray(z_flat, dtype=np.float64))
                if s + 1 == end:
                    self.metric = DiagMetric(
                        self.welford.regularized_variance()
                    )
                    self.welford = None
                    self.window_index += 1
                    self.da.restart(self.step_size)
        self.sweep = s + 1

    def finalize(self) -> None:
        if self.finalized:
            return
        if self.da.count > 0:
            self.step_size = self.da.step_size_bar
        self.finalized = True

    @property
    def step_size_bar(self) -> float:
        return self.da.step_size_bar if self.da.count > 0 else (
            self.step_size if self.step_size is not None else 0.0
        )

    @property
    def inv_mass(self):
        return None if self.metric is None else self.metric.inv_mass

    # -- checkpointing -----------------------------------------------

    def state_dict(self) -> dict:
        return {
            "warmup": self.warmup,
            "target_accept": self.target_accept,
            "da": self.da.state_dict(),
            "welford": (
                None if self.welford is None else self.welford.state_dict()
            ),
            "inv_mass": (
                None if self.metric is None else self.metric.inv_mass.copy()
            ),
            "step_size": self.step_size,
            "sweep": self.sweep,
            "window_index": self.window_index,
            "initialized": self.initialized,
            "finalized": self.finalized,
            "n_windows": len(self.windows),
        }

    def load_state(self, state: dict) -> None:
        self.da.load_state(state["da"])
        self.welford = (
            None
            if state["welford"] is None
            else WelfordVariance.from_state(state["welford"])
        )
        self.metric = (
            None
            if state["inv_mass"] is None
            else DiagMetric(state["inv_mass"])
        )
        self.step_size = (
            None if state["step_size"] is None else float(state["step_size"])
        )
        self.sweep = int(state["sweep"])
        self.window_index = int(state["window_index"])
        self.initialized = bool(state["initialized"])
        self.finalized = bool(state["finalized"])
