"""The Stan-style sampler: NUTS with dual-averaging warmup."""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.stan.compilemodel import simulate_cpp_compile
from repro.baselines.stan.model import StanModel, TapedPosterior
from repro.core.lowmm.size_inference import PackPlan
from repro.runtime.mcmc.adapt import DualAveraging
from repro.runtime.mcmc.hmc import FlatLogDensity
from repro.runtime.mcmc.nuts import nuts_step_flat
from repro.runtime.rng import Rng
from repro.runtime.transforms import IdentityTransform


class StanSampler:
    """Compile (simulated C++ build) then sample a Stan-style program."""

    def __init__(self, model: StanModel, data: dict, simulate_compile: bool = True):
        self.model = model
        self.data = data
        self.posterior = TapedPosterior(model, data)
        self.compile_seconds = (
            simulate_cpp_compile(model, data) if simulate_compile else 0.0
        )
        # The driver-facing density on the packed parameter vector; the
        # transforms already live on the tape, so the state is the
        # unconstrained point itself.
        self._layout = PackPlan.of(
            (p.name, tuple(p.shape), None) for p in model.params
        )
        self._target = FlatLogDensity(
            {p.name: IdentityTransform() for p in model.params},
            self._layout,
            ll_fn=lambda: self.posterior.logpdf(self._target.x_views),
            grad_fn=lambda: self.posterior.grad(self._target.x_views),
        )

    def sample(
        self,
        num_samples: int,
        warmup: int = 50,
        seed: int | Rng = 0,
        init_step_size: float = 0.1,
        callback=None,
    ):
        """Returns (samples dict of constrained draws, wall seconds)."""
        rng = seed if isinstance(seed, Rng) else Rng(seed)
        z = self._layout.pack(self.posterior.init_unconstrained(rng))
        adapt = DualAveraging()
        adapt.restart(init_step_size)
        eps = init_step_size
        start = time.perf_counter()
        for _ in range(warmup):
            z, _, accept_stat = nuts_step_flat(rng, self._target, z, eps)
            eps = adapt.update(accept_stat)
        eps = adapt.step_size_bar
        self.step_size = eps

        samples: dict[str, list] = {p.name: [] for p in self.model.params}
        for i in range(num_samples):
            z, _, _ = nuts_step_flat(rng, self._target, z, eps)
            zs = self._layout.unpack_views(z)
            for p in self.model.params:
                samples[p.name].append(
                    self.posterior.constrain_value(p.name, zs[p.name])
                )
            if callback is not None:
                callback(i, {k: v[-1] for k, v in samples.items()})
        wall = time.perf_counter() - start
        return {k: np.asarray(v) for k, v in samples.items()}, wall
