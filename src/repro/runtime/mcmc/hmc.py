"""Hamiltonian Monte Carlo driver over a block of transformed variables.

The generated code supplies the block log density and its gradient, both
on the *constrained* space -- one fused call on the CPU target, two
separate kernels on the GPU target -- and the driver runs leapfrog on
the unconstrained space, chain-ruling through the element-wise
transforms and adding their log-Jacobians (the standard change of
variables).  This is the library half of the paper's HMC
update; the Leapfrog integrator here corresponds to the ~30 lines of C
the paper cites for adding HMC (Section 7.1).

The state is one packed contiguous 1-D vector laid out by a
compile-time :class:`~repro.core.lowmm.size_inference.PackPlan` (a
ragged variable is one slot over its flat buffer, the paper's Section
6.2 representation).  :class:`FlatLogDensity` evaluates the block on
that vector: leapfrog reduces to whole-vector in-place axpy ops
(:func:`hmc_step_flat`), and the constrained point and log-Jacobian are
computed once per distinct point and shared between value and
gradient.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.mcmc.accept import mh_accept
from repro.runtime.transforms import Transform


#: |Delta H| above which a trajectory is flagged divergent (matches the
#: NUTS ``_DELTA_MAX`` convention).
DIVERGENCE_THRESHOLD = 1000.0


def _fill_info(info: dict, log_alpha, energy1, n_leapfrog: int, accepted) -> None:
    la = float(log_alpha)
    info["log_alpha"] = la
    info["nan"] = bool(np.isnan(la))
    info["energy"] = float(energy1)
    info["divergent"] = bool(
        not np.isfinite(la) or abs(la) > DIVERGENCE_THRESHOLD
    )
    info["n_leapfrog"] = n_leapfrog
    info["accepted"] = accepted
    # The same per-draw acceptance statistic NUTS emits -- min(1, alpha)
    # -- so warmup adaptation consumes one uniform field from either
    # kernel (NaN trajectories count as 0).
    if np.isnan(la):
        info["accept_stat"] = 0.0
    elif la >= 0.0:
        info["accept_stat"] = 1.0
    else:
        info["accept_stat"] = float(np.exp(la))


class FlatLogDensity:
    """log p / grad log p on a packed 1-D unconstrained state vector.

    The compiled block functions read the *constrained* state; this
    class owns one flat constrained buffer whose per-variable views
    (:attr:`x_views`: reshaped arrays, or zero-copy
    :class:`~repro.runtime.vectors.RaggedArray` views for ragged slots)
    the driver splices into the evaluation scope once -- unpacking at
    the compiled-function boundary is then a slice-wise transform into
    those views, with no dict or array construction per call.

    The density comes in one of two forms.  The *fused* form
    (``ll_grad_fn``, what the CPU target compiles) returns the log
    density and every adjoint from one call, so a ``value`` request
    caches the gradient at the same point and vice versa.  The *pair*
    form (``ll_fn`` and ``grad_fn``) evaluates each on demand; the GPU
    target, whose log-density and gradient are separate kernels, and the
    Stan baseline use it.

    Per distinct unconstrained point the transforms run once
    (``_ensure_point``), shared by value and gradient.  ``invalidate``
    must be called whenever the rest of the environment may have changed
    (the start of every driver step): the cached density values are
    conditional on it.
    """

    def __init__(
        self,
        transforms: dict[str, Transform],
        layout,
        *,
        ll_fn=None,
        grad_fn=None,
        ll_grad_fn=None,
    ):
        if ll_grad_fn is None and (ll_fn is None or grad_fn is None):
            raise TypeError("pass ll_grad_fn, or both ll_fn and grad_fn")
        self.layout = layout
        self._ll = ll_fn            # () -> float, reads the live views
        self._grad = grad_fn        # () -> {name: d ll / d constrained}
        self._ll_grad = ll_grad_fn  # () -> (float, {name: adjoint})
        n = layout.total
        self._x = np.zeros(n, dtype=np.float64)
        #: Per-variable views into the flat constrained buffer.
        self.x_views = layout.unpack_views(self._x)
        # Per slot, fixed here: (name, slice, shape, transform, array
        # view of the constrained buffer, ragged?).  Ragged values and
        # adjoints are read through their ``.flat`` buffer.
        self._slots = tuple(
            (s.name, s.slice, s.shape, transforms[s.name],
             self._x[s.slice].reshape(s.shape), s.offsets is not None)
            for s in layout.slots
        )
        self._z = np.full(n, np.nan)
        self._g = np.zeros(n, dtype=np.float64)
        self._ljac = 0.0
        self._lp = 0.0
        self._have_point = False
        self._have_lp = False
        self._have_grad = False

    def invalidate(self) -> None:
        """Drop every cached evaluation (the environment may have moved)."""
        self._have_point = False
        self._have_lp = False
        self._have_grad = False

    def unconstrain_into(self, env: dict, out: np.ndarray) -> np.ndarray:
        """Pack the environment's constrained values as a flat z vector."""
        for name, sl, _, t, _, ragged in self._slots:
            x = env[name].flat if ragged else env[name]
            out[sl] = np.asarray(
                t.to_unconstrained(x), dtype=np.float64
            ).reshape(-1)
        return out

    def constrain_point(self, z: np.ndarray) -> dict:
        """The constrained views at ``z`` (refreshing the cache if needed)."""
        self._ensure_point(z)
        return self.x_views

    def _ensure_point(self, z: np.ndarray) -> None:
        if self._have_point and np.array_equal(z, self._z):
            return
        ljac = 0.0
        for _, sl, shape, t, xi, _ in self._slots:
            zi = z[sl]
            xi[...] = t.to_constrained(zi.reshape(shape))
            ljac += float(np.sum(t.log_jacobian(zi)))
        self._z[...] = z
        self._ljac = ljac
        self._have_point = True
        self._have_lp = False
        self._have_grad = False

    def _chain(self, gx: dict) -> None:
        """Constrained-space adjoints -> flat unconstrained gradient."""
        g = self._g
        with np.errstate(over="ignore", invalid="ignore"):
            for name, sl, _, t, _, ragged in self._slots:
                zi = self._z[sl]
                gi = gx[name].flat if ragged else gx[name]
                gi = np.asarray(gi, dtype=np.float64).reshape(-1)
                g[sl] = (
                    gi * np.asarray(t.grad_constrained_wrt_z(zi)).reshape(-1)
                    + np.asarray(t.grad_log_jacobian(zi)).reshape(-1)
                )
        self._have_grad = True

    def _eval_fused(self) -> None:
        ll_raw, gx = self._ll_grad()
        self._lp = ll_raw + self._ljac
        self._have_lp = True
        self._chain(gx)

    def value(self, z: np.ndarray) -> float:
        self._ensure_point(z)
        if not self._have_lp:
            if self._ll_grad is not None:
                self._eval_fused()
            else:
                self._lp = float(self._ll()) + self._ljac
                self._have_lp = True
        return self._lp

    def grad(self, z: np.ndarray) -> np.ndarray:
        """The gradient at ``z``; returns the *internal* buffer (read it
        before the next evaluation, or copy)."""
        self._ensure_point(z)
        if not self._have_grad:
            if self._ll_grad is not None:
                self._eval_fused()
            else:
                self._chain(self._grad())
        return self._g

    def value_and_grad(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        """Both at ``z``: one compiled call in the fused form, the
        separate pair otherwise (identical numerics)."""
        if self._ll_grad is not None:
            # The fused call that produced the value filled the gradient.
            return self.value(z), self._g
        return self.value(z), self.grad(z)


def flat_gaussian(rng, layout, out: np.ndarray) -> np.ndarray:
    """Standard-normal momentum on the packed vector.

    One ``standard_normal(shape)`` draw per slot, in layout order, so
    the RNG stream consumed depends only on the pack plan.
    """
    for s in layout.slots:
        out[s.slice] = np.asarray(rng.standard_normal(s.shape)).reshape(-1)
    return out


def hmc_step_flat(
    rng,
    target: FlatLogDensity,
    z: np.ndarray,
    step_size: float,
    n_steps: int,
    info: dict | None = None,
    work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    metric=None,
) -> tuple[np.ndarray, bool]:
    """One HMC transition on the packed flat state; returns (z', accepted?).

    ``z`` is never mutated.  The whole trajectory runs in place on three
    preallocated vectors (position, momentum, scratch; ``work``, reused
    across calls by the driver): each leapfrog step is two axpy updates,
    and the endpoints evaluate value and gradient in one fused call.
    Divergent trajectories produce inf/NaN positions; arithmetic on them
    propagates quietly and the acceptance test rejects the proposal.

    When ``info`` is supplied it is filled with the per-transition
    telemetry record: ``log_alpha``, the ``nan`` flag (NaN-rejected
    trajectory), the proposal's Hamiltonian ``energy``, a ``divergent``
    flag (energy error beyond :data:`DIVERGENCE_THRESHOLD` or
    non-finite), ``n_leapfrog``, and the dual-averaging ``accept_stat``.
    ``metric`` (a :class:`~repro.runtime.mcmc.adapt.DiagMetric`, or
    ``None`` for the identity) is one contiguous array: the momentum is
    scaled after the standard-normal draw (same RNG stream either way)
    and the drift/kinetic terms pick up ``M^-1`` elementwise; the
    ``None`` branch is the exact pre-adaptation code path.
    """
    n = z.shape[0]
    if work is None:
        work = (np.empty(n), np.empty(n), np.empty(n))
    z1, p, scratch = work
    flat_gaussian(rng, target.layout, out=p)
    if metric is None:
        kin0 = 0.5 * float(np.dot(p, p))
    else:
        np.multiply(p, metric.momentum_scale, out=p)
        np.multiply(p, metric.inv_mass, out=scratch)
        kin0 = 0.5 * float(np.dot(p, scratch))
    lp0, g = target.value_and_grad(z)
    np.copyto(z1, z)
    half = 0.5 * step_size
    lp1 = lp0
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(n_steps):
            np.multiply(g, half, out=scratch)
            np.add(p, scratch, out=p)
            if metric is None:
                np.multiply(p, step_size, out=scratch)
            else:
                np.multiply(p, metric.inv_mass, out=scratch)
                np.multiply(scratch, step_size, out=scratch)
            np.add(z1, scratch, out=z1)
            if i == n_steps - 1:
                lp1, g = target.value_and_grad(z1)
            else:
                g = target.grad(z1)
            np.multiply(g, half, out=scratch)
            np.add(p, scratch, out=p)
        if metric is None:
            kin1 = 0.5 * float(np.dot(p, p))
        else:
            np.multiply(p, metric.inv_mass, out=scratch)
            kin1 = 0.5 * float(np.dot(p, scratch))
    energy0 = -(lp0 - kin0)
    energy1 = -(lp1 - kin1)
    log_alpha = energy0 - energy1
    accepted = mh_accept(rng, log_alpha)
    if info is not None:
        _fill_info(info, log_alpha, energy1, n_steps, accepted)
    if accepted:
        return z1, True
    return z, False
