"""Update drivers: the glue between compiled primitives and MCMC library.

The synthesis step (Section 5.5) wires each base update's generated
declarations to the corresponding library routine.  Every driver's
``step(env, ws, rng)`` advances its portion of the state in place.

Rejectable updates (HMC, NUTS, MH) maintain the paper's dual-state
invariant: the proposal is computed on a copy and only written back on
acceptance, so subsequent updates always read the most current state.

Telemetry: every driver keeps one running ``tally`` that each ``step``
adds to -- proposals, acceptances, NaN-rejected proposals, and its
kind's own counters (slice bracket expansions and shrinks, MH's finite
log-alpha sum and count).  A recorded sweep's typed stat record
(:meth:`UpdateDriver.stat_fields`) is the tally's change between
``begin_sweep`` and ``end_sweep``; ``SampleResult.acceptance`` and the
NaN-rejection warning are its change over a ``sample`` call.  The
library routines always get the driver's ``info`` dict; they only write
counts into it and never touch the RNG.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.core.density.conditionals import Conditional
from repro.core.density.interp import eval_expr
from repro.core.exprs import mentions
from repro.core.lowmm.size_inference import BufferShape, PackPlan
from repro.runtime.distributions import lookup
from repro.runtime.mcmc.adapt import find_reasonable_step_size
from repro.runtime.mcmc.hmc import FlatLogDensity, flat_gaussian, hmc_step_flat
from repro.runtime.mcmc.nuts import nuts_step_flat
from repro.runtime.mcmc.mh import (
    random_walk_step,
    random_walk_sweep,
    user_proposal_step,
)
from repro.runtime.mcmc.slice_sampler import (
    elliptical_slice,
    elliptical_slice_sweep,
    slice_coordinate,
    slice_sweep,
)
from repro.runtime.transforms import Transform
from repro.runtime.vectors import RaggedArray
from repro.telemetry.stats import BASE_FIELDS, StatField


class UpdateDriver:
    """Base class; subclasses implement ``step``."""

    name: str
    targets: tuple[str, ...]

    #: Per-sweep stat columns beyond :data:`BASE_FIELDS`.
    EXTRA_FIELDS: tuple[StatField, ...] = ()
    #: Tally counters beyond proposals, acceptances and NaN rejections.
    EXTRA_COUNTS: tuple[str, ...] = ()

    #: True for the batched element drivers, which advance every lane of
    #: the target in a handful of vectorised calls per sweep.
    is_batched: bool = False

    def __init__(self) -> None:
        #: The update's one running count, added to on every step.
        self.tally = dict.fromkeys(
            ("proposed", "accepted", "nan") + self.EXTRA_COUNTS, 0
        )
        self._mark: dict | None = None
        #: Compiled-call attributes the profiler may wrap, mapped to the
        #: generated declaration each one executes (set by the compiler
        #: when wiring the driver): ``{"_ll_fn": "hmc_blk_ll", ...}``.
        self.profile_fns: dict[str, str] = {}
        self._saved_fns: dict | None = None

    @property
    def label(self) -> str:
        """Human-readable update label, e.g. ``"Gibbs z"``."""
        return f"{type(self).__name__.removesuffix('Driver')} {','.join(self.targets)}"

    def stat_fields(self) -> tuple[StatField, ...]:
        """The typed schema of this update's per-sweep stat record."""
        return BASE_FIELDS + self.EXTRA_FIELDS

    # -- the tally ---------------------------------------------------------

    def since(self, mark: dict) -> dict:
        """The tally's change since ``mark``, a copy taken earlier."""
        return {k: v - mark[k] for k, v in self.tally.items()}

    def begin_sweep(self) -> None:
        """Mark the tally before a recorded sweep."""
        self._mark = self.tally.copy()

    def end_sweep(self) -> dict:
        """The stat record of the sweep since :meth:`begin_sweep`."""
        counts = self.since(self._mark)
        proposed = counts.pop("proposed")
        accepted = counts.pop("accepted")
        record = {
            "accept_rate": accepted / proposed if proposed else float("nan"),
            "n_proposed": proposed,
            "nan_rejects": counts.pop("nan"),
        }
        record.update(self._finish_sweep(counts))
        return record

    def _finish_sweep(self, counts: dict) -> dict:
        """Subclass hook: the record fields beyond :data:`BASE_FIELDS`,
        from the sweep's change in the extra counters."""
        return counts

    # -- profiling ---------------------------------------------------------

    def instrument(self, profiler) -> None:
        """Swap each bound compiled function for a timing wrapper.

        Wrappers only read the clock around the original call -- never
        the RNG -- so draws are identical with or without them.
        Idempotent: a second call with wrappers installed is a no-op.
        """
        if self._saved_fns is not None:
            return
        saved = {}
        for attr, decl_name in self.profile_fns.items():
            fn = getattr(self, attr, None)
            if fn is None:
                continue
            saved[attr] = fn
            setattr(self, attr, profiler.wrap(decl_name, fn))
        self._saved_fns = saved
        self._invalidate_fn_caches()

    def restore(self) -> None:
        """Put the original compiled functions back after profiling."""
        if self._saved_fns is None:
            return
        for attr, fn in self._saved_fns.items():
            setattr(self, attr, fn)
        self._saved_fns = None
        self._invalidate_fn_caches()

    def _invalidate_fn_caches(self) -> None:
        """Subclass hook: drop closures that captured the swapped fns."""

    def step(self, env: dict, ws: dict, rng) -> None:
        raise NotImplementedError


class GibbsDriver(UpdateDriver):
    """Closed-form or enumerated conditional: call the generated update.

    Always accepted (acceptance ratio 1), so no dual state is needed.
    """

    def __init__(self, name: str, targets, fn):
        super().__init__()
        self.name = name
        self.targets = tuple(targets)
        self._fn = fn

    def step(self, env, ws, rng) -> None:
        self._fn(env, ws, rng)
        tally = self.tally
        tally["proposed"] += 1
        tally["accepted"] += 1


class GradBlockDriver(UpdateDriver):
    """HMC / NUTS over a block of transformed continuous variables.

    The compiled density comes in the form the target emitted: the CPU
    target's fused ``ll_grad_fn`` (one call returns the log density and
    every adjoint), or the GPU target's separate ``ll_fn``/``grad_fn``
    kernels.
    """

    #: Adaptation telemetry shared by both methods: the uniform per-draw
    #: acceptance statistic (min(1, alpha); tree-leaf average for NUTS)
    #: that dual averaging consumes, the step size the draw actually
    #: used, the running dual-averaging iterate, and the mass-matrix
    #: window the sweep fell in.
    _ADAPT_FIELDS = (
        StatField("accept_stat", "f8", "dual-averaging acceptance statistic"),
        StatField("step_size", "f8", "leapfrog step size used this sweep"),
        StatField("step_size_bar", "f8", "dual-averaging averaged step size"),
        StatField("adapt_window", "i8", "mass-matrix window index"),
    )
    _HMC_FIELDS = (
        StatField("log_alpha", "f8", "log acceptance ratio of the trajectory"),
        StatField("energy", "f8", "Hamiltonian at the proposal"),
        StatField("divergent", "i8", "trajectory flagged divergent"),
        StatField("n_leapfrog", "i8", "leapfrog steps taken"),
    ) + _ADAPT_FIELDS
    _NUTS_FIELDS = (
        StatField("energy", "f8", "initial Hamiltonian of the trajectory"),
        StatField("divergent", "i8", "a tree leaf exceeded the energy bound"),
        StatField("n_leapfrog", "i8", "leapfrog steps taken"),
        StatField("tree_depth", "i8", "doublings performed"),
    ) + _ADAPT_FIELDS

    def __init__(
        self,
        name: str,
        targets,
        transforms: dict[str, Transform],
        pack_plan: PackPlan,
        step_size: float,
        n_steps: int,
        method: str = "hmc",
        ll_fn=None,
        grad_fn=None,
        ll_grad_fn=None,
    ):
        super().__init__()
        self.name = name
        self.targets = tuple(targets)
        self._ll_fn = ll_fn
        self._grad_fn = grad_fn
        self._ll_grad_fn = ll_grad_fn
        self._transforms = transforms
        self._method = method
        self.step_size = step_size
        self.n_steps = n_steps
        #: True when the model text pinned the step size; the CLI keeps
        #: default warmup adaptation off for such schedules.
        self.user_step_size = False
        self._info: dict = {}
        self._pack_plan = pack_plan
        self._flat: FlatLogDensity | None = None
        self._flat_scope: dict = {}
        self._flat_call = None  # (ws, rng) of the step in flight
        self._z_buf: np.ndarray | None = None
        self._flat_work = None
        # Warmup adaptation: attached per run by the sampler, detached
        # when the run finishes (the same driver instance is reused
        # across chains and warm-pool tasks).
        self._adapter = None

    @property
    def label(self) -> str:
        kind = "NUTS" if self._method == "nuts" else "HMC"
        return f"{kind} {','.join(self.targets)}"

    def stat_fields(self) -> tuple[StatField, ...]:
        extra = self._NUTS_FIELDS if self._method == "nuts" else self._HMC_FIELDS
        return BASE_FIELDS + extra

    def _invalidate_fn_caches(self) -> None:
        # The cached FlatLogDensity closes over _ll_fn/_grad_fn/
        # _ll_grad_fn; rebuild it so it sees the (un)wrapped functions.
        self._flat = None

    def _finish_sweep(self, counts: dict) -> dict:
        # The whole-block update runs once per sweep: the last info
        # record *is* the sweep record.
        info = self._info
        out = {
            "energy": info.get("energy", float("nan")),
            "divergent": int(info.get("divergent", False)),
            "n_leapfrog": info.get("n_leapfrog", 0),
        }
        out["accept_stat"] = float(info.get("accept_stat", 0.0))
        if self._method == "nuts":
            out["tree_depth"] = info.get("tree_depth", 0)
            # The statistic the tally added, as is: the running sum
            # absorbs one far below its own rounding.
            out["accept_rate"] = out["accept_stat"]
        else:
            out["log_alpha"] = info.get("log_alpha", float("nan"))
        eps = float(info.get("step_size", self.step_size))
        out["step_size"] = eps
        adapter = self._adapter
        out["step_size_bar"] = (
            adapter.step_size_bar if adapter is not None else eps
        )
        out["adapt_window"] = (
            adapter.window_index if adapter is not None else 0
        )
        return out

    # -- warmup adaptation -------------------------------------------

    def attach_adapter(self, adapter) -> None:
        """Install a per-run :class:`WarmupAdapter`.

        The adapter supplies the step size and metric for every
        subsequent step; ``detach_adapter`` must run when the sampling
        run finishes (``self.step_size`` itself is never mutated, so a
        detached driver behaves exactly as before the run).
        """
        self._adapter = adapter

    def detach_adapter(self) -> None:
        self._adapter = None

    def _init_adapter_flat(self, flat, z, rng) -> None:
        """Reasonable-step-size initialization on the packed state.

        Draws one momentum (the only RNG consumption), then doubles or
        halves the step until a single leapfrog step's log acceptance
        ratio crosses log(1/2).  Skipped on mid-warmup resume: the
        restored adapter is already initialized and the RNG stream has
        already advanced past this draw.
        """
        p = np.empty_like(z)
        flat_gaussian(rng, flat.layout, out=p)
        with np.errstate(invalid="ignore", over="ignore"):
            h0 = -(flat.value(z) - 0.5 * float(np.dot(p, p)))

            def log_accept(eps: float) -> float:
                z1 = z.copy()
                p1 = p.copy()
                half = 0.5 * eps
                p1 += half * flat.grad(z1)
                z1 += eps * p1
                lp1, g1 = flat.value_and_grad(z1)
                p1 += half * g1
                return h0 - (-(lp1 - 0.5 * float(np.dot(p1, p1))))

            self._adapter.initialize(
                find_reasonable_step_size(log_accept, init=self.step_size)
            )

    def _flat_density(self) -> FlatLogDensity:
        """The packed-vector density, built once; its compiled-call
        closures read the persistent scope and the step-in-flight
        ``(ws, rng)`` pair."""
        if self._flat is not None:
            return self._flat
        scope = self._flat_scope

        if self._ll_grad_fn is not None:
            def ll_grad():
                vals = self._ll_grad_fn(scope, *self._flat_call)
                return float(vals[0]), dict(zip(self.targets, vals[1:]))

            self._flat = FlatLogDensity(
                self._transforms, self._pack_plan, ll_grad_fn=ll_grad
            )
            return self._flat

        def ll():
            (val,) = self._ll_fn(scope, *self._flat_call)
            return float(val)

        def grad():
            grads = self._grad_fn(scope, *self._flat_call)
            return dict(zip(self.targets, grads))

        self._flat = FlatLogDensity(
            self._transforms, self._pack_plan, ll_fn=ll, grad_fn=grad
        )
        return self._flat

    def step(self, env, ws, rng) -> None:
        info = self._info
        info.clear()
        accepted = self._step_flat(env, ws, rng, info)
        tally = self.tally
        tally["proposed"] += 1
        tally["accepted"] += accepted
        if info.get("nan"):
            tally["nan"] += 1

    def _step_flat(self, env, ws, rng, info):
        """One transition; returns what it adds to the accepted count:
        1 or 0 for HMC, and for NUTS, which has no accept/reject step,
        the dual-averaging accept statistic."""
        flat = self._flat_density()
        layout = self._pack_plan
        self._flat_call = (ws, rng)
        scope = self._flat_scope
        scope.clear()
        scope.update(env)
        # The compiled functions read the constrained state through the
        # density's live views; splice them over the committed values.
        scope.update(flat.x_views)
        # Other updates moved the rest of the state since the last step;
        # every cached density value is stale.
        flat.invalidate()
        if self._z_buf is None or self._z_buf.shape[0] != layout.total:
            n = layout.total
            self._z_buf = np.empty(n)
            self._flat_work = (np.empty(n), np.empty(n), np.empty(n))
        z = flat.unconstrain_into(env, self._z_buf)
        adapter = self._adapter
        if adapter is None:
            eps, metric = self.step_size, None
        else:
            if not adapter.initialized:
                self._init_adapter_flat(flat, z, rng)
            eps = adapter.step_size
            metric = adapter.metric
        info["step_size"] = eps
        if self._method == "nuts":
            z_next, _, accept_stat = nuts_step_flat(
                rng, flat, z, eps, info=info, metric=metric
            )
            accepted = float(accept_stat)
        else:
            z_next, moved = hmc_step_flat(
                rng, flat, z, eps, self.n_steps, info=info,
                work=self._flat_work, metric=metric,
            )
            accepted = int(moved)
        if adapter is not None and not adapter.finalized:
            adapter.observe(info.get("accept_stat", 0.0), z_next)
        x_next = flat.constrain_point(z_next)
        for t in self.targets:
            env[t] = _committed(x_next[t])
        return accepted


def _committed(view):
    """A fresh copy of a constrained view; scalars become floats."""
    if isinstance(view, RaggedArray) or view.ndim:
        return view.copy()
    return float(view)


# ----------------------------------------------------------------------
# Element-wise drivers (Slice / ESlice / MH).
# ----------------------------------------------------------------------


def element_indices(shape: BufferShape):
    """All index tuples of a state buffer (empty tuple for scalars)."""
    if shape.is_ragged:
        for d, length in enumerate(shape.row_lengths):
            for j in range(int(length)):
                yield (d, j)
        return
    if not shape.lead:
        yield ()
        return
    yield from itertools.product(*(range(n) for n in shape.lead))


def _get_element(env, name: str, idx: tuple[int, ...]):
    v = env[name]
    for i in idx:
        v = v.row(i) if isinstance(v, RaggedArray) else v[i]
    return v


def _set_element(env, name: str, idx: tuple[int, ...], value) -> None:
    if not idx:
        if np.ndim(env[name]) == 0:
            env[name] = float(np.asarray(value))
        else:
            env[name][...] = value
        return
    v = env[name]
    for i in idx[:-1]:
        v = v.row(i) if isinstance(v, RaggedArray) else v[i]
    v[idx[-1]] = value


class ElementDriver(UpdateDriver):
    """Shared plumbing for per-element updates on one variable."""

    def __init__(self, name: str, cond: Conditional, shape: BufferShape, ll_fn):
        super().__init__()
        self.name = name
        self.targets = (cond.target,)
        self.cond = cond
        self.shape = shape
        self._ll_fn = ll_fn
        self._info: dict = {}
        self._elements: list[tuple[int, ...]] | None = None
        self._elements_key = None

    def _element_list(self) -> list[tuple[int, ...]]:
        """The materialised element-index tuples, cached across sweeps.

        Re-walking ``element_indices`` every sweep costs O(N) tuple
        construction per update; the bound shape almost never changes, so
        cache the list and invalidate on a shape-key mismatch (ragged
        ``row_lengths`` content included).
        """
        shape = self.shape
        if shape.is_ragged:
            key = (id(shape), shape.row_lengths.tobytes())
        else:
            key = (id(shape), shape.lead)
        if self._elements is None or self._elements_key != key:
            self._elements = list(element_indices(shape))
            self._elements_key = key
        return self._elements

    def _count(self, n: int = 1) -> None:
        """Tally ``n`` slice updates, which always accept, and the
        bracket counters (``EXTRA_COUNTS``) the routine left in ``info``."""
        tally, info = self.tally, self._info
        tally["proposed"] += n
        tally["accepted"] += n
        for key in self.EXTRA_COUNTS:
            tally[key] += info[key]

    def _bind_idx(self, env, idx) -> None:
        for var, i in zip(self.cond.idx_vars, idx):
            env[var] = int(i)

    def _logp_fn(self, env, ws, rng, idx):
        target = self.cond.target

        def logp(value):
            _set_element(env, target, idx, value)
            (val,) = self._ll_fn(env, ws, rng)
            return float(val)

        return logp


class SliceDriver(ElementDriver):
    """Coordinate-wise stepping-out slice sampling of each element."""

    EXTRA_FIELDS = (
        StatField("expansions", "i8", "bracket step-out widenings this sweep"),
        StatField("shrinks", "i8", "rejected candidates that shrank a bracket"),
    )
    EXTRA_COUNTS = ("expansions", "shrinks")

    def __init__(self, name, cond, shape, ll_fn, width: float = 1.0):
        super().__init__(name, cond, shape, ll_fn)
        self.width = width

    def step(self, env, ws, rng) -> None:
        info = self._info
        for idx in self._element_list():
            self._bind_idx(env, idx)
            current = np.array(
                _get_element(env, self.cond.target, idx), dtype=np.float64, copy=True
            )
            if current.ndim == 0:
                logp = self._logp_fn(env, ws, rng, idx)
                new = slice_coordinate(
                    rng.generator, logp, float(current), self.width, info=info
                )
                _set_element(env, self.cond.target, idx, new)
                self._count()
            else:
                value = current.copy()
                for c in range(value.shape[0]):
                    def logp(vc, c=c):
                        value[c] = vc
                        _set_element(env, self.cond.target, idx, value)
                        (val,) = self._ll_fn(env, ws, rng)
                        return float(val)

                    value[c] = slice_coordinate(
                        rng.generator, logp, float(value[c]), self.width, info=info
                    )
                    # Each coordinate is one slice update.
                    self._count()
                _set_element(env, self.cond.target, idx, value)


class ESliceDriver(ElementDriver):
    """Elliptical slice sampling: Gaussian prior handled by rotation,
    the generated likelihood-only conditional scores candidates."""

    EXTRA_FIELDS = (
        StatField("shrinks", "i8", "rejected ellipse angles this sweep"),
    )
    EXTRA_COUNTS = ("shrinks",)

    def _prior_args_constant(self) -> bool:
        """Prior parameters free of element indices evaluate to the same
        values for every element -- hoist them out of the sweep loop."""
        return not any(
            mentions(a, v)
            for a in self.cond.prior.args
            for v in self.cond.idx_vars
        )

    def step(self, env, ws, rng) -> None:
        info = self._info
        prior = lookup(self.cond.prior.dist)
        const_args = (
            [eval_expr(a, env) for a in self.cond.prior.args]
            if self._prior_args_constant()
            else None
        )
        for idx in self._element_list():
            self._bind_idx(env, idx)
            args = (
                const_args
                if const_args is not None
                else [eval_expr(a, env) for a in self.cond.prior.args]
            )
            mean = np.asarray(args[0], dtype=np.float64)
            nu = prior.sample(rng, *args)
            # Copy: the candidate evaluations below write through into the
            # state row, so a view of it would corrupt the ellipse anchor.
            x0 = np.array(
                _get_element(env, self.cond.target, idx), dtype=np.float64, copy=True
            )
            loglik = self._logp_fn(env, ws, rng, idx)
            x1 = elliptical_slice(rng.generator, loglik, x0, mean, nu, info=info)
            _set_element(env, self.cond.target, idx, x1)
            self._count()


class MHDriver(ElementDriver):
    """Random-walk (or user-proposal) Metropolis-Hastings per element."""

    EXTRA_FIELDS = (
        StatField("mean_log_alpha", "f8", "mean finite log-alpha this sweep"),
    )
    #: The sum and the count of the finite log acceptance ratios.
    EXTRA_COUNTS = ("log_alpha_sum", "n_finite")

    def __init__(self, name, cond, shape, ll_fn, scale: float = 0.5, proposal=None):
        super().__init__(name, cond, shape, ll_fn)
        self.scale = scale
        self.proposal = proposal

    def _finish_sweep(self, counts: dict) -> dict:
        n, total = counts["n_finite"], counts["log_alpha_sum"]
        return {"mean_log_alpha": total / n if n else float("nan")}

    def step(self, env, ws, rng) -> None:
        info, tally = self._info, self.tally
        for idx in self._element_list():
            self._bind_idx(env, idx)
            x0 = _get_element(env, self.cond.target, idx)
            x0 = np.asarray(x0, dtype=np.float64).copy()
            logp = self._logp_fn(env, ws, rng, idx)
            if self.proposal is not None:
                x1, accepted = user_proposal_step(
                    rng.generator, logp, x0, self.proposal, info=info
                )
            else:
                x1, accepted = random_walk_step(
                    rng.generator, logp, x0, self.scale, info=info
                )
            _set_element(env, self.cond.target, idx, x1)
            tally["proposed"] += 1
            tally["accepted"] += int(accepted)
            if info["nan"]:
                tally["nan"] += 1
            la = info["log_alpha"]
            if math.isfinite(la):
                tally["log_alpha_sum"] += la
                tally["n_finite"] += 1


# ----------------------------------------------------------------------
# Batched element drivers (Section 4.4's Par/AtmPar parallelism at
# runtime): every lane proposes / brackets / accepts in whole-vector
# calls against the generated batched conditional.
# ----------------------------------------------------------------------


class _LaneMixin:
    """Lane read/write plumbing shared by the batched drivers.

    Lanes follow :func:`element_indices` order: C-order over the lead
    dimensions for dense state, ``(row, position)`` order -- i.e. the
    ``RaggedArray.flat`` layout -- for ragged state.  Trailing event
    axes (vector elements) ride along after the lane axis.
    """

    is_batched = True

    def _lane_values(self, env) -> np.ndarray:
        v = env[self.cond.target]
        ev = tuple(self.shape.event)
        if isinstance(v, RaggedArray):
            return np.array(v.flat, dtype=np.float64, copy=True)
        return np.asarray(v, dtype=np.float64).reshape((-1,) + ev).copy()

    def _write_lanes(self, env, values) -> None:
        v = env[self.cond.target]
        if isinstance(v, RaggedArray):
            v.flat[...] = values
        else:
            v[...] = np.asarray(values).reshape(v.shape)

    def _lane_ll_fn(self, env, ws, rng):
        """Lane-value vector -> per-lane conditional log densities.

        Writes the candidate lanes into the live state array (the same
        in-place contract as the scalar drivers) and evaluates the
        batched conditional once.  The returned buffer is the reused
        workspace, so it is copied before the next evaluation can
        clobber it.
        """

        def logp_all(values):
            self._write_lanes(env, values)
            (bll,) = self._bll_fn(env, ws, rng)
            flat = bll.flat if isinstance(bll, RaggedArray) else bll
            return np.array(flat, dtype=np.float64, copy=True).reshape(-1)

        return logp_all


class VectorizedMHDriver(_LaneMixin, MHDriver):
    """Random-walk MH over all element lanes in one vectorised sweep."""

    def __init__(self, name, cond, shape, ll_fn, bll_fn, scale: float = 0.5):
        super().__init__(name, cond, shape, ll_fn, scale=scale, proposal=None)
        self._bll_fn = bll_fn

    @property
    def label(self) -> str:
        # Same label as the scalar driver: the batched path is an
        # execution strategy, not a different update.
        return f"MH {','.join(self.targets)}"

    def step(self, env, ws, rng) -> None:
        x0 = self._lane_values(env)
        n = x0.shape[0]
        if n == 0:
            return
        info = self._info
        x1, accepted = random_walk_sweep(
            rng.generator, self._lane_ll_fn(env, ws, rng), x0, self.scale,
            info=info,
        )
        self._write_lanes(env, x1)
        tally = self.tally
        tally["proposed"] += n
        tally["accepted"] += int(np.count_nonzero(accepted))
        tally["nan"] += int(np.count_nonzero(info["nan"]))
        la = info["log_alpha"]
        finite = np.isfinite(la)
        tally["log_alpha_sum"] += float(la[finite].sum())
        tally["n_finite"] += int(np.count_nonzero(finite))


class VectorizedSliceDriver(_LaneMixin, SliceDriver):
    """Stepping-out slice sampling of all (scalar) lanes per call."""

    def __init__(self, name, cond, shape, ll_fn, bll_fn, width: float = 1.0):
        super().__init__(name, cond, shape, ll_fn, width=width)
        self._bll_fn = bll_fn

    @property
    def label(self) -> str:
        return f"Slice {','.join(self.targets)}"

    def step(self, env, ws, rng) -> None:
        x0 = self._lane_values(env)
        n = x0.shape[0]
        if n == 0:
            return
        x1 = slice_sweep(
            rng.generator, self._lane_ll_fn(env, ws, rng), x0, self.width,
            info=self._info,
        )
        self._write_lanes(env, x1)
        self._count(n)


class VectorizedESliceDriver(_LaneMixin, ESliceDriver):
    """Elliptical slice sampling of all lanes per call.

    Only wired when the Gaussian prior's parameters are lane-invariant
    (no element index in the args), so one prior draw of ``n`` variates
    serves every lane.
    """

    def __init__(self, name, cond, shape, ll_fn, bll_fn):
        super().__init__(name, cond, shape, ll_fn)
        self._bll_fn = bll_fn

    @property
    def label(self) -> str:
        return f"ESlice {','.join(self.targets)}"

    def step(self, env, ws, rng) -> None:
        x0 = self._lane_values(env)
        n = x0.shape[0]
        if n == 0:
            return
        prior = lookup(self.cond.prior.dist)
        args = [eval_expr(a, env) for a in self.cond.prior.args]
        mean = np.asarray(args[0], dtype=np.float64)
        nu = np.asarray(prior.sample(rng, *args, size=n), dtype=np.float64)
        x1 = elliptical_slice_sweep(
            rng.generator, self._lane_ll_fn(env, ws, rng), x0, mean, nu,
            info=self._info,
        )
        self._write_lanes(env, x1)
        self._count(n)
