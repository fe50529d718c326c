"""The compiled sampler: what the AugurV2 pipeline ultimately produces.

A :class:`CompiledSampler` owns the compiled backend module, the
up-front allocation plan, the composed update drivers, and the runtime
environment (hyper-parameters and data).  Its ``sample`` method runs
the chain: initialise from the prior (or a supplied state), apply every
base update in schedule order per sweep, and write the requested
parameters into draw storage preallocated from the allocation plan.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from repro.core.backend.cpu import CompiledModule
from repro.core.backend.drivers import UpdateDriver
from repro.core.lowmm.size_inference import AllocationPlan, allocate_state
from repro.errors import RuntimeFailure
from repro.gpusim import Device
from repro.runtime.rng import Rng
from repro.runtime.vectors import RaggedArray
from repro.telemetry.obslog import get_event_log
from repro.telemetry.stats import SampleStats, allocate_stat_buffers
from repro.telemetry.trace import get_tracer

#: Warn when more than this fraction of an update's proposals were
#: rejected because the log acceptance ratio came out NaN.
NAN_REJECT_WARN_RATE = 0.01


def _copy_value(v):
    if isinstance(v, RaggedArray):
        return v.copy()
    if isinstance(v, np.ndarray):
        return v.copy()
    return v


class VersionedEnv(dict):
    """A dict that counts its mutations.

    ``CompiledSampler`` keeps a persistent sweep environment instead of
    rebuilding ``dict(base_env)`` every sweep; callers that re-bind data
    between sweeps (e.g. the Geweke successive-conditional simulator
    writing ``sampler.base_env[name] = ...``) bump the version, which
    invalidates that persistent environment.
    """

    __slots__ = ("version",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.version = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.version += 1

    def __delitem__(self, key):
        super().__delitem__(key)
        self.version += 1

    def update(self, *args, **kwargs):
        super().update(*args, **kwargs)
        self.version += 1

    def pop(self, *args):
        self.version += 1
        return super().pop(*args)

    def setdefault(self, key, default=None):
        self.version += 1
        return super().setdefault(key, default)

    def clear(self):
        super().clear()
        self.version += 1


@dataclass
class SampleResult:
    """Posterior samples plus run metadata.

    Dense parameters are stored in one preallocated
    ``(num_samples, *shape)`` array each (written in place per kept
    sweep); ragged parameters fall back to a list of per-draw copies.
    """

    samples: dict[str, np.ndarray | list]
    wall_time: float
    sweep_times: np.ndarray
    acceptance: dict[str, float]
    device_time: float | None = None
    #: Per-sweep telemetry (``collect_stats=True``), one typed record
    #: per base update per sweep; ``None`` when collection was off.
    stats: SampleStats | None = None
    #: The sweep profiler's attribution table (``profile=True``);
    #: ``None`` when profiling was off.
    profile: object | None = None
    #: Kept draws actually stored.  Equals the requested ``num_samples``
    #: unless the run stopped early (converged R-hat broadcast) or was
    #: interrupted; partial runs truncate ``samples``/``sweep_times``/
    #: ``stats`` to this count.
    n_kept: int = 0
    #: Sweeps actually executed (burn-in included).
    sweeps_run: int = 0
    #: True when a broadcast stop flag ended the run before all
    #: requested draws were taken (early stopping on convergence).
    stopped_early: bool = False
    #: True when ``KeyboardInterrupt`` ended the run; the draws taken
    #: before the interrupt are finalized instead of lost.
    interrupted: bool = False
    #: When the draws live in shared-memory segments, the owning
    #: :class:`repro.core.chains.SharedDrawBuffers` rides here so the
    #: arrays in ``samples`` keep their backing segment alive.
    draw_buffers: object = None
    #: The chain's parameter state after the last executed sweep (one
    #: copied value per parameter) -- together with ``rng_state`` this
    #: is exactly what a checkpoint needs to resume the chain
    #: bit-for-bit from where it stopped.
    final_state: dict | None = None
    #: Picklable RNG position (:meth:`repro.runtime.rng.Rng.state_spec`)
    #: after the last executed sweep.
    rng_state: dict | None = None
    #: Warmup adaptation state per gradient update label
    #: (``WarmupAdapter.state_dict()``): step size, dual-averaging
    #: accumulators, window position, running variance, metric.  Rides
    #: into checkpoints so a run stopped mid-warmup resumes
    #: bitwise-identically; ``None`` when the run had no warmup.
    adapt_state: dict | None = None

    @property
    def sample_stats(self) -> dict[str, np.ndarray]:
        """Nutpie-style flat stats: ``"<update label>.<field>" -> array``.

        Empty when the run was made without ``collect_stats=True``.
        """
        return self.stats.to_dict() if self.stats is not None else {}

    def array(self, name: str) -> np.ndarray:
        """Samples of ``name`` with a leading draw axis (dense only).

        For densely stored parameters this is a zero-copy view of the
        preallocated draw storage, not a re-stack.
        """
        vals = self.samples[name]
        if isinstance(vals, np.ndarray):
            return vals.view()
        if vals and isinstance(vals[0], RaggedArray):
            return np.stack([v.flat for v in vals])
        return np.asarray(vals)

    def __getitem__(self, name: str):
        return self.samples[name]


class SampleRun:
    """A resumable sampling run: iterate kept-draw chunks, then read
    ``result``.

    Produced by :meth:`CompiledSampler.sample_iter`.  Iterating yields
    ``(start, stop, info, phase)`` per chunk as soon as kept draws
    ``start:stop`` have been written into the run's draw storage — the
    nutpie-style ``do_sample``/``finalize`` shape the streaming
    multi-chain engine builds on.  After exhaustion ``result`` holds the finished
    :class:`SampleResult` (possibly partial: see ``stopped_early`` /
    ``interrupted``).  :meth:`request_stop` asks the sweep loop to stop
    at the next sweep boundary; draws already taken are kept.
    """

    def __init__(self):
        self._stop_requested = False
        self.result: SampleResult | None = None
        self._gen = None

    def request_stop(self) -> None:
        """Stop at the next sweep boundary, keeping the draws so far."""
        self._stop_requested = True

    def __iter__(self):
        return self

    def __next__(self):
        try:
            return next(self._gen)
        except StopIteration as e:
            if self.result is None:
                self.result = e.value
            raise StopIteration from None

    def drain(self) -> SampleResult:
        """Run to completion and return the final :class:`SampleResult`."""
        for _ in self:
            pass
        return self.result


class CompiledSampler:
    def __init__(
        self,
        module: CompiledModule,
        plan: AllocationPlan,
        workspaces: dict,
        updates: list[UpdateDriver],
        init_fn,
        model_ll_fn,
        base_env: dict,
        param_names: tuple[str, ...],
        device: Device | None = None,
        compile_seconds: float = 0.0,
        forward_fn=None,
        info=None,
        spec=None,
        ledger=None,
        source_map=None,
        op_count_exprs=None,
        decl_provenance=None,
    ):
        self.module = module
        self.plan = plan
        self.workspaces = workspaces
        self.updates = updates
        self._init_fn = init_fn
        self._model_ll_fn = model_ll_fn
        self._forward_fn = forward_fn
        self._info = info
        self.base_env = VersionedEnv(base_env)
        self.param_names = param_names
        self.device = device
        self.compile_seconds = compile_seconds
        #: Picklable rebuild recipe (:class:`repro.core.chains.SamplerSpec`)
        #: used by worker processes to rehydrate this sampler.
        self.spec = spec
        #: The compiler decision ledger for this compilation
        #: (:class:`repro.telemetry.explain.CompileLedger`) and the
        #: provenance metadata the profiler and reports render against.
        self.ledger = ledger
        self.source_map = source_map or {}
        self.op_count_exprs = op_count_exprs or {}
        self.decl_provenance = decl_provenance or {}
        #: The autotuner's tournament record (:func:`repro.tune.autotune`
        #: attaches it on the winning sampler); ``None`` when untuned.
        self.tune_report: dict | None = None
        # Persistent sweep environment: built once per (state object,
        # base_env version) instead of dict(base_env) + update on every
        # sweep.
        self._env: dict | None = None
        self._env_state: dict | None = None
        self._env_base_version: int = -1

    # ------------------------------------------------------------------

    @property
    def source(self) -> str:
        """The generated backend source (the paper's Cuda/C analogue)."""
        return self.module.source

    def schedule_description(self) -> str:
        return " (*) ".join(u.label for u in self.updates)

    def explain(self) -> str:
        """The compiler decision ledger as a human-readable table: which
        update each variable got, what was batched / fused / packed and
        why, with provenance back to the model source."""
        if self.ledger is None:
            return "compiler decision ledger: unavailable for this sampler"
        return self.ledger.render(self.source_map)

    def explain_json(self) -> list[dict]:
        """The decision ledger as a machine-readable list of entries."""
        return self.ledger.to_json() if self.ledger is not None else []

    def tuned(self) -> "CompiledSampler":
        """A sampler recompiled with the autotuned schedule.

        Runs (or, on a shape-cache hit, replays) the trial-sweep
        tournament of :func:`repro.tune.autotune` around this sampler's
        schedule and returns the winner, carrying the tournament as
        ``tune_report`` plus ``tune.*`` ledger entries.  Trial sweeps
        use their own fresh RNG streams, so sampling from the returned
        sampler is bitwise identical to compiling the winning schedule
        directly.
        """
        from repro.tune import autotune

        if self.spec is None:
            raise RuntimeFailure(
                "this sampler carries no rebuild spec; autotuning needs one"
            )
        spec = self.spec
        return autotune(
            spec.source,
            spec.hyper_values,
            spec.data_values,
            options=spec.options,
            schedule=spec.schedule,
            proposals=spec.proposals,
        )

    # ------------------------------------------------------------------

    def init_state(self, rng: Rng) -> dict:
        env = dict(self.base_env)
        env.update(allocate_state(self.plan.state))
        self._init_fn(env, self.workspaces, rng)
        return {p: env[p] for p in self.param_names}

    def posterior_predictive(self, state: dict, rng: Rng) -> dict:
        """Simulate replicated observations given one posterior draw.

        Runs the generated forward declaration (the model's data
        declarations, sampled) against fresh data buffers -- the
        standard posterior-predictive-check machinery.
        """
        if self._forward_fn is None or self._info is None:
            raise RuntimeFailure("this sampler was built without forward support")
        from repro.core.lowmm.size_inference import infer_data_layout

        data_layout = infer_data_layout(self._info, self.base_env)
        env = dict(self.base_env)
        env.update(state)
        env.update(allocate_state(data_layout))
        self._forward_fn(env, self.workspaces, rng)
        return {name: env[name] for name in data_layout}

    def log_joint(self, state: dict, rng: Rng | None = None) -> float:
        env = dict(self.base_env)
        env.update(state)
        (val,) = self._model_ll_fn(env, self.workspaces, rng or Rng(0))
        return float(val)

    def _sweep_env(self, state: dict) -> dict:
        """The persistent per-state sweep environment.

        The full ``dict(base_env)`` rebuild only happens when the caller
        supplies a *new* state object (a fresh ``init`` or an external
        ``step`` call) or mutates ``base_env`` (version bump); steady-
        state sweeps pay one small ``update`` of the parameter entries.
        """
        if (
            self._env is None
            or self._env_state is not state
            or self._env_base_version != self.base_env.version
        ):
            self._env = dict(self.base_env)
            self._env_state = state
            self._env_base_version = self.base_env.version
        self._env.update(state)
        return self._env

    def step(self, state: dict, rng: Rng) -> dict:
        """One full sweep of the composed kernel (in place)."""
        env = self._sweep_env(state)
        for upd in self.updates:
            upd.step(env, self.workspaces, rng)
        for p in self.param_names:
            state[p] = env[p]
        return state

    def _allocate_draws(self, collect: tuple[str, ...], num_samples: int) -> dict:
        """Draw storage from the allocation plan: one dense
        ``(num_samples, *shape)`` array per parameter; ragged parameters
        keep the list-of-copies fallback (signalled by an empty list)."""
        storage: dict[str, np.ndarray | list] = {}
        for name in collect:
            shape = self.plan.state.get(name)
            if shape is not None and not shape.is_ragged:
                storage[name] = np.empty(
                    (num_samples,) + shape.lead + shape.event,
                    dtype=np.dtype(shape.dtype),
                )
            else:
                storage[name] = []
        return storage

    def allocate_draws(
        self, collect: tuple[str, ...] | None, num_samples: int
    ) -> dict:
        """Public draw-storage allocator (the multi-chain engine uses
        it to shape shared-memory segments identically)."""
        collect = tuple(collect) if collect is not None else self.param_names
        return self._allocate_draws(collect, num_samples)

    def _warn_nan_rejections(self, counts: list[dict]) -> None:
        """One-line warning when NaN-rejected proposals exceed the
        threshold rate for any update, given each update's tally change
        over one ``sample`` call."""
        offenders = []
        for upd, c in zip(self.updates, counts):
            proposed, nan = c["proposed"], c["nan"]
            if proposed and nan / proposed > NAN_REJECT_WARN_RATE:
                offenders.append(f"{upd.label} ({nan}/{proposed} proposals)")
        if offenders:
            warnings.warn(
                "NaN log-acceptance ratios silently rejected for "
                + ", ".join(offenders)
                + "; the posterior may be improper or the proposal leaves "
                "the support",
                RuntimeWarning,
                stacklevel=3,
            )

    def sample(
        self,
        num_samples: int,
        burn_in: int = 0,
        thin: int = 1,
        seed: int | Rng = 0,
        collect: tuple[str, ...] | None = None,
        init: dict | None = None,
        callback=None,
        collect_stats: bool = False,
        profile: bool = False,
        warmup: int = 0,
        target_accept: float = 0.8,
    ) -> SampleResult:
        """Draw posterior samples.

        ``collect`` restricts which parameters are stored (all by
        default); ``callback(sweep_index, state)`` runs after every kept
        sweep (used by the log-predictive benchmarks).  With
        ``collect_stats=True`` every base update records its typed
        per-sweep stat record (acceptance/log-alpha, leapfrogs,
        divergences, slice bracket activity, ...) into preallocated
        buffers surfaced as ``SampleResult.stats``.  With
        ``profile=True`` the sweep profiler attributes wall-time to
        every update, generated declaration, and model statement
        (``SampleResult.profile``); the draws are bitwise identical
        either way.

        ``warmup`` runs that many adaptation sweeps before burn-in:
        every HMC/NUTS update gets a per-run
        :class:`~repro.runtime.mcmc.adapt.WarmupAdapter` (dual-averaging
        step size toward ``target_accept`` + windowed diagonal
        mass-matrix estimation), initialized by a reasonable-step-size
        search; the tuned step size and metric are frozen for the kept
        draws.  ``warmup=0`` (the default) is bitwise-identical to the
        pre-adaptation sampler.

        A ``KeyboardInterrupt`` during the sweep loop finalizes the
        draws taken so far (``result.interrupted``) instead of losing
        the run.
        """
        return self.sample_iter(
            num_samples,
            burn_in=burn_in,
            thin=thin,
            seed=seed,
            collect=collect,
            init=init,
            callback=callback,
            collect_stats=collect_stats,
            profile=profile,
            warmup=warmup,
            target_accept=target_accept,
        ).drain()

    def sample_iter(
        self,
        num_samples: int,
        burn_in: int = 0,
        thin: int = 1,
        seed: int | Rng = 0,
        collect: tuple[str, ...] | None = None,
        init: dict | None = None,
        callback=None,
        collect_stats: bool = False,
        profile: bool = False,
        storage: dict | None = None,
        chunk_size: int | None = None,
        stop=None,
        start_sweep: int = 0,
        start_kept: int = 0,
        warmup: int = 0,
        target_accept: float = 0.8,
        adapt_state: dict | None = None,
    ) -> SampleRun:
        """The resumable form of :meth:`sample`: a :class:`SampleRun`
        yielding ``(start, stop, info, phase)`` per chunk: the kept-draw
        index range, the per-update stats digest of the chunk's sweeps
        (:func:`~repro.telemetry.stats.chunk_stat_info`; ``None``
        unless ``collect_stats=True``), and the warmup phase (``None``
        unless ``warmup > 0``).

        ``warmup`` prepends that many adaptation sweeps (dual-averaging
        step size toward ``target_accept`` plus windowed diagonal
        mass-matrix estimation for every HMC/NUTS update); during
        warmup the run yields zero-width progress chunks, and every
        chunk's ``phase`` is ``{"phase": "warmup" | "sampling",
        "sweep", "warmup", "step_size"}`` so streaming consumers can
        report adaptation progress.
        ``adapt_state`` restores checkpointed
        :class:`~repro.runtime.mcmc.adapt.WarmupAdapter` state (keyed by
        update label) so a run resumed mid-warmup continues
        bitwise-identically.

        ``storage`` optionally supplies preallocated draw storage (the
        multi-chain engine passes shared-memory-backed arrays so workers
        write draws in place and results return zero-copy); by default
        storage is allocated from the plan as in :meth:`sample`.
        ``chunk_size`` sets how many kept draws each yielded chunk
        covers (default: all of them, one chunk).  ``stop`` is an
        optional zero-argument callable polled at every sweep boundary;
        when it returns True the run finalizes early with the draws
        taken so far (``result.stopped_early``) — the broadcast flag of
        the early-stopping protocol.  Draws of a stopped run are a
        bitwise prefix of the full run's draws for the same seed.

        ``start_sweep``/``start_kept`` resume an interrupted run from a
        checkpoint: sampling continues at absolute sweep index
        ``start_sweep`` writing kept draws from row ``start_kept``, so a
        resumed run's draws are bitwise identical to an uninterrupted
        one given the checkpointed ``init`` state and RNG position
        (``SampleResult.final_state`` / ``rng_state``).  The caller
        supplies ``storage`` already holding the prior kept draws when
        it wants the finished result to cover the whole run.  With
        ``collect_stats=True`` the stat rows before ``start_sweep``
        stay zero (each leg records only its own sweeps).
        """
        if num_samples <= 0:
            raise RuntimeFailure("num_samples must be positive")
        if warmup < 0:
            raise RuntimeFailure("warmup must be non-negative")
        total_sweeps = warmup + burn_in + num_samples * thin
        if not 0 <= start_kept <= num_samples:
            raise RuntimeFailure(
                f"start_kept must lie in [0, {num_samples}], got {start_kept}"
            )
        if not 0 <= start_sweep <= total_sweeps:
            raise RuntimeFailure(
                f"start_sweep must lie in [0, {total_sweeps}], got {start_sweep}"
            )
        if start_sweep > 0 and init is None:
            raise RuntimeFailure(
                "resuming (start_sweep > 0) needs the checkpointed state "
                "passed as init="
            )
        rng = seed if isinstance(seed, Rng) else Rng(seed)
        collect = tuple(collect) if collect is not None else self.param_names
        unknown = set(collect) - set(self.param_names)
        if unknown:
            raise RuntimeFailure(f"cannot collect non-parameters: {sorted(unknown)}")
        if chunk_size is None or chunk_size <= 0:
            chunk_size = num_samples
        run = SampleRun()

        def should_stop():
            return run._stop_requested or (stop is not None and stop())

        run._gen = self._sample_gen(
            num_samples, burn_in, thin, rng, collect, init, callback,
            collect_stats, profile, storage, chunk_size, should_stop,
            start_sweep, start_kept, warmup, target_accept, adapt_state,
        )
        return run

    def _sample_gen(
        self, num_samples, burn_in, thin, rng, collect, init, callback,
        collect_stats, profile, storage, chunk_size, should_stop,
        start_sweep=0, start_kept=0, warmup=0, target_accept=0.8,
        adapt_state=None,
    ):
        tracer = get_tracer()
        tracing = tracer.enabled
        marks = [upd.tally.copy() for upd in self.updates]

        t_init = time.perf_counter()
        state = init if init is not None else self.init_state(rng)
        if tracing:
            tracer.add_complete(
                "init", "runtime", t_init, time.perf_counter() - t_init,
                fresh=init is None,
            )
        total_sweeps = warmup + burn_in + num_samples * thin
        samples = (
            storage if storage is not None
            else self._allocate_draws(collect, num_samples)
        )
        # Warmup adaptation: one WarmupAdapter per gradient-based update,
        # attached to the driver for the duration of this run (the
        # driver's own step_size stays untouched, so the sequential
        # executor's sampler reuse across chains is safe).
        adapters: list = []
        if warmup > 0:
            from repro.runtime.mcmc.adapt import WarmupAdapter

            saved = adapt_state or {}
            for upd in self.updates:
                if hasattr(upd, "attach_adapter"):
                    adapter = WarmupAdapter(warmup, target_accept)
                    if upd.label in saved:
                        adapter.load_state(saved[upd.label])
                    if start_sweep >= warmup:
                        adapter.finalize()
                    upd.attach_adapter(adapter)
                    adapters.append((upd, adapter))
        stat_bufs = (
            allocate_stat_buffers(self.updates, total_sweeps)
            if collect_stats
            else None
        )
        profiler = None
        if profile:
            from repro.telemetry.profile import SweepProfiler

            profiler = SweepProfiler(self)
            profiler.instrument()
        sweep_times = np.empty(total_sweeps, dtype=np.float64)
        sweep_starts = np.empty(total_sweeps, dtype=np.float64) if tracing else None
        collect_spans: list[tuple[float, float]] = []
        start = time.perf_counter()
        kept = start_kept
        chunk_start = start_kept
        sweeps_run = start_sweep
        chunk_sweep_lo = start_sweep
        phase_mark = start_sweep
        stopped_early = False
        interrupted = False

        def chunk_info():
            if stat_bufs is None:
                return None
            from repro.telemetry.stats import chunk_stat_info

            return chunk_stat_info(stat_bufs, chunk_sweep_lo, sweeps_run)

        def phase_info(phase):
            if not warmup:
                return None
            eps = None
            for _, a in adapters:
                if a.step_size is not None:
                    eps = float(a.step_size)
                    break
            return {
                "phase": phase,
                "sweep": sweeps_run,
                "warmup": warmup,
                "step_size": eps,
            }

        try:
            try:
                for sweep in range(start_sweep, total_sweeps):
                    if should_stop():
                        stopped_early = True
                        break
                    if adapters and sweep == warmup:
                        for _, a in adapters:
                            a.finalize()
                    t0 = time.perf_counter()
                    if stat_bufs is None:
                        self.step(state, rng)
                    else:
                        for upd in self.updates:
                            upd.begin_sweep()
                        self.step(state, rng)
                        for upd, buf in zip(self.updates, stat_bufs):
                            buf.write(sweep, upd.end_sweep())
                    t1 = time.perf_counter()
                    sweep_times[sweep] = t1 - t0
                    if sweep_starts is not None:
                        sweep_starts[sweep] = t0
                    sweeps_run = sweep + 1
                    if warmup and sweeps_run <= warmup:
                        # Zero-width progress chunk per chunk_size warmup
                        # sweeps: streaming consumers (TTY progress, the
                        # serving deadline poll) see adaptation advance
                        # even though no draws are kept yet.
                        if sweeps_run - phase_mark >= chunk_size:
                            info = chunk_info()
                            chunk_sweep_lo = sweeps_run
                            phase_mark = sweeps_run
                            yield (kept, kept, info, phase_info("warmup"))
                        continue
                    if sweep >= warmup + burn_in and (
                        sweep - warmup - burn_in
                    ) % thin == 0:
                        for name in collect:
                            store = samples[name]
                            if isinstance(store, np.ndarray):
                                store[kept] = state[name]
                            else:
                                store.append(_copy_value(state[name]))
                        if tracing:
                            collect_spans.append((t1, time.perf_counter() - t1))
                        if callback is not None:
                            callback(kept, state)
                        kept += 1
                        # The last chunk waits for the loop to end, so
                        # its digest covers the sweeps thinning runs
                        # after the last kept draw.
                        if (
                            kept - chunk_start >= chunk_size
                            and kept < num_samples
                        ):
                            info = chunk_info()
                            chunk_sweep_lo = sweeps_run
                            yield (
                                chunk_start, kept, info,
                                phase_info("sampling"),
                            )
                            chunk_start = kept
            except KeyboardInterrupt:
                interrupted = True
        finally:
            if profiler is not None:
                profiler.restore()
            for upd, _ in adapters:
                upd.detach_adapter()
        if kept > chunk_start:
            yield (chunk_start, kept, chunk_info(), phase_info("sampling"))
        wall = time.perf_counter() - start
        if tracing:
            for sweep in range(start_sweep, sweeps_run):
                tracer.add_complete(
                    "sweep", "runtime", float(sweep_starts[sweep]),
                    float(sweep_times[sweep]), index=sweep,
                )
            for ts, dur in collect_spans:
                tracer.add_complete("collect", "runtime", ts, dur)
            tracer.add_complete(
                "sample", "runtime", start, wall,
                num_samples=num_samples, burn_in=burn_in, thin=thin,
            )
        # Acceptance and NaN rejections are read over *this call's*
        # proposals, so the numbers agree across executors (the running
        # tallies mix chains on the sequential path).
        counts = [upd.since(m) for upd, m in zip(self.updates, marks)]
        self._warn_nan_rejections(counts)
        acceptance = {
            upd.label: (
                c["accepted"] / c["proposed"] if c["proposed"] else float("nan")
            )
            for upd, c in zip(self.updates, counts)
        }
        # Partial runs (early stop / interrupt) truncate storage and
        # telemetry to what actually happened; full runs keep the exact
        # preallocated objects (array() stays a view of them).
        sweep_times = sweep_times[start_sweep:sweeps_run]
        if sweeps_run < total_sweeps:
            if kept < num_samples:
                for name in collect:
                    store = samples[name]
                    if isinstance(store, np.ndarray):
                        samples[name] = store[:kept]
            if stat_bufs is not None:
                for buf in stat_bufs:
                    buf.truncate(sweeps_run)
        final_state = {p: _copy_value(state[p]) for p in self.param_names}
        _obslog = get_event_log()
        if _obslog.enabled:
            _obslog.log(
                "sample.finished", level="debug",
                kept=kept, sweeps=sweeps_run,
                stopped_early=stopped_early, interrupted=interrupted,
            )
        return SampleResult(
            samples=samples,
            wall_time=wall,
            sweep_times=sweep_times,
            acceptance=acceptance,
            device_time=self.device.elapsed if self.device is not None else None,
            stats=(
                SampleStats(
                    stat_bufs, burn_in=burn_in, thin=thin, warmup=warmup
                )
                if stat_bufs is not None
                else None
            ),
            profile=(
                profiler.finish(float(sweep_times.sum()), sweeps_run)
                if profiler is not None
                else None
            ),
            n_kept=kept,
            sweeps_run=sweeps_run,
            stopped_early=stopped_early,
            interrupted=interrupted,
            final_state=final_state,
            rng_state=rng.state_spec(),
            adapt_state=(
                {upd.label: a.state_dict() for upd, a in adapters}
                if adapters
                else None
            ),
        )

    def sample_chains(
        self, n_chains: int, num_samples: int, **kwargs
    ) -> list[SampleResult]:
        """Run several independent chains from forked RNG streams and
        return one :class:`SampleResult` per chain, in chain order.

        This is the Jags/Stan style of parallelism the paper contrasts
        with AugurV2's within-chain parallelism (Section 7.2).  The
        keywords (``executor``, ``n_workers``, ``seed``, ``monitor``,
        ``early_stop_rhat``, ``resume``, ...) are those of
        :func:`repro.core.chains.stream_chains`; for a given seed the
        per-chain draws are bitwise identical whichever executor runs
        them.  This is :meth:`stream_chains` run to completion; when no
        ``chunk_size``, ``monitor`` or ``early_stop_rhat`` asks for
        intermediate chunks, each chain runs as one chunk.
        """
        if all(
            kwargs.get(k) is None
            for k in ("chunk_size", "monitor", "early_stop_rhat")
        ):
            kwargs["chunk_size"] = num_samples
        return self.stream_chains(n_chains, num_samples, **kwargs).drain()

    def stream_chains(self, n_chains: int, num_samples: int, **kwargs):
        """The streaming form of :meth:`sample_chains`: returns a
        :class:`repro.core.chains.ChainStream` yielding
        :class:`~repro.core.chains.ChainChunk` items as chains post
        them; see :func:`repro.core.chains.stream_chains`."""
        from repro.core.chains import stream_chains

        return stream_chains(self, n_chains, num_samples, **kwargs)
