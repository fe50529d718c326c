"""Parallel multi-chain execution engine (the Jags/Stan-style fan-out).

The paper's Section 7.2 contrasts AugurV2's *within-chain* parallelism
with the *chain-level* parallelism of Jags/Stan.  This module supplies
the latter as a first-class runtime concern, built from three pieces:

- A **warm worker pool** (:class:`WarmPool`): worker processes are
  spawned once per :class:`SamplerSpec` fingerprint
  (:func:`repro.core.compiler.spec_cache_key`), rebuild the sampler
  once at spawn (a fork inherits the parent's warm compile cache, so
  this skips codegen), and then serve repeated chain requests over
  per-worker task queues without the spec ever being re-shipped.
- **Shared-memory draw buffers** (:class:`SharedDrawBuffers`): the
  parent allocates every chain's preallocated draw storage inside one
  ``multiprocessing.shared_memory`` segment described by a picklable
  :class:`BufferPlan`; workers attach and write draws in place, so
  results return zero-copy -- only stats/trace metadata crosses the
  pipe.  Ownership rule: the *parent* creates and unlinks the segment
  (a ``weakref.finalize`` tied to the owning ``SharedDrawBuffers``);
  workers only ever attach and close.
- A **streaming iterator** (:class:`ChainStream`): chains post
  :class:`ChainChunk` ranges as they are written (nutpie's
  ``do_sample``/``finalize`` shape), the parent counts the run's
  divergences once (:class:`~repro.telemetry.monitors.DivergenceTally`),
  feeds a :class:`~repro.telemetry.monitors.ConvergenceMonitor`
  incrementally, broadcasts a stop flag once R-hat converges
  (``early_stop_rhat``), and finalizes partial results on
  ``KeyboardInterrupt`` instead of losing the run.

Determinism is preserved throughout: chain streams come from
:meth:`repro.runtime.rng.Rng.fork` (deterministic in the parent seed,
forked once before dispatch), so for a given seed the per-chain draws
are bitwise identical whichever executor runs them -- and an
early-stopped chain's draws are a bitwise *prefix* of the full run.
"""

from __future__ import annotations

import atexit
import os
import queue as _queue
import sys
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from repro.errors import RuntimeFailure
from repro.runtime.rng import Rng
from repro.telemetry.monitors import DEFAULT_DIVERGENCE_WARN, DivergenceTally
from repro.telemetry.obslog import WorkerCapture, current_rid, get_event_log

EXECUTORS = ("sequential", "processes")

#: Kept draws per streamed chunk when the caller does not choose.
DEFAULT_CHUNK = 25


@dataclass
class SamplerSpec:
    """A picklable recipe for rebuilding a compiled sampler.

    Carries the model source text, the runtime values that size the
    allocation plan, and the schedule/options pair -- exactly the
    inputs of :func:`repro.core.compiler.compile_model`, and exactly
    the compile-cache key, so rebuilding in a warm process is cheap.

    ``proposals`` (user MH proposal callables) ride along when present;
    they must be picklable (module-level functions) for the process
    executor.
    """

    source: str
    hyper_values: dict
    data_values: dict
    schedule: str | None = None
    options: object = None
    proposals: dict | None = field(default=None, repr=False)

    def build(self):
        """Recompile the sampler this spec describes."""
        from repro.core.compiler import compile_model

        return compile_model(
            self.source,
            self.hyper_values,
            self.data_values,
            options=self.options,
            schedule=self.schedule,
            proposals=self.proposals,
        )

    def cache_key(self) -> str:
        """The compile-cache fingerprint (also the warm-pool key)."""
        from repro.core.compiler import spec_cache_key

        return spec_cache_key(self)


def _copy_state_value(v):
    from repro.core.sampler import _copy_value

    return _copy_value(v)


@dataclass(frozen=True)
class ChainResume:
    """One chain's resume point: where to pick the chain back up.

    Built from a partial :class:`~repro.core.sampler.SampleResult`
    (``final_state`` / ``rng_state`` / ``n_kept`` / ``sweeps_run``) --
    usually via :class:`repro.serve.checkpoint.Checkpoint`.  ``draws``
    optionally carries the kept draws of the interrupted leg so the
    resumed run's storage covers the whole run; the engine splices them
    into freshly allocated storage before sampling continues.  A
    resumed chain's draws are bitwise identical to an uninterrupted run
    with the same seed.
    """

    init: dict
    rng_spec: dict
    start_sweep: int
    start_kept: int
    draws: dict | None = None
    #: Checkpointed warmup adaptation state
    #: (``SampleResult.adapt_state``): restored into the resumed leg's
    #: :class:`~repro.runtime.mcmc.adapt.WarmupAdapter` so a chain
    #: stopped mid-warmup continues adapting bitwise-identically.
    adapt_state: dict | None = None


def default_workers(n_chains: int) -> int:
    """Worker count bounded by the CPUs this process may actually use.

    ``os.sched_getaffinity`` respects cgroup/container CPU masks;
    ``os.cpu_count`` (which does not) is only the fallback for
    platforms without affinity support.
    """
    try:
        avail = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        avail = os.cpu_count() or 1
    return max(1, min(n_chains, avail))


# ----------------------------------------------------------------------
# Shared-memory draw buffers.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BufferSlot:
    """One dense parameter's draw storage for one chain: a typed view
    of the run's shared segment at ``offset``."""

    name: str
    chain: int
    offset: int
    shape: tuple
    dtype: str


@dataclass(frozen=True)
class BufferPlan:
    """Picklable description of one run's shared draw segment.

    ``slots`` lay every (chain, dense parameter) array out back to back
    (8-byte aligned); ``ragged`` names the parameters that cannot use
    dense storage and fall back to per-draw pickled lists shipped with
    the chain's final metadata.  ``collect`` preserves the caller's
    parameter order so rebuilt ``samples`` dicts iterate identically to
    the sequential path's.
    """

    segment_name: str
    total_bytes: int
    slots: tuple[BufferSlot, ...]
    ragged: tuple[str, ...]
    collect: tuple[str, ...]


def _plan_slots(plan_state, collect, n_chains, num_samples):
    slots = []
    ragged = []
    offset = 0
    for name in collect:
        shape = plan_state.get(name)
        if shape is None or shape.is_ragged:
            ragged.append(name)
            continue
        full = (num_samples,) + tuple(shape.lead) + tuple(shape.event)
        dt = np.dtype(shape.dtype)
        nbytes = int(np.prod(full, dtype=np.int64)) * dt.itemsize
        for chain in range(n_chains):
            offset = (offset + 7) & ~7
            slots.append(BufferSlot(name, chain, offset, full, dt.str))
            offset += nbytes
    return tuple(slots), tuple(ragged), offset


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Worker-side attach that never talks to the resource tracker.

    A forked worker shares the parent's tracker: its register/unregister
    pair would delete the parent's entry, and a worker forked while a
    parent thread held the tracker's lock would block on its first
    register.  Before Python 3.13 ``SharedMemory`` always registers, so
    the attach stubs the register call out (workers run no other thread
    that registers)."""
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    from multiprocessing import resource_tracker

    register = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    # Unmaps under live NumPy views too (they hold no buffer export):
    # views are valid only while the owning SharedDrawBuffers lives.
    try:
        shm.close()
    except BufferError:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


class SharedDrawBuffers:
    """One run's shared draw segment plus the typed views into it.

    **Ownership**: the parent process *creates* the segment and is the
    only one that *unlinks* it -- automatically, via a
    ``weakref.finalize`` that fires when the owning instance (kept
    alive by every ``SampleResult.draw_buffers`` built on it) is
    garbage collected.  Workers :meth:`attach` and must only
    :meth:`close` their mapping.  Unlinking while workers still hold
    mappings is safe on POSIX: the segment disappears when the last
    mapping closes.
    """

    def __init__(self, plan: BufferPlan, shm, owner: bool):
        self.plan = plan
        self._shm = shm
        self.owner = owner
        if owner:
            self._finalizer = weakref.finalize(self, _release_segment, shm)

    @classmethod
    def create(
        cls, plan_state, collect, n_chains, num_samples
    ) -> "SharedDrawBuffers":
        """Parent side: lay out and allocate the segment."""
        slots, ragged, total = _plan_slots(
            plan_state, collect, n_chains, num_samples
        )
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        plan = BufferPlan(shm.name, max(total, 1), slots, ragged, tuple(collect))
        return cls(plan, shm, owner=True)

    @classmethod
    def attach(cls, plan: BufferPlan) -> "SharedDrawBuffers":
        """Worker side: map an existing segment (untracked)."""
        return cls(plan, _attach_segment(plan.segment_name), owner=False)

    def arrays(self, chain: int) -> dict:
        """Draw storage for one chain, in ``collect`` order: dense
        parameters as zero-copy views of the segment, ragged ones as
        fresh list fallbacks."""
        by_name = {
            s.name: s for s in self.plan.slots if s.chain == chain
        }
        out: dict = {}
        for name in self.plan.collect:
            slot = by_name.get(name)
            if slot is None:
                out[name] = []
            else:
                out[name] = np.ndarray(
                    slot.shape,
                    dtype=np.dtype(slot.dtype),
                    buffer=self._shm.buf,
                    offset=slot.offset,
                )
        return out

    def close(self) -> None:
        """Drop this process's mapping (worker side; never unlinks).
        Views from :meth:`arrays` are invalid afterwards."""
        try:
            self._shm.close()
        except BufferError:
            pass

    def release(self) -> None:
        """Owner side: close + unlink now instead of at GC."""
        if self.owner:
            self._finalizer()


# ----------------------------------------------------------------------
# The warm worker pool.
# ----------------------------------------------------------------------


@dataclass
class _ChainTask:
    """One chain assignment shipped to a pool worker."""

    run_id: int
    chain: int
    rng: Rng
    kwargs: dict
    plan: BufferPlan | None
    chunk_size: int
    #: Correlation id of the request this chain serves; stamped on
    #: every worker-side event log entry so one grep reconstructs the
    #: request across processes.
    rid: str | None = None
    #: What the worker captures for the parent: the ``(trace, level)``
    #: of :meth:`~repro.telemetry.obslog.WorkerCapture.wanted`.
    capture: tuple = (False, None)


def _run_task(sampler, task: _ChainTask, result_q, stop_event) -> None:
    """Run one chain and post its messages.  Each is ``(kind, run_id,
    chain, body, telemetry)``: a ``"chunk"`` carries ``(start, stop,
    info, phase)``, ``"done"`` the chain's result and ``"error"`` a
    description; ``telemetry`` is the worker capture's drain since the
    previous message."""
    capture = WorkerCapture(*task.capture)
    log = get_event_log()
    buffers = storage = None
    try:
        try:
            if task.plan is not None:
                buffers = SharedDrawBuffers.attach(task.plan)
                storage = buffers.arrays(task.chain)
            it = sampler.sample_iter(
                seed=task.rng,
                storage=storage,
                chunk_size=task.chunk_size,
                stop=stop_event.is_set,
                **task.kwargs,
            )
            for chunk in it:
                log.log(
                    "chunk.emitted", rid=task.rid,
                    chain=task.chain, start=chunk[0], stop=chunk[1],
                )
                result_q.put(
                    ("chunk", task.run_id, task.chain, chunk, capture.drain())
                )
            kind, body = "done", it.result
            # Dense draws already live in the shared segment; strip the
            # worker-side views so only metadata (stats, ragged lists,
            # timings) crosses the pipe.
            body.samples = {
                name: (None if isinstance(vals, np.ndarray) else vals)
                for name, vals in body.samples.items()
            }
            body.draw_buffers = None
            log.log(
                "chain.finished", rid=task.rid, chain=task.chain,
                kept=body.n_kept, sweeps=body.sweeps_run,
                stopped_early=body.stopped_early,
            )
        except Exception as e:  # ship, don't die: the pool is reusable
            kind, body = "error", f"{type(e).__name__}: {e}"
            log.log(
                "chain.error", level="error", rid=task.rid,
                chain=task.chain, error=body,
            )
        result_q.put((kind, task.run_id, task.chain, body, capture.drain()))
    finally:
        capture.close()
        del storage
        if buffers is not None:
            buffers.close()


#: Seconds an idle pool worker waits for a task before it checks that
#: the process owning its pool is still alive.
ORPHAN_POLL_S = 1.0


def _pool_worker_main(
    spec: SamplerSpec, task_q, result_q, stop_event, owner_pid: int
) -> None:
    """Long-lived pool worker: build the sampler once, then serve chain
    tasks until a ``None`` sentinel arrives or the process that owns
    the pool (``owner_pid``) dies -- a worker whose owner was killed
    exits within :data:`ORPHAN_POLL_S` of going idle instead of
    holding the owner's pipes and sockets open."""
    from repro.telemetry.trace import disable_tracing

    disable_tracing()  # a fork inherits the parent's tracer state
    get_event_log().reset_after_fork()  # ... and the parent's log sink
    sampler = spec.build()
    while True:
        try:
            task = task_q.get(timeout=ORPHAN_POLL_S)
        except _queue.Empty:
            if os.getppid() != owner_pid:
                result_q.cancel_join_thread()  # no reader is left
                return
            continue
        if task is None:
            break
        _run_task(sampler, task, result_q, stop_event)


@dataclass
class PoolWorker:
    process: object
    task_q: object


class WarmPool:
    """A persistent set of worker processes for one sampler fingerprint.

    Workers compile once at spawn and then serve repeated multi-chain
    requests; each worker has its own task queue (so ``n_workers``
    genuinely bounds concurrency -- a shared queue would let every
    spawned worker run at once) and all post to one results queue.
    ``stop_event`` is the broadcast early-stop/interrupt flag workers
    poll between sweeps.
    """

    def __init__(self, spec: SamplerSpec):
        import multiprocessing as mp

        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # platforms without fork
            self._ctx = mp.get_context()
        self.spec = spec
        self.stop_event = self._ctx.Event()
        self.result_q = self._ctx.Queue()
        self.workers: list[PoolWorker] = []
        self.run_lock = threading.Lock()
        self._run_counter = 0
        # In-flight accounting: eviction from the LRU registry must not
        # tear down a pool another thread is actively running chains on
        # (two model shapes alternating under the registry cap would
        # otherwise kill a run mid-flight).  ``checkout``/``checkin``
        # bracket a run; ``retire`` defers the shutdown until the last
        # checkout drains.
        self._state_lock = threading.Lock()
        self._active = 0
        self._retired = False

    def checkout(self) -> None:
        """Mark a run in flight; the pool will not be torn down (even
        if evicted from the registry) until the matching :meth:`checkin`."""
        with self._state_lock:
            self._active += 1

    def checkin(self) -> None:
        """Release one in-flight run, completing a deferred retirement
        once the last one drains."""
        with self._state_lock:
            self._active = max(0, self._active - 1)
            tear_down = self._retired and self._active == 0
        if tear_down:
            self.shutdown()

    def retire(self) -> None:
        """Evicted from the registry: shut down now if idle, otherwise
        after the in-flight runs drain."""
        with self._state_lock:
            self._retired = True
            tear_down = self._active == 0
        if tear_down:
            self.shutdown()

    def _spawn_one(self) -> PoolWorker:
        task_q = self._ctx.Queue()
        p = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                self.spec, task_q, self.result_q, self.stop_event,
                os.getpid(),
            ),
            daemon=True,
        )
        p.start()
        get_event_log().log("worker.spawned", worker_pid=p.pid)
        return PoolWorker(p, task_q)

    def ensure_workers(self, n: int) -> None:
        """Grow to at least ``n`` live workers, reviving any that died."""
        for i, w in enumerate(self.workers):
            if not w.process.is_alive():
                old_pid = w.process.pid
                self.workers[i] = self._spawn_one()
                get_event_log().log(
                    "worker.revived", level="warning",
                    old_pid=old_pid, worker_pid=self.workers[i].process.pid,
                )
        while len(self.workers) < n:
            self.workers.append(self._spawn_one())

    def new_run_id(self) -> int:
        self._run_counter += 1
        return self._run_counter

    def pids(self) -> list[int]:
        return [w.process.pid for w in self.workers]

    def shutdown(self) -> None:
        for w in self.workers:
            try:
                w.task_q.put(None)
            except Exception:
                pass
        for w in self.workers:
            w.process.join(timeout=5)
            if w.process.is_alive():
                w.process.terminate()
        self.workers = []


_POOL_CAPACITY = 4
_pools: OrderedDict[str, WarmPool] = OrderedDict()
_pools_lock = threading.Lock()


def get_worker_pool(
    spec: SamplerSpec, n_workers: int, checkout: bool = False
) -> WarmPool:
    """The warm pool for this spec's compile-cache fingerprint,
    spawning or growing it as needed (LRU-capped at ``_POOL_CAPACITY``
    distinct fingerprints).

    With ``checkout=True`` the pool is returned already checked out
    (the caller must :meth:`~WarmPool.checkin` when its run drains);
    evicted pools are *retired* rather than shut down, so an eviction
    racing an in-flight run on another thread defers the teardown until
    that run completes.
    """
    key = spec.cache_key()
    evicted = []
    with _pools_lock:
        pool = _pools.get(key)
        if pool is None:
            pool = _pools[key] = WarmPool(spec)
        _pools.move_to_end(key)
        if checkout:
            pool.checkout()
        while len(_pools) > _POOL_CAPACITY:
            _, old = _pools.popitem(last=False)
            evicted.append(old)
    for old in evicted:
        old.retire()
    pool.ensure_workers(n_workers)
    return pool


def shutdown_worker_pools() -> None:
    """Tear down every warm pool (atexit hook; also handy in tests)."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_worker_pools)


# ----------------------------------------------------------------------
# The chain stream.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChainChunk:
    """Kept draws ``start:stop`` of one chain just became readable.

    ``samples`` is the chain's *full* draw storage (zero-copy views of
    the shared segment on the process executor); index rows
    ``start:stop`` for the new draws.  ``info`` carries the per-update
    stats digest for the sweeps behind this chunk
    (:func:`repro.telemetry.stats.chunk_stat_info`) when the run
    collects stats, so consumers can report acceptance / divergences
    live instead of only from the final result.  ``phase`` is the
    warmup progress ``{"phase": "warmup" | "sampling", "sweep",
    "warmup", "step_size"}`` of a run with warmup (``None`` without);
    warmup chunks are zero-width (``start == stop``).
    """

    chain: int
    start: int
    stop: int
    samples: dict
    info: dict | None = None
    phase: dict | None = None


class ChainStream:
    """Streaming multi-chain execution: iterate :class:`ChainChunk`
    items as workers post them; ``results`` holds the per-chain
    :class:`~repro.core.sampler.SampleResult` list (in chain order)
    once the iterator is exhausted.

    ``divergence`` is the run's one divergence count: the stream feeds
    it every chunk digest, logs a ``divergence.threshold`` warning event
    when its rate first crosses the threshold, and hands it to the
    monitor; the progress line and the request's record read it too.

    The stream drives the unified monitor protocol documented on
    :class:`~repro.telemetry.monitors.ConvergenceMonitor` --
    ``observe_chunk`` per chunk (and once for a resumed chain's prior
    draws), ``chain_done`` per finished chain, ``release`` when the
    stream ends -- identically for every executor.  With
    ``early_stop_rhat`` set, the stream polls ``monitor.converged``
    after each chunk and broadcasts the stop flag once it holds; a
    ``KeyboardInterrupt`` while iterating (or :meth:`request_stop`)
    does the same, so partial results are always finalized.
    """

    def __init__(
        self,
        sampler,
        n_chains: int,
        kwargs: dict,
        rngs,
        executor: str,
        n_workers: int,
        monitor,
        early_stop_rhat: float | None,
        chunk_size: int,
        resume=None,
    ):
        self._sampler = sampler
        self.n_chains = n_chains
        self._kwargs = kwargs
        self._rngs = rngs
        self.executor = executor
        self._workers = n_workers
        self.monitor = monitor
        self.divergence = DivergenceTally()
        if monitor is not None:
            monitor.divergence = self.divergence
        self._early_stop = early_stop_rhat
        self._chunk_size = chunk_size
        self._resume = list(resume) if resume is not None else [None] * n_chains
        self.results = [None] * n_chains
        self.interrupted = False
        self.stopped_early = False
        self._stop_requested = False
        self._pool: WarmPool | None = None
        self.buffers: SharedDrawBuffers | None = None
        # Correlation id + event log, captured at construction (i.e. on
        # the request's own thread): worker processes receive the rid
        # explicitly since context vars do not cross them.
        self._obslog = get_event_log()
        self._rid = current_rid()
        self._gen = self._released(
            self._run_sequential() if executor == "sequential"
            else self._run_processes()
        )

    # -- control -----------------------------------------------------------

    def request_stop(self) -> None:
        """Broadcast the stop flag: every chain finalizes at its next
        sweep boundary, keeping the draws taken so far."""
        self._stop_requested = True
        if self._pool is not None:
            self._pool.stop_event.set()

    def _stop_flag(self) -> bool:
        return self._stop_requested

    # -- iteration ---------------------------------------------------------

    def __iter__(self):
        return self

    def __next__(self) -> ChainChunk:
        return next(self._gen)

    def drain(self) -> list:
        """Run to completion (KeyboardInterrupt finalizes partials) and
        return the per-chain results."""
        while True:
            try:
                next(self._gen)
            except StopIteration:
                return self.results
            except KeyboardInterrupt:
                self.interrupted = True
                self.request_stop()

    # -- shared plumbing ---------------------------------------------------

    def _released(self, chunks):
        """``chunks``, then the monitor lets go of the draw storage
        however the stream ends (exhausted, raised or closed): process
        storage is a view of a segment that dies with the results."""
        try:
            yield from chunks
        finally:
            if self.monitor is not None:
                self.monitor.release()

    def _ingest(self, chunk: ChainChunk) -> None:
        if self.divergence.observe(chunk.info):
            self._obslog.log(
                "divergence.threshold", level="warning", rid=self._rid,
                rate=round(self.divergence.rate, 4),
                threshold=DEFAULT_DIVERGENCE_WARN,
            )
        if self.monitor is not None:
            self.monitor.observe_chunk(chunk)
            if (
                self._early_stop is not None
                and not self._stop_requested
                and self.monitor.converged(self._early_stop)
            ):
                self.stopped_early = True
                self.request_stop()

    def _finish_chain(self, chain: int, result) -> None:
        if self.interrupted:
            result.interrupted = True
        self.results[chain] = result
        if self.monitor is not None:
            self.monitor.chain_done()

    def _chain_kwargs(self, chain: int) -> dict:
        """This chain's ``sample_iter`` kwargs: the shared run kwargs
        plus, for a resumed chain, its checkpointed state and offsets.
        The checkpointed state is deep-copied so in-place kernel updates
        never corrupt the checkpoint it came from."""
        kw = dict(self._kwargs)
        r = self._resume[chain]
        if r is not None:
            kw["init"] = {k: _copy_state_value(v) for k, v in r.init.items()}
            kw["start_sweep"] = r.start_sweep
            kw["start_kept"] = r.start_kept
            if r.adapt_state is not None:
                kw["adapt_state"] = r.adapt_state
        return kw

    def _apply_resume(self, chain: int, storage: dict) -> None:
        """Splice a resumed chain's prior kept draws into its freshly
        allocated draw storage so the finished result covers the whole
        run, not just the resumed leg; the monitor counts them too."""
        r = self._resume[chain]
        if r is None or not r.draws:
            return
        for name, vals in r.draws.items():
            store = storage.get(name)
            if isinstance(store, np.ndarray):
                n = min(len(vals), r.start_kept, len(store))
                if n:
                    store[:n] = vals[:n]
            elif isinstance(store, list) and not store:
                store.extend(vals)
        if self.monitor is not None:
            self.monitor.observe_chunk(
                ChainChunk(chain, 0, r.start_kept, storage)
            )

    # -- executors ---------------------------------------------------------

    def _run_sequential(self):
        sampler = self._sampler
        collect = self._kwargs.get("collect")
        num_samples = self._kwargs["num_samples"]
        for i, rng in enumerate(self._rngs):
            storage = sampler.allocate_draws(collect, num_samples)
            self._apply_resume(i, storage)
            it = sampler.sample_iter(
                seed=rng,
                storage=storage,
                chunk_size=self._chunk_size,
                stop=self._stop_flag,
                **self._chain_kwargs(i),
            )
            while True:
                try:
                    start, stop, info, phase = next(it)
                except StopIteration:
                    break
                except KeyboardInterrupt:
                    self.interrupted = True
                    self.request_stop()
                    continue
                chunk = ChainChunk(i, start, stop, storage, info, phase)
                if self._obslog.enabled:
                    self._obslog.log(
                        "chunk.emitted", rid=self._rid,
                        chain=i, start=start, stop=stop,
                    )
                self._ingest(chunk)
                yield chunk
            self._finish_chain(i, it.result)

    def _run_processes(self):
        sampler = self._sampler
        collect = self._kwargs.get("collect")
        if collect is None:
            collect = sampler.param_names
        num_samples = self._kwargs["num_samples"]
        capture = WorkerCapture.wanted()
        obslog = self._obslog
        workers = min(self._workers, self.n_chains)
        pool = get_worker_pool(sampler.spec, workers, checkout=True)
        self._pool = pool
        try:
            with pool.run_lock:
                pool.stop_event.clear()
                if self._stop_requested:  # stop arrived before dispatch
                    pool.stop_event.set()
                run_id = pool.new_run_id()
                self.buffers = SharedDrawBuffers.create(
                    sampler.plan.state, collect, self.n_chains, num_samples
                )
                storages = {
                    i: self.buffers.arrays(i) for i in range(self.n_chains)
                }
                for i in range(self.n_chains):
                    self._apply_resume(i, storages[i])
                for i, rng in enumerate(self._rngs):
                    kwargs = self._chain_kwargs(i)
                    kwargs["collect"] = tuple(collect)
                    task = _ChainTask(
                        run_id, i, rng, kwargs, self.buffers.plan,
                        self._chunk_size, rid=self._rid, capture=capture,
                    )
                    pool.workers[i % workers].task_q.put(task)
                pending = set(range(self.n_chains))
                error = None
                while pending:
                    try:
                        msg = pool.result_q.get(timeout=0.5)
                    except _queue.Empty:
                        for i in list(pending):
                            w = pool.workers[i % workers]
                            if not w.process.is_alive():
                                error = RuntimeFailure(
                                    f"worker process for chain {i} died "
                                    f"(pid {w.process.pid})"
                                )
                                obslog.log(
                                    "worker.died", level="error",
                                    rid=self._rid,
                                    worker_pid=w.process.pid, chain=i,
                                )
                                pool.stop_event.set()
                                pending.discard(i)
                        continue
                    except KeyboardInterrupt:
                        self.interrupted = True
                        self.request_stop()
                        continue
                    kind, msg_run, chain, body, telemetry = msg
                    if msg_run != run_id:
                        continue  # stale message from an aborted prior run
                    WorkerCapture.adopt(telemetry)
                    if kind == "chunk":
                        start, stop, info, phase = body
                        chunk = ChainChunk(
                            chain, start, stop, storages[chain], info, phase
                        )
                        try:
                            self._ingest(chunk)
                            yield chunk
                        except GeneratorExit:
                            pool.stop_event.set()
                            raise
                    elif kind == "done":
                        result = body
                        storage = storages[chain]
                        resume = self._resume[chain]
                        rebuilt = {}
                        for name, vals in result.samples.items():
                            if vals is None:
                                arr = storage[name]
                                rebuilt[name] = (
                                    arr[: result.n_kept]
                                    if result.n_kept < num_samples
                                    else arr
                                )
                            else:
                                # Ragged fallback lists hold only the
                                # draws this process took; a resumed
                                # chain's prior draws are prepended so
                                # the result covers the whole run.
                                if (
                                    resume is not None
                                    and resume.draws is not None
                                    and isinstance(vals, list)
                                    and isinstance(
                                        resume.draws.get(name), list
                                    )
                                ):
                                    vals = list(resume.draws[name]) + vals
                                rebuilt[name] = vals
                        result.samples = rebuilt
                        result.draw_buffers = self.buffers
                        self._finish_chain(chain, result)
                        pending.discard(chain)
                    else:  # "error"
                        error = RuntimeFailure(
                            f"chain {chain} failed in worker: {body}"
                        )
                        pool.stop_event.set()
                        pending.discard(chain)
                if error is not None:
                    raise error
        finally:
            pool.checkin()


# ----------------------------------------------------------------------
# Entry points.
# ----------------------------------------------------------------------


def _validate(n_chains, executor, n_workers):
    if n_chains < 1:
        raise RuntimeFailure("need at least one chain")
    if executor not in EXECUTORS:
        raise RuntimeFailure(
            f"unknown executor {executor!r}; use one of {', '.join(EXECUTORS)}"
        )
    workers = (
        n_workers if n_workers is not None else default_workers(n_chains)
    )
    if workers < 1:
        raise RuntimeFailure(f"n_workers must be positive, got {workers}")
    return workers


def stream_chains(
    sampler,
    n_chains: int,
    num_samples: int,
    burn_in: int = 0,
    thin: int = 1,
    seed: int = 0,
    collect: tuple[str, ...] | None = None,
    executor: str = "sequential",
    n_workers: int | None = None,
    collect_stats: bool = False,
    monitor=None,
    profile: bool = False,
    chunk_size: int | None = None,
    early_stop_rhat: float | None = None,
    resume=None,
    warmup: int = 0,
    target_accept: float = 0.8,
) -> ChainStream:
    """Run ``n_chains`` independent chains, streaming draw chunks as
    they land: a :class:`ChainStream` whose ``results`` (or
    :meth:`~ChainStream.drain`) give one
    :class:`~repro.core.sampler.SampleResult` per chain.

    Chain RNG streams fork deterministically from ``seed``, so the
    per-chain draws are bitwise identical whichever ``executor`` runs
    them: ``"sequential"`` (one after another in this process) or
    ``"processes"`` (the warm worker pool, draws in shared memory; one
    chain always runs sequentially).  ``n_workers`` defaults to
    ``min(n_chains, usable CPUs)``; ``chunk_size`` to ``DEFAULT_CHUNK``
    kept draws per chunk.  The run keywords (``burn_in`` ...
    ``target_accept``) are those of
    :meth:`~repro.core.sampler.CompiledSampler.sample`.

    ``monitor`` (a :class:`~repro.telemetry.monitors.ConvergenceMonitor`)
    is fed as chunks land.  ``early_stop_rhat`` stops every chain once
    the worst split R-hat of the chains' common prefix is at or below
    it (creating a monitor when none is given; one chain has no R-hat,
    so it never stops early); stopped chains keep a bitwise prefix of
    their draws.

    ``resume`` optionally supplies one :class:`ChainResume` (or
    ``None``) per chain; resumed chains continue bit-for-bit from their
    checkpointed state/RNG position instead of starting fresh, and
    their prior draws are spliced into the new run's storage.
    """
    workers = _validate(n_chains, executor, n_workers)
    if resume is not None and len(resume) != n_chains:
        raise RuntimeFailure(
            f"resume must supply one entry per chain "
            f"({len(resume)} != {n_chains})"
        )
    if executor != "sequential" and n_chains == 1:
        executor = "sequential"
    if executor != "sequential" and sampler.spec is None:
        raise RuntimeFailure(
            "this sampler has no SamplerSpec and cannot be rehydrated in "
            "workers; build it with compile_model, or use "
            "executor='sequential'"
        )
    if early_stop_rhat is not None and monitor is None:
        from repro.telemetry.monitors import ConvergenceMonitor

        monitor = ConvergenceMonitor(
            param_names=tuple(collect) if collect else sampler.param_names,
            n_chains=n_chains,
        )
    rngs = Rng(seed).fork(n_chains)
    if resume is not None:
        rngs = [
            Rng.from_spec(r.rng_spec) if r is not None else rngs[i]
            for i, r in enumerate(resume)
        ]
    kwargs = dict(
        num_samples=num_samples, burn_in=burn_in, thin=thin, collect=collect,
        collect_stats=collect_stats, profile=profile,
        warmup=warmup, target_accept=target_accept,
    )
    if chunk_size is None or chunk_size <= 0:
        chunk_size = max(1, min(DEFAULT_CHUNK, num_samples))
    return ChainStream(
        sampler, n_chains, kwargs, rngs, executor, workers,
        monitor, early_stop_rhat, chunk_size, resume=resume,
    )
