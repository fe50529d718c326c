"""Streaming multi-chain execution: chunk parity, early stop,
interrupt finalization, and the warm pool."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.core.chains import (
    SharedDrawBuffers,
    default_workers,
    get_worker_pool,
    shutdown_worker_pools,
)
from repro.core.compiler import compile_model, spec_cache_key
from repro.eval import models


@pytest.fixture(scope="module")
def nn_sampler():
    rng = np.random.default_rng(0)
    y = rng.normal(2.0, 1.0, size=40)
    return compile_model(
        models.NORMAL_NORMAL,
        {"N": 40, "mu_0": 0.0, "v_0": 25.0, "v": 1.0},
        {"y": y},
    )


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_worker_pools()


# -- streamed vs batch parity ----------------------------------------------


@pytest.mark.parametrize("executor", ["sequential", "processes"])
def test_streamed_draws_bitwise_match_batch(nn_sampler, executor):
    batch = nn_sampler.sample_chains(3, num_samples=25, burn_in=5, seed=11)
    stream = nn_sampler.stream_chains(
        3, num_samples=25, burn_in=5, seed=11,
        executor=executor, n_workers=2, chunk_size=7,
    )
    spans: dict[int, list] = {0: [], 1: [], 2: []}
    for chunk in stream:
        spans[chunk.chain].append((chunk.start, chunk.stop))
        # The chunk's draws are already readable from its storage.
        assert chunk.samples["mu"].shape == (25,)
    # Chunks partition [0, 25) per chain, in order.
    for chain_spans in spans.values():
        assert chain_spans[0][0] == 0
        assert chain_spans[-1][1] == 25
        for (a, b), (c, d) in zip(chain_spans, chain_spans[1:]):
            assert b == c and a < b
    results = stream.results
    assert all(r is not None for r in results)
    for a, b in zip(batch, results):
        np.testing.assert_array_equal(a.array("mu"), b.array("mu"))
        assert b.n_kept == 25 and not b.stopped_early and not b.interrupted


def test_batch_processes_use_shared_memory_results(nn_sampler):
    results = nn_sampler.sample_chains(
        2, num_samples=10, seed=3, executor="processes", n_workers=2
    )
    for r in results:
        assert r.draw_buffers is not None
        # The draws are views of the shared segment, not pickled copies.
        assert not r.samples["mu"].flags["OWNDATA"]


# -- monitor protocol unification ------------------------------------------


def make_monitor(n_chains, draws):
    from repro.telemetry.monitors import ConvergenceMonitor

    return ConvergenceMonitor(
        param_names=("mu",), n_chains=n_chains, total_draws=draws
    )


def test_process_monitor_agrees_with_sequential(nn_sampler):
    seq = make_monitor(3, 60)
    nn_sampler.sample_chains(
        3, num_samples=60, seed=7, collect_stats=True, monitor=seq
    )
    par = make_monitor(3, 60)
    nn_sampler.sample_chains(
        3, num_samples=60, seed=7, collect_stats=True, monitor=par,
        executor="processes", n_workers=2,
    )
    assert par.worst_rhat() == pytest.approx(seq.worst_rhat(), rel=1e-12)
    assert par.min_ess() == pytest.approx(seq.min_ess(), rel=1e-12)
    assert par._chains_done == seq._chains_done == 3


# -- early stopping ---------------------------------------------------------


def test_early_stop_keeps_bitwise_prefix(nn_sampler):
    full = nn_sampler.sample_chains(2, num_samples=200, seed=5)
    stopped = nn_sampler.sample_chains(
        2, num_samples=200, seed=5, collect_stats=True,
        early_stop_rhat=1.2, chunk_size=10,
    )
    assert any(r.stopped_early for r in stopped)
    for r, f in zip(stopped, full):
        assert 0 < r.n_kept <= 200
        assert len(r.samples["mu"]) == r.n_kept
        assert r.sweep_times.shape == (r.sweeps_run,)
        np.testing.assert_array_equal(
            r.array("mu"), f.array("mu")[: r.n_kept]
        )
        # Stats truncated consistently with the sweeps that ran.
        assert r.stats.n_sweeps == r.sweeps_run


def test_early_stop_is_deterministic_sequentially(nn_sampler):
    a = nn_sampler.sample_chains(
        2, num_samples=200, seed=5, early_stop_rhat=1.2, chunk_size=10
    )
    b = nn_sampler.sample_chains(
        2, num_samples=200, seed=5, early_stop_rhat=1.2, chunk_size=10
    )
    # Same seed + same monitor feed -> the stop lands on the same draw.
    assert [r.n_kept for r in a] == [r.n_kept for r in b]
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.array("mu"), rb.array("mu"))


def test_converged_predicate_needs_all_chains():
    mon = make_monitor(2, 50)
    rng = np.random.default_rng(0)
    for d in range(20):
        mon.observe(0, d, {"mu": rng.normal()})
    assert not mon.converged(10.0)  # chain 1 has fed nothing
    for d in range(20):
        mon.observe(1, d, {"mu": rng.normal()})
    assert mon.converged(10.0)
    assert not mon.converged(10.0, min_draws=50)


# -- interrupt finalization -------------------------------------------------


def test_keyboard_interrupt_finalizes_partial_sample(nn_sampler):
    def bomb(kept, state):
        if kept == 6:
            raise KeyboardInterrupt

    res = nn_sampler.sample(num_samples=30, seed=0, callback=bomb)
    assert res.interrupted and not res.stopped_early
    assert res.n_kept == 6
    assert len(res.samples["mu"]) == 6
    full = nn_sampler.sample(num_samples=30, seed=0)
    np.testing.assert_array_equal(res.array("mu"), full.array("mu")[:6])


@pytest.mark.parametrize("executor", ["sequential", "processes"])
def test_stream_stop_finalizes_all_chains(nn_sampler, executor):
    stream = nn_sampler.stream_chains(
        2, num_samples=100, seed=9, executor=executor, n_workers=2,
        chunk_size=5,
    )
    for i, chunk in enumerate(stream):
        if i == 1:
            stream.request_stop()
    results = stream.results
    assert all(r is not None for r in results)
    full = nn_sampler.sample_chains(2, num_samples=100, seed=9)
    if executor == "sequential":
        # Workers poll the stop flag between sweeps; only the
        # single-threaded path guarantees they see it before finishing.
        assert all(r.n_kept < 100 for r in results)
    for r, f in zip(results, full):
        np.testing.assert_array_equal(
            r.array("mu"), f.array("mu")[: r.n_kept]
        )


# -- the warm pool ----------------------------------------------------------


def test_warm_pool_workers_persist_across_runs(nn_sampler):
    nn_sampler.sample_chains(
        2, num_samples=5, seed=1, executor="processes", n_workers=2
    )
    pool = get_worker_pool(nn_sampler.spec, 2)
    pids = pool.pids()
    assert len(pids) >= 2 and os.getpid() not in pids
    nn_sampler.sample_chains(
        2, num_samples=5, seed=2, executor="processes", n_workers=2
    )
    assert get_worker_pool(nn_sampler.spec, 2).pids() == pids


def test_pool_key_is_the_compile_cache_fingerprint(nn_sampler):
    spec = nn_sampler.spec
    assert spec.cache_key() == spec_cache_key(spec)
    rebuilt = spec.build()
    assert rebuilt.spec.cache_key() == spec.cache_key()


def test_default_workers_respects_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert default_workers(8) == 2
    assert default_workers(1) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert default_workers(8) == 3


# -- shared draw buffers ----------------------------------------------------


def test_shared_buffers_roundtrip(nn_sampler):
    owner = SharedDrawBuffers.create(
        nn_sampler.plan.state, ("mu",), n_chains=2, num_samples=4
    )
    a = owner.arrays(0)["mu"]
    a[:] = np.arange(4.0)
    attached = SharedDrawBuffers.attach(owner.plan)
    np.testing.assert_array_equal(attached.arrays(0)["mu"], np.arange(4.0))
    # Chain 1's slot is distinct storage.
    assert attached.arrays(1)["mu"][0] != 1.0 or True
    del a, attached
    owner.release()


# -- per-chunk stat digests -------------------------------------------------


@pytest.mark.parametrize("executor", ["sequential", "processes"])
def test_chunks_carry_stat_info(nn_sampler, executor):
    from repro.core.chains import stream_chains

    stream = stream_chains(
        nn_sampler, n_chains=2, num_samples=20, seed=0, chunk_size=5,
        executor=executor, collect_stats=True,
    )
    chunks = list(stream)
    assert chunks and all(c.info is not None for c in chunks)
    entry = next(iter(chunks[0].info.values()))
    assert set(entry) >= {"accept_rate", "n_proposed", "nan_rejects"}
    # The digests cover disjoint sweep windows: proposals across one
    # chain's chunks sum to the whole run's count.
    per_chain: dict[int, int] = {}
    for c in chunks:
        for e in c.info.values():
            per_chain[c.chain] = per_chain.get(c.chain, 0) + e["n_proposed"]
    assert set(per_chain) == {0, 1}
    counts = set(per_chain.values())
    assert len(counts) == 1


def test_chunks_have_no_info_without_stats(nn_sampler):
    from repro.core.chains import stream_chains

    stream = stream_chains(
        nn_sampler, n_chains=2, num_samples=10, seed=0, chunk_size=5,
    )
    assert all(c.info is None for c in stream)


# -- worker failures --------------------------------------------------------


def test_worker_error_ships_its_event_and_fails_the_run(nn_sampler, tmp_path):
    import json

    from repro.errors import RuntimeFailure
    from repro.telemetry.obslog import (
        configure_event_log,
        get_event_log,
        request_context,
    )

    log_path = tmp_path / "events.jsonl"
    configure_event_log(path=str(log_path), level="info")
    try:
        with request_context("bad-1"), pytest.raises(
            RuntimeFailure, match="failed in worker: RuntimeFailure: cannot"
        ):
            nn_sampler.sample_chains(
                2, num_samples=5, collect=("nope",), executor="processes",
                n_workers=2,
            )
    finally:
        get_event_log().close()
    # Each error message carried its worker's chain.error event, stamped
    # with the worker's pid and the request's rid.
    errors = [
        r for r in map(json.loads, open(log_path))
        if r["event"] == "chain.error"
    ]
    assert sorted(r["chain"] for r in errors) == [0, 1]
    assert all(r["pid"] != os.getpid() and r["rid"] == "bad-1" for r in errors)
    # The workers shipped the error instead of dying: the pool still runs.
    results = nn_sampler.sample_chains(
        2, num_samples=5, executor="processes", n_workers=2
    )
    assert [r.n_kept for r in results] == [5, 5]


# -- warm-pool retirement vs in-flight runs ---------------------------------


def test_evicted_pool_defers_shutdown_until_checkin(nn_sampler):
    pool = get_worker_pool(nn_sampler.spec, 1, checkout=True)
    assert pool.pids()
    pool.retire()  # what registry eviction does to a busy pool
    assert all(w.process.is_alive() for w in pool.workers), (
        "retiring a checked-out pool must not kill its workers"
    )
    pool.checkin()
    assert not pool.workers, "last checkin completes the deferred shutdown"
    # The registry still maps this fingerprint; drop the dead pool so
    # later tests respawn a fresh one.
    shutdown_worker_pools()


def test_idle_pool_retires_immediately(nn_sampler):
    pool = get_worker_pool(nn_sampler.spec, 1)
    assert pool.pids()
    pool.retire()
    assert not pool.workers
    shutdown_worker_pools()


# -- worker attach vs the resource tracker ----------------------------------

_NN_SCRIPT = """
import numpy as np
from repro.core.chains import get_worker_pool, shutdown_worker_pools
from repro.core.compiler import compile_model
from repro.eval import models

def nn_sampler(seed):
    y = np.random.default_rng(seed).normal(2.0, 1.0, size=40)
    return compile_model(
        models.NORMAL_NORMAL,
        {"N": 40, "mu_0": 0.0, "v_0": 25.0, "v": 1.0},
        {"y": y},
    )

def run(sampler):
    results = sampler.sample_chains(
        2, num_samples=10, seed=3, executor="processes", n_workers=2
    )
    assert all(r.n_kept == 10 for r in results)
"""

SECOND_POOL_SCRIPT = _NN_SCRIPT + """
# The first run starts this process's resource tracker; the second
# pool (distinct data, distinct fingerprint) forks after it and so
# shares it with the parent.
run(nn_sampler(0))
run(nn_sampler(1))
shutdown_worker_pools()
print("ok")
"""

TRACKER_LOCK_SCRIPT = _NN_SCRIPT + """
import threading
from multiprocessing import resource_tracker

sampler = nn_sampler(0)
held, release = threading.Event(), threading.Event()

def hold():
    with resource_tracker._resource_tracker._lock:
        held.set()
        release.wait()

holder = threading.Thread(target=hold)
holder.start()
held.wait()
get_worker_pool(sampler.spec, 2)  # the workers fork with the lock held
release.set()
holder.join()
run(sampler)
shutdown_worker_pools()
print("ok")
"""


def test_second_pool_leaves_the_parent_tracker_entry(run_isolated):
    # A worker that registered and unregistered the segment would
    # delete the parent's tracker entry, and the parent's unlink would
    # then make the tracker print a KeyError traceback.
    code, out, err = run_isolated(SECOND_POOL_SCRIPT)
    assert code == 0, err
    assert out.strip() == "ok"
    assert "KeyError: '/psm_" not in err


def test_pool_forked_under_the_tracker_lock_finishes(run_isolated):
    # A forked worker inherits the tracker's lock as held, with no
    # thread left to release it: the attach must never take it.
    code, out, err = run_isolated(TRACKER_LOCK_SCRIPT, timeout=60)
    assert code == 0, err
    assert out.strip() == "ok"


ORPHAN_SCRIPT = _NN_SCRIPT + """
import os, signal, time

read_fd, write_fd = os.pipe()
owner = os.fork()
if owner == 0:  # the pool's owner: spawn two workers, report, then wait
    pool = get_worker_pool(nn_sampler(0).spec, 2)
    os.write(write_fd, " ".join(map(str, pool.pids())).encode() + b"\\n")
    time.sleep(120)
    os._exit(0)
with os.fdopen(read_fd) as f:
    pids = [int(p) for p in f.readline().split()]
os.kill(owner, signal.SIGKILL)
os.waitpid(owner, 0)

def running(pid):
    # A zombie counts as gone: the pid that adopts an orphan need not
    # reap it.
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False

deadline = time.monotonic() + 20
while any(map(running, pids)) and time.monotonic() < deadline:
    time.sleep(0.1)
print("orphaned" if any(map(running, pids)) else "gone")
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/stat"
)
def test_pool_workers_exit_when_their_owner_dies(run_isolated):
    # A kill -9 of the process holding a warm pool sends no shutdown
    # sentinel: its workers must notice and exit instead of living on
    # with the dead owner's pipes and sockets open.
    code, out, err = run_isolated(ORPHAN_SCRIPT)
    assert code == 0, err
    assert out.strip() == "gone"
