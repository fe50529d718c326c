"""Adaptive warmup end to end: determinism, checkpointing, executors.

The contract under test: warmup adaptation (dual-averaging step size +
windowed mass matrix) is bitwise deterministic across every executor
and across mid-warmup checkpoint/resume, and a run with ``warmup=0``
is byte-for-byte the pre-adaptation fixed-step sampler.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compiler import compile_model
from repro.eval import models
from repro.runtime.rng import Rng

WARMUP = 120
SAMPLES = 40


def _nn_inputs():
    rng = np.random.default_rng(0)
    y = rng.normal(2.0, 1.0, size=40)
    return {"N": 40, "mu_0": 0.0, "v_0": 25.0, "v": 1.0}, {"y": y}


@pytest.fixture(scope="module")
def nuts_sampler():
    hypers, data = _nn_inputs()
    return compile_model(
        models.NORMAL_NORMAL, hypers, data, schedule="NUTS mu"
    )


@pytest.fixture(scope="module")
def hmc_sampler():
    hypers, data = _nn_inputs()
    return compile_model(models.NORMAL_NORMAL, hypers, data, schedule="HMC mu")


# ----------------------------------------------------------------------
# Adaptation works and lands near the target.
# ----------------------------------------------------------------------


def test_adapted_nuts_tracks_target_acceptance(nuts_sampler):
    result = nuts_sampler.sample(
        num_samples=100, seed=3, warmup=300, collect_stats=True
    )
    (label,) = result.stats.update_labels
    accept = result.stats[label]["accept_stat"][result.stats.kept_slice]
    assert 0.6 <= float(np.mean(accept)) <= 1.0
    # Posterior recovered: mu ~ N(~2, small).
    assert abs(float(np.mean(result.array("mu"))) - 2.0) < 0.5
    # The adaptation state made it out of the run.
    st = result.adapt_state[label]
    assert st["finalized"] and st["step_size"] > 0
    assert st["window_index"] == st["n_windows"] > 0


def test_hmc_emits_accept_stat_consistent_with_log_alpha(hmc_sampler):
    result = hmc_sampler.sample(
        num_samples=30, seed=5, warmup=80, collect_stats=True
    )
    (label,) = result.stats.update_labels
    cols = result.stats[label]
    log_alpha = cols["log_alpha"]
    accept = cols["accept_stat"]
    finite = np.isfinite(log_alpha)
    np.testing.assert_allclose(
        accept[finite],
        np.minimum(1.0, np.exp(np.minimum(0.0, log_alpha[finite]))),
        rtol=1e-12,
    )
    assert np.all(accept[~finite] == 0.0)


# ----------------------------------------------------------------------
# Fixed-step identity: warmup=0 is exactly the old sampler.
# ----------------------------------------------------------------------


def test_warmup_zero_is_bitwise_identical_to_default(nuts_sampler):
    plain = nuts_sampler.sample(num_samples=SAMPLES, seed=9)
    zero = nuts_sampler.sample(num_samples=SAMPLES, seed=9, warmup=0)
    np.testing.assert_array_equal(plain.array("mu"), zero.array("mu"))


def test_warmup_rejects_negative(nuts_sampler):
    from repro.errors import RuntimeFailure

    with pytest.raises(RuntimeFailure, match="warmup"):
        nuts_sampler.sample(num_samples=4, seed=0, warmup=-1)


# ----------------------------------------------------------------------
# Executor parity + warm pool reuse.
# ----------------------------------------------------------------------


def test_adapted_chains_bitwise_across_executors(nuts_sampler):
    kwargs = dict(num_samples=SAMPLES, seed=11, warmup=WARMUP)
    seq = nuts_sampler.sample_chains(3, **kwargs)
    proc = nuts_sampler.sample_chains(
        3, executor="processes", n_workers=2, **kwargs
    )
    # Warm pool reuse: a second process-executor run lands on the
    # already-forked workers and must reproduce the same draws.
    proc2 = nuts_sampler.sample_chains(
        3, executor="processes", n_workers=2, **kwargs
    )
    for other in (proc, proc2):
        for a, b in zip(seq, other):
            np.testing.assert_array_equal(a.array("mu"), b.array("mu"))
    for a, b in zip(seq, proc):
        assert a.adapt_state.keys() == b.adapt_state.keys()
        for label in a.adapt_state:
            assert (
                a.adapt_state[label]["step_size"]
                == b.adapt_state[label]["step_size"]
            )


# ----------------------------------------------------------------------
# Mid-warmup checkpoint / resume.
# ----------------------------------------------------------------------


def test_mid_warmup_stop_resume_is_bitwise(nuts_sampler):
    chunk = 10
    full = nuts_sampler.sample_iter(
        SAMPLES, seed=21, warmup=WARMUP, chunk_size=chunk
    ).drain()

    run = nuts_sampler.sample_iter(
        SAMPLES, seed=21, warmup=WARMUP, chunk_size=chunk
    )
    for _ in run:  # first chunk boundary falls inside warmup
        run.request_stop()
        break
    part = run.drain()
    assert part.n_kept == 0, "the stop should land mid-warmup"
    assert part.sweeps_run < WARMUP
    assert part.adapt_state is not None

    resumed = nuts_sampler.sample_iter(
        SAMPLES,
        seed=Rng.from_spec(part.rng_state),
        warmup=WARMUP,
        chunk_size=chunk,
        init=part.final_state,
        start_sweep=part.sweeps_run,
        start_kept=part.n_kept,
        adapt_state=part.adapt_state,
    ).drain()

    np.testing.assert_array_equal(resumed.array("mu"), full.array("mu"))
    assert (
        resumed.adapt_state.keys() == full.adapt_state.keys()
    )
    for label in full.adapt_state:
        assert (
            resumed.adapt_state[label]["step_size"]
            == full.adapt_state[label]["step_size"]
        )
        np.testing.assert_array_equal(
            resumed.adapt_state[label]["inv_mass"],
            full.adapt_state[label]["inv_mass"],
        )


@pytest.mark.parametrize("executor", ["sequential", "processes"])
def test_mid_warmup_checkpoint_resume_through_chains(nuts_sampler, executor):
    from repro.core.chains import ChainResume

    kwargs = dict(num_samples=SAMPLES, seed=31, warmup=WARMUP)
    full = nuts_sampler.sample_chains(2, **kwargs)

    # Freeze each chain mid-warmup (sequentially, for determinism),
    # using the same per-chain fork of the seed the chain engine uses...
    frozen = []
    rngs = Rng(31).fork(2)
    for i in range(2):
        run = nuts_sampler.sample_iter(
            SAMPLES, seed=rngs[i], warmup=WARMUP, chunk_size=15
        )
        for _ in run:
            run.request_stop()
            break
        r = run.drain()
        assert r.n_kept == 0 and r.sweeps_run < WARMUP
        frozen.append(r)

    # ...then finish both on the executor under test.
    resume = [
        ChainResume(
            init=r.final_state,
            rng_spec=r.rng_state,
            start_sweep=r.sweeps_run,
            start_kept=r.n_kept,
            draws={k: v[: r.n_kept] for k, v in r.samples.items()},
            adapt_state=r.adapt_state,
        )
        for r in frozen
    ]
    finished = nuts_sampler.sample_chains(
        2, executor=executor, n_workers=2, resume=resume, **kwargs
    )
    for a, b in zip(full, finished):
        np.testing.assert_array_equal(a.array("mu"), b.array("mu"))
