"""Multi-chain sampling and cross-chain diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compiler import compile_model
from repro.errors import RuntimeFailure
from repro.eval import models
from repro.eval.metrics import effective_sample_size, potential_scale_reduction


@pytest.fixture(scope="module")
def nn_sampler():
    rng = np.random.default_rng(0)
    y = rng.normal(2.0, 1.0, size=40)
    return compile_model(
        models.NORMAL_NORMAL,
        {"N": 40, "mu_0": 0.0, "v_0": 25.0, "v": 1.0},
        {"y": y},
    )


def test_chains_are_independent_and_converge(nn_sampler):
    results = nn_sampler.sample_chains(n_chains=4, num_samples=400, burn_in=50, seed=1)
    chains = np.stack([r.array("mu") for r in results])
    assert chains.shape == (4, 400)
    # Different streams produce different draws...
    assert not np.allclose(chains[0], chains[1])
    # ...but the chains mix: R-hat near 1.
    assert potential_scale_reduction(chains) < 1.1


def test_chains_seed_reproducibility(nn_sampler):
    a = nn_sampler.sample_chains(2, num_samples=20, seed=7)
    b = nn_sampler.sample_chains(2, num_samples=20, seed=7)
    np.testing.assert_array_equal(a[0].array("mu"), b[0].array("mu"))
    np.testing.assert_array_equal(a[1].array("mu"), b[1].array("mu"))


def test_chains_validate_count(nn_sampler):
    with pytest.raises(RuntimeFailure):
        nn_sampler.sample_chains(0, num_samples=5)


def test_chains_validate_executor(nn_sampler):
    for executor in ("fibers", "threads"):
        with pytest.raises(RuntimeFailure):
            nn_sampler.sample_chains(2, num_samples=5, executor=executor)


def test_process_executor_is_bitwise_identical(nn_sampler):
    seq = nn_sampler.sample_chains(3, num_samples=25, burn_in=5, seed=11)
    par = nn_sampler.sample_chains(
        3, num_samples=25, burn_in=5, seed=11, executor="processes", n_workers=2
    )
    assert len(par) == 3
    for a, b in zip(seq, par):
        np.testing.assert_array_equal(a.array("mu"), b.array("mu"))


def test_parallel_chains_feed_rhat(nn_sampler):
    results = nn_sampler.sample_chains(
        4, num_samples=200, burn_in=50, seed=2, executor="processes", n_workers=2
    )
    chains = np.stack([r.array("mu") for r in results])
    assert chains.shape == (4, 200)
    assert potential_scale_reduction(chains) < 1.1


def test_dense_draw_storage_is_preallocated(nn_sampler):
    res = nn_sampler.sample(num_samples=30, seed=0)
    # Dense parameters live in one (num_samples, *shape) array written
    # in place per kept sweep, and array() is a view of it, not a
    # re-stack.
    store = res.samples["mu"]
    assert isinstance(store, np.ndarray)
    assert store.shape == (30,)
    view = res.array("mu")
    assert np.shares_memory(view, store)
    assert view.base is store


def lda_ragged_sampler():
    """LDA with unequal document lengths: ``z`` has ragged shape, so its
    draw storage must take the list-of-copies fallback."""
    from repro.runtime.vectors import RaggedArray

    rng = np.random.default_rng(0)
    k, v = 2, 6
    lengths = [5, 9, 3, 7]
    docs = [rng.integers(0, v, size=n) for n in lengths]
    hypers = {
        "K": k,
        "D": len(docs),
        "V": v,
        "N": np.array(lengths),
        "alpha": np.full(k, 0.5),
        "beta": np.full(v, 0.5),
    }
    return compile_model(models.LDA, hypers, {"w": RaggedArray.from_rows(docs)})


def test_ragged_draw_storage_falls_back_to_copies():
    from repro.runtime.vectors import RaggedArray

    sampler = lda_ragged_sampler()
    res = sampler.sample(num_samples=12, burn_in=3, seed=0)
    store = res.samples["z"]
    # Ragged parameters cannot use the dense preallocated path.
    assert isinstance(store, list)
    assert len(store) == 12
    assert all(isinstance(d, RaggedArray) for d in store)
    # Each stored draw is an independent copy, not a view of the live
    # state the sweep loop keeps mutating.
    assert len({id(d.flat) for d in store}) == 12
    flats = np.stack([d.flat for d in store])
    assert not np.array_equal(flats[0], flats[-1])  # the chain moved
    # array() flattens ragged draws to (draws, total_tokens).
    assert res.array("z").shape == (12, sum([5, 9, 3, 7]))
    np.testing.assert_array_equal(res.array("z"), flats)
    # Dense parameters in the same run still use preallocated storage.
    assert isinstance(res.samples["theta"], np.ndarray)
    assert res.samples["theta"].shape == (12, 4, 2)


def test_ragged_storage_respects_burn_in_and_thin():
    sampler = lda_ragged_sampler()
    res = sampler.sample(num_samples=4, burn_in=5, thin=3, seed=1)
    assert len(res.samples["z"]) == 4
    assert res.samples["theta"].shape[0] == 4


def _flat_stats(results):
    from repro.telemetry.stats import stack_chain_stats

    return stack_chain_stats(results)


def test_stat_buffers_bitwise_equal_across_executors(nn_sampler):
    kwargs = dict(num_samples=20, burn_in=5, seed=17, collect_stats=True)
    seq = _flat_stats(nn_sampler.sample_chains(3, **kwargs))
    par = _flat_stats(
        nn_sampler.sample_chains(
            3, executor="processes", n_workers=2, **kwargs
        )
    )
    assert seq and set(seq) == set(par)
    for key in seq:
        assert seq[key].shape == (3, 25)
        np.testing.assert_array_equal(seq[key], par[key])


def test_gibbs_chain_has_high_ess(nn_sampler):
    res = nn_sampler.sample(num_samples=500, burn_in=50, seed=3)
    # A conjugate Gibbs chain on a single parameter draws exact
    # conditionals: near-iid samples.
    ess = effective_sample_size(res.array("mu"))
    assert ess > 300


def test_sample_result_metadata(nn_sampler):
    res = nn_sampler.sample(num_samples=25, seed=0)
    assert res.wall_time > 0
    assert res.sweep_times.shape == (25,)
    assert len(res.acceptance) == 1
    assert list(res.acceptance.values())[0] == pytest.approx(1.0)  # Gibbs
    assert res.device_time is None  # CPU target


def test_sample_rejects_nonpositive_count(nn_sampler):
    with pytest.raises(RuntimeFailure):
        nn_sampler.sample(num_samples=0)
