"""Checkpoint round-trips and bitwise-identical resume.

The load-bearing guarantee: a run interrupted at any chunk boundary,
checkpointed through a pickle round-trip, and resumed by a second call
produces draws bitwise identical to one uninterrupted run — on every
executor.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.core.chains import ChainResume, stream_chains
from repro.errors import ReproError
from repro.serve.checkpoint import Checkpoint, CheckpointStore
from repro.serve.protocol import ProtocolError

N_CHAINS = 2
SAMPLES = 24
PARTIAL = 10
RUN = dict(
    n_chains=N_CHAINS, burn_in=4, thin=2, seed=11, chunk_size=5,
)


def _drain(stream):
    for _ in stream:
        pass
    return stream.results


def _full_run(nn_sampler, executor):
    return _drain(
        stream_chains(
            nn_sampler, executor=executor, num_samples=SAMPLES, **RUN
        )
    )


def _partial_run(nn_sampler, executor):
    """The first leg: stop deterministically after PARTIAL kept draws
    (what the service's draw budget produces, minus the stop-flag race
    of ``request_stop`` on fast models)."""
    return _drain(
        stream_chains(
            nn_sampler, executor=executor, num_samples=PARTIAL, **RUN
        )
    )


@pytest.mark.parametrize("executor", ["sequential", "processes"])
def test_resume_is_bitwise_identical(nn_sampler, executor, tmp_path):
    reference = _full_run(nn_sampler, executor)
    partial = _partial_run(nn_sampler, executor)
    assert min(r.n_kept for r in partial) < SAMPLES

    store = CheckpointStore(str(tmp_path))
    store.save(
        Checkpoint.from_results(
            "job", "speckey", partial,
            seed=RUN["seed"], num_samples=SAMPLES,
            burn_in=RUN["burn_in"], thin=RUN["thin"],
        )
    )
    loaded = store.load("job")
    assert loaded is not None and loaded.min_kept < SAMPLES

    resumed = _drain(
        stream_chains(
            nn_sampler, executor=executor, num_samples=SAMPLES,
            resume=loaded.chains, **RUN,
        )
    )
    for ref, res in zip(reference, resumed):
        assert res.n_kept == SAMPLES
        for name in ref.samples:
            np.testing.assert_array_equal(
                np.asarray(res.samples[name]), np.asarray(ref.samples[name])
            )


def test_checkpoint_requires_resume_fields(nn_sampler):
    results = _full_run(nn_sampler, "sequential")
    results[0].final_state = None
    with pytest.raises(ReproError):
        Checkpoint.from_results(
            "job", "k", results, seed=0, num_samples=SAMPLES
        )


def test_checkpoint_holds_chain_resumes(nn_sampler):
    results = _full_run(nn_sampler, "sequential")
    ckpt = Checkpoint.from_results(
        "job", "k", results, seed=11, num_samples=SAMPLES
    )
    assert ckpt.min_kept == SAMPLES
    assert len(ckpt.chains) == N_CHAINS
    for chain, r in zip(ckpt.chains, results):
        assert isinstance(chain, ChainResume)
        assert (chain.start_sweep, chain.start_kept) == (r.sweeps_run, SAMPLES)
        assert chain.rng_spec == r.rng_state
        np.testing.assert_array_equal(chain.draws["mu"], r.samples["mu"])


def _older_format(ckpt, monkeypatch) -> bytes:
    """``ckpt`` pickled as a format whose chains are of a type that
    ``repro.serve.checkpoint`` no longer defines, as the format before
    ``ChainResume`` chains was."""
    import repro.serve.checkpoint as module

    class RetiredChain:
        pass

    RetiredChain.__module__ = module.__name__
    RetiredChain.__qualname__ = "RetiredChain"
    monkeypatch.setattr(module, "RetiredChain", RetiredChain, raising=False)
    ckpt.chains = [RetiredChain() for _ in ckpt.chains]
    body = pickle.dumps(ckpt)
    monkeypatch.undo()
    return body


class TestStore:
    def test_missing_returns_none(self, tmp_path):
        assert CheckpointStore(str(tmp_path)).load("ghost") is None

    def test_delete_is_idempotent(self, tmp_path):
        CheckpointStore(str(tmp_path)).delete("ghost")

    def test_odd_request_ids_stay_on_filesystem(self, tmp_path, nn_sampler):
        store = CheckpointStore(str(tmp_path))
        results = _full_run(nn_sampler, "sequential")
        rid = "../evil /job\x00name" + "x" * 300
        path = store.save(
            Checkpoint.from_results(
                rid, "k", results, seed=11, num_samples=SAMPLES
            )
        )
        assert os.path.dirname(path) == str(tmp_path)
        assert store.load(rid).request_id == rid
        assert os.listdir(str(tmp_path)) == [os.path.basename(path)]
        store.delete(rid)
        assert os.listdir(str(tmp_path)) == []
        assert store.load(rid) is None

    @pytest.mark.parametrize(
        "garble", ["garbage", "truncated", "not_ckpt", "older_format"]
    )
    def test_unreadable_file_is_a_protocol_error(
        self, tmp_path, nn_sampler, garble, monkeypatch
    ):
        store = CheckpointStore(str(tmp_path))
        ckpt = Checkpoint.from_results(
            "job", "k", _full_run(nn_sampler, "sequential"),
            seed=11, num_samples=SAMPLES,
        )
        path = store.save(ckpt)
        body = open(path, "rb").read()
        if garble == "garbage":
            body = b"not a pickle"
        elif garble == "truncated":
            body = body[: len(body) // 2]
        elif garble == "not_ckpt":
            body = pickle.dumps({"request_id": "job"})
        else:
            body = _older_format(ckpt, monkeypatch)
        with open(path, "wb") as f:
            f.write(body)
        with pytest.raises(ProtocolError, match="'resume': false"):
            store.load("job")

    def test_distinct_ids_do_not_collide(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        a = "x" * 100 + "a"
        b = "x" * 100 + "b"
        assert store.path(a) != store.path(b)
