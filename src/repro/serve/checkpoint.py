"""Checkpoint/resume for service requests.

A :class:`Checkpoint` freezes a multi-chain run mid-flight as one
:class:`~repro.core.chains.ChainResume` per chain -- the packed
parameter state after the last executed sweep, the RNG state-spec, the
kept-draw/sweep counters, the warmup adaptation state and the draws
taken so far, every piece already picklable (the same properties the
worker-process executor relies on) -- and ``stream_chains(...,
resume=checkpoint.chains)`` continues it.  :class:`CheckpointStore`
persists one checkpoint per request id, so a deadline-exhausted or
interrupted request can be continued by a follow-up call with the same
id and finish bit-for-bit identical to a single uninterrupted run.

The ``spec_key`` (compile-cache fingerprint) rides along and is checked
on resume: a checkpoint only resumes onto the exact model shape it was
taken from.  A stored file that does not load as a :class:`Checkpoint`
(an older format, a truncated write, not a pickle) is a
:class:`~repro.serve.protocol.ProtocolError`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro.core.chains import ChainResume
from repro.errors import ReproError
from repro.serve.protocol import ProtocolError


def _copy_draws(samples: dict, n_kept: int) -> dict:
    """Detach one chain's kept draws from their (possibly shared-memory)
    storage: dense parameters copy the first ``n_kept`` rows, ragged
    fallbacks copy the list."""
    out: dict = {}
    for name, vals in samples.items():
        if isinstance(vals, np.ndarray):
            out[name] = np.array(vals[:n_kept])
        else:
            out[name] = list(vals[:n_kept])
    return out


@dataclass
class Checkpoint:
    """A whole request's frozen sampling state.

    ``num_samples``/``burn_in``/``thin``/``seed`` (and, for adaptive
    runs, ``warmup``/``target_accept``) pin the run geometry: a resumed
    leg must target the same totals or the sweep/thinning alignment
    (and therefore bitwise reproducibility) breaks.
    """

    request_id: str
    spec_key: str
    seed: int
    n_chains: int
    num_samples: int
    burn_in: int
    thin: int
    collect: tuple | None
    chains: list[ChainResume]
    created_at: float = 0.0
    warmup: int = 0
    target_accept: float = 0.8

    @classmethod
    def from_results(
        cls,
        request_id: str,
        spec_key: str,
        results,
        *,
        seed: int,
        num_samples: int,
        burn_in: int = 0,
        thin: int = 1,
        collect=None,
        warmup: int = 0,
        target_accept: float = 0.8,
    ) -> "Checkpoint":
        """Freeze the per-chain ``SampleResult`` list of a (partial)
        run.  Requires results carrying ``final_state``/``rng_state``
        (every run since resume support does)."""
        chains = []
        for r in results:
            if r.final_state is None or r.rng_state is None:
                raise ReproError(
                    "cannot checkpoint a result without final_state/rng_state"
                )
            chains.append(
                ChainResume(
                    init=r.final_state,
                    rng_spec=r.rng_state,
                    start_sweep=r.sweeps_run,
                    start_kept=r.n_kept,
                    draws=_copy_draws(r.samples, r.n_kept),
                    adapt_state=r.adapt_state,
                )
            )
        return cls(
            request_id=request_id,
            spec_key=spec_key,
            seed=seed,
            n_chains=len(chains),
            num_samples=num_samples,
            burn_in=burn_in,
            thin=thin,
            collect=tuple(collect) if collect is not None else None,
            chains=chains,
            created_at=time.time(),
            warmup=warmup,
            target_accept=target_accept,
        )

    @property
    def min_kept(self) -> int:
        return min((c.start_kept for c in self.chains), default=0)


def _safe_name(request_id: str) -> str:
    """A filesystem-safe, collision-resistant file stem for an
    arbitrary request id."""
    digest = hashlib.sha256(request_id.encode()).hexdigest()[:16]
    stem = "".join(c if c.isalnum() or c in "-_." else "_" for c in request_id)
    return f"{stem[:48]}-{digest}"


class CheckpointStore:
    """Pickle-per-request persistence under one directory.

    Writes are atomic (temp file + rename) so a crash mid-save never
    leaves a truncated checkpoint behind.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path(self, request_id: str) -> str:
        return os.path.join(self.root, _safe_name(request_id) + ".ckpt")

    def save(self, checkpoint: Checkpoint) -> str:
        path = self.path(checkpoint.request_id)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(checkpoint, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
        return path

    def load(self, request_id: str) -> Checkpoint | None:
        """The stored checkpoint, or ``None`` when there is none."""
        try:
            with open(self.path(request_id), "rb") as f:
                ckpt = pickle.load(f)
            if isinstance(ckpt, Checkpoint):
                return ckpt
            problem = f"it holds a {type(ckpt).__name__}"
        except FileNotFoundError:
            return None
        except Exception as exc:
            # Unpickling a damaged or foreign file can raise almost
            # anything (EOFError, UnpicklingError, AttributeError, ...).
            problem = f"{type(exc).__name__}: {exc}"
        raise ProtocolError(
            f"checkpoint for request {request_id!r} cannot be read "
            f"({problem}); retry with 'resume': false or a new request_id "
            f"to start over"
        )

    def delete(self, request_id: str) -> None:
        try:
            os.unlink(self.path(request_id))
        except FileNotFoundError:
            pass
