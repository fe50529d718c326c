"""``repro.serve``: the long-lived asynchronous inference service.

The paper compiles a model once and samples forever; this package turns
that into a server.  An asyncio front end (:class:`~repro.serve.server.
ReproServer`, stdlib-only HTTP over ``asyncio.start_server``) accepts
JSON ``(model_source, data, query, budget)`` requests, keys them by the
compile-cache fingerprint so repeat model shapes skip compilation and
reuse the warm worker pool, shards chains over the pool via the
streaming engine, and enforces per-request deadlines: sample in chunks
until the time/draw budget is exhausted or online R-hat converges, then
answer with a draws summary, a convergence verdict, and the per-request
HTML/JSON inference report as the observability artifact.

Interrupted or budget-exhausted requests checkpoint their chain state
(:class:`~repro.serve.checkpoint.Checkpoint`: one
:class:`~repro.core.chains.ChainResume` per chain, all picklable) keyed
by request id; a follow-up call with the same id resumes bit-for-bit,
so the finished draws are identical to a single uninterrupted run with
the same seed.
"""

from repro.serve.checkpoint import Checkpoint, CheckpointStore
from repro.serve.protocol import Budget, InferRequest, ProtocolError
from repro.serve.session import InferenceService
from repro.serve.server import ReproServer

__all__ = [
    "Budget",
    "Checkpoint",
    "CheckpointStore",
    "InferRequest",
    "InferenceService",
    "ProtocolError",
    "ReproServer",
]
