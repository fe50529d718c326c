"""Typed per-sweep sampler statistics (the nutpie/Stan ``sample_stats``).

Every base update driver declares a tuple of :class:`StatField` entries
-- its per-sweep record schema -- and, when stats collection is on,
fills one record per sweep.  :class:`UpdateStatsBuffer` preallocates one
``(n_sweeps,)`` array per field (mirroring the zero-copy draw storage of
``core/sampler.py``) so the sweep loop does plain indexed stores, never
list appends.

:class:`SampleStats` is the per-run container handed back on
``SampleResult.stats``; :func:`stack_chain_stats` merges the per-chain
containers a multi-chain run produces into ``(n_chains, n_sweeps)``
arrays keyed nutpie-style (``"<update label>.<field>"``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StatField:
    """One column of an update's per-sweep stat record."""

    name: str
    dtype: str  # numpy dtype string, e.g. "f8" / "i8"
    doc: str = ""


#: Fields every update reports, whatever its kind.
BASE_FIELDS = (
    StatField("accept_rate", "f8", "accepted/proposed over the sweep"),
    StatField("n_proposed", "i8", "proposals made this sweep"),
    StatField("nan_rejects", "i8", "proposals rejected for a NaN log-ratio"),
)


class UpdateStatsBuffer:
    """Preallocated per-sweep stat storage for one update driver."""

    def __init__(self, label: str, fields: tuple[StatField, ...], n_sweeps: int):
        self.label = label
        self.fields = fields
        self.n_sweeps = n_sweeps
        self.columns: dict[str, np.ndarray] = {
            f.name: np.zeros(n_sweeps, dtype=np.dtype(f.dtype)) for f in fields
        }

    def write(self, sweep: int, record: dict) -> None:
        """Store one sweep's record (missing fields keep their zero)."""
        for name, value in record.items():
            col = self.columns.get(name)
            if col is not None:
                col[sweep] = value

    def truncate(self, n_sweeps: int) -> None:
        """Shrink to the ``n_sweeps`` sweeps that actually ran (early
        stop / interrupt); a no-op when already that size or smaller."""
        if n_sweeps >= self.n_sweeps:
            return
        self.columns = {k: v[:n_sweeps] for k, v in self.columns.items()}
        self.n_sweeps = n_sweeps

    def __getitem__(self, field: str) -> np.ndarray:
        return self.columns[field]


class SampleStats:
    """Per-sweep statistics for every update of one sampling run.

    Indexable two ways: ``stats["Gibbs z"]`` gives one update's
    field->array dict, and :meth:`to_dict` flattens to the nutpie-style
    ``{"Gibbs z.accept_rate": array, ...}`` mapping.  Arrays cover every
    sweep (warmup and burn-in included); ``kept_slice`` selects the
    post-warmup, post-burn-in, post-thinning sweeps that correspond to
    stored draws.
    """

    def __init__(
        self,
        buffers: list[UpdateStatsBuffer],
        burn_in: int,
        thin: int,
        warmup: int = 0,
    ):
        self._buffers = {b.label: b for b in buffers}
        self.burn_in = burn_in
        self.thin = thin
        self.warmup = warmup
        self.n_sweeps = buffers[0].n_sweeps if buffers else 0

    @property
    def update_labels(self) -> tuple[str, ...]:
        return tuple(self._buffers)

    @property
    def kept_slice(self) -> slice:
        return slice(self.warmup + self.burn_in, None, self.thin)

    def __getitem__(self, label: str) -> dict[str, np.ndarray]:
        return dict(self._buffers[label].columns)

    def fields(self, label: str) -> tuple[StatField, ...]:
        return self._buffers[label].fields

    def to_dict(self) -> dict[str, np.ndarray]:
        """Flat ``"<label>.<field>" -> (n_sweeps,)`` mapping."""
        out: dict[str, np.ndarray] = {}
        for label, buf in self._buffers.items():
            for name, col in buf.columns.items():
                out[f"{label}.{name}"] = col
        return out

    # -- convenience reductions used by the CLI report ---------------------

    def summary_lines(self) -> list[str]:
        """One human-readable line per update."""
        lines = []
        for label, buf in self._buffers.items():
            cols = buf.columns
            parts = [f"accept {float(np.mean(cols['accept_rate'])):.3f}"]
            nan = int(cols["nan_rejects"].sum())
            if nan:
                parts.append(f"nan-rejects {nan}")
            if "divergent" in cols:
                parts.append(f"divergent {int((cols['divergent'] > 0).sum())}")
            if "n_leapfrog" in cols:
                parts.append(f"mean leapfrogs {float(cols['n_leapfrog'].mean()):.1f}")
            if "tree_depth" in cols:
                parts.append(f"mean depth {float(cols['tree_depth'].mean()):.1f}")
            if "expansions" in cols:
                parts.append(f"mean expansions {float(cols['expansions'].mean()):.1f}")
            if "shrinks" in cols:
                parts.append(f"mean shrinks {float(cols['shrinks'].mean()):.1f}")
            if "step_size" in cols and buf.n_sweeps and cols["step_size"][-1]:
                parts.append(f"step size {float(cols['step_size'][-1]):.4g}")
            lines.append(f"  {label}: " + ", ".join(parts))
        return lines


def allocate_stat_buffers(updates, n_sweeps: int) -> list[UpdateStatsBuffer]:
    """One preallocated buffer per update driver, labels deduplicated.

    A schedule may compose two updates of the same kind on the same
    variable; suffix duplicates with ``#k`` so every buffer keeps its
    own storage.
    """
    seen: dict[str, int] = {}
    buffers = []
    for upd in updates:
        label = upd.label
        k = seen.get(label, 0)
        seen[label] = k + 1
        if k:
            label = f"{label}#{k}"
        buffers.append(UpdateStatsBuffer(label, upd.stat_fields(), n_sweeps))
    return buffers


def chunk_stat_info(
    buffers: list[UpdateStatsBuffer], lo: int, hi: int
) -> dict[str, dict[str, float]]:
    """Per-update digest of the sweeps ``lo:hi`` of a run in flight.

    This is the ``info`` payload that rides on every streamed chunk
    (``ChainChunk.info``): acceptance over the chunk's sweeps plus
    divergence / NaN-reject counts, so streaming consumers (the
    ``--stream`` progress display, the inference service, and the
    :class:`~repro.telemetry.monitors.DivergenceTally` each holds) can
    report sampler health live instead of only at the end of the run.
    """
    out: dict[str, dict[str, float]] = {}
    for buf in buffers:
        cols = buf.columns
        entry: dict[str, float] = {}
        rates = cols["accept_rate"][lo:hi]
        finite = rates[np.isfinite(rates)]
        entry["accept_rate"] = float(finite.mean()) if finite.size else float("nan")
        entry["n_proposed"] = int(cols["n_proposed"][lo:hi].sum())
        entry["nan_rejects"] = int(cols["nan_rejects"][lo:hi].sum())
        if "divergent" in cols:
            entry["divergent"] = int((cols["divergent"][lo:hi] > 0).sum())
        if "step_size" in cols and hi > lo:
            entry["step_size"] = float(cols["step_size"][hi - 1])
        entry["n_sweeps"] = int(hi - lo)
        out[buf.label] = entry
    return out


def acceptance_ranges(results) -> dict[str, tuple[float, float, float]]:
    """Per-update acceptance-rate ``(min, max, mean)`` over every sweep
    of every chain.

    Takes the ``SampleResult`` list of a (multi-chain) run made with
    ``collect_stats=True`` and reduces each update's per-sweep
    ``accept_rate`` column, skipping NaN sweeps (no proposals).  This is
    the number the console summary and the HTML report both print, so
    they agree by construction.  Empty when no chain carried stats.
    """
    per_label: dict[str, list[np.ndarray]] = {}
    for r in results:
        if r.stats is None:
            continue
        for label in r.stats.update_labels:
            col = r.stats[label]["accept_rate"]
            per_label.setdefault(label, []).append(col)
    out: dict[str, tuple[float, float, float]] = {}
    for label, cols in per_label.items():
        rates = np.concatenate(cols)
        rates = rates[np.isfinite(rates)]
        if rates.size == 0:
            out[label] = (float("nan"), float("nan"), float("nan"))
        else:
            out[label] = (
                float(rates.min()), float(rates.max()), float(rates.mean())
            )
    return out


def stack_chain_stats(results) -> dict[str, np.ndarray]:
    """Merge per-chain :class:`SampleStats` into cross-chain arrays.

    Given the ``SampleResult`` list of a multi-chain run (each worker
    records into its own buffers; nothing is shared across processes),
    returns ``{"<label>.<field>": (n_chains, n_sweeps) array}``.  Chains
    missing stats (``collect_stats=False``) yield an empty dict.
    """
    per_chain = [r.stats.to_dict() for r in results if r.stats is not None]
    if len(per_chain) != len(results) or not per_chain:
        return {}
    keys = per_chain[0].keys()
    # Early-stopped runs may leave chains with unequal sweep counts;
    # stack over the common prefix so the arrays stay rectangular.
    out = {}
    for k in keys:
        cols = [d[k] for d in per_chain]
        n = min(c.shape[0] for c in cols)
        out[k] = np.stack([c[:n] for c in cols])
    return out
