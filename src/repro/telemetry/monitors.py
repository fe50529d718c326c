"""Convergence monitoring of a live multi-chain run.

- :class:`DivergenceTally` -- the one divergence / NaN-reject count of
  a run, fed from chunk digests; the flight recorder, the ``--stream``
  progress line and :class:`ConvergenceMonitor` each hold one.
- :func:`components` / :func:`component_rhat` -- the judged scalar
  components of a parameter and their rank-normalised split R-hat
  (Vehtari et al. 2021): the one estimator of the service summary, its
  verdict and the monitor.
- :class:`ConvergenceMonitor` -- judges the draws a run has stored,
  over the chains' common prefix, while the chains still move.
"""

from __future__ import annotations

import math

import numpy as np

#: The R-hat at or below which chains count as converged when the
#: caller sets no target (service verdict, monitor, ``rhat_report``).
DEFAULT_RHAT = 1.05
#: At most this many scalar components per parameter are judged.
MAX_COMPONENTS = 4
#: Common draws per chain before R-hat is considered meaningful.
MIN_RHAT_DRAWS = 8

#: Default divergence-rate warning threshold.
DEFAULT_DIVERGENCE_WARN = 0.05

#: Sweeps observed before a divergence rate is considered meaningful.
MIN_SWEEPS = 20


def components(per_chain: list, n: int) -> list[tuple[str, np.ndarray]]:
    """The judged components of one dense parameter over the chains'
    first ``n >= 1`` draws: up to :data:`MAX_COMPONENTS` flat columns,
    each as ``(suffix, series)`` -- its label suffix (``""`` for a
    scalar parameter, else ``"[j]"``) and its ``(chains, n)`` draws."""
    arrs = [np.asarray(v[:n], dtype=np.float64) for v in per_chain]
    if arrs[0].ndim <= 1:
        return [("", np.stack(arrs))]
    flat = [a.reshape(n, -1) for a in arrs]
    take = min(flat[0].shape[1], MAX_COMPONENTS)
    return [
        (f"[{j}]", np.stack([f[:, j] for f in flat])) for j in range(take)
    ]


def component_rhat(series: np.ndarray) -> float | None:
    """Rank-normalised split R-hat of one component's ``(chains, n)``
    draws; ``None`` (unknown) with fewer than two chains or
    :data:`MIN_RHAT_DRAWS` draws, ``inf`` where the chains are stuck at
    different values."""
    m, n = series.shape
    if m < 2 or n < MIN_RHAT_DRAWS:
        return None
    # eval.metrics imports scipy.stats, which `import repro` must not.
    from repro.eval.metrics import split_potential_scale_reduction

    return float(split_potential_scale_reduction(series))


class DivergenceTally:
    """Divergent sweeps of a run, counted from chunk digests.

    Feed every :func:`~repro.telemetry.stats.chunk_stat_info` digest to
    :meth:`observe`.  Only updates whose digest carries ``divergent``
    (the gradient updates, HMC and NUTS) can diverge, so only their
    sweeps enter the denominator: ``rate`` is divergent sweeps of
    gradient updates over sweeps of gradient updates, across updates
    and chains.  A Gibbs update composed with ``HMC mu`` therefore does
    not dilute the rate.  NaN-rejected proposals are counted for every
    update.
    """

    def __init__(self, warn_rate: float = DEFAULT_DIVERGENCE_WARN):
        self.warn_rate = warn_rate
        self.divergent = 0
        self.sweeps = 0
        self.nan_rejects = 0
        #: Per update label: ``[divergent, sweeps, nan_rejects]``
        #: (``sweeps`` stays 0 for updates that cannot diverge).
        self.per_update: dict[str, list[int]] = {}
        self.exceeded = False

    def observe(self, info) -> bool:
        """Add one chunk digest (``None`` when stats are off); ``True``
        exactly once, when the rate first exceeds ``warn_rate`` with at
        least :data:`MIN_SWEEPS` sweeps observed."""
        for label, digest in (info or {}).items():
            counts = self.per_update.setdefault(label, [0, 0, 0])
            nan = digest.get("nan_rejects", 0)
            counts[2] += nan
            self.nan_rejects += nan
            if "divergent" in digest:
                div, sweeps = digest["divergent"], digest.get("n_sweeps", 0)
                counts[0] += div
                counts[1] += sweeps
                self.divergent += div
                self.sweeps += sweeps
        if self.exceeded or self.warning is None:
            return False
        self.exceeded = True
        return True

    @property
    def rate(self) -> float:
        return self.divergent / self.sweeps if self.sweeps else 0.0

    @property
    def warning(self) -> str | None:
        """The warning text while the rate is over the threshold."""
        if self.sweeps >= MIN_SWEEPS and self.rate > self.warn_rate:
            return (
                f"divergence rate {self.rate:.1%} exceeds "
                f"{self.warn_rate:.0%} -- decrease the step size"
            )
        return None

    def lines(self) -> list[str]:
        """One report line per update that can diverge or NaN-rejected
        a proposal."""
        out = []
        for label, (div, sweeps, nan) in self.per_update.items():
            parts = []
            if sweeps:
                parts.append(
                    f"divergence rate {div / sweeps:.1%} ({div}/{sweeps} sweeps)"
                )
            if nan:
                parts.append(f"nan-rejects {nan}")
            if parts:
                out.append(f"  {label:20s} " + ", ".join(parts))
        return out


class ConvergenceMonitor:
    """Cross-chain convergence of a live multi-chain run.

    Two jobs: the run's :class:`DivergenceTally`, and deciding when to
    judge the draws the run has stored.  Every R-hat and ESS it reports
    is :func:`component_rhat` or bulk ESS over the chains' common prefix
    (the first ``min(kept)`` draws of every chain), read from their draw
    storage; ragged parameters are not judged.

    Every executor of :func:`repro.core.chains.stream_chains` feeds it
    alike: :meth:`observe_chunk` per chunk, :meth:`chain_done` per
    finished chain, :meth:`release` when the stream ends; the stream
    polls :meth:`converged` to stop early.  A read judges again only
    once the common prefix has grown by an eighth, and the last
    :meth:`chain_done` judges the final draws; other reads return the
    cached values.  After that (or :meth:`release`) the monitor holds
    no draw storage, which on the processes executor is a view of a
    shared segment that dies with the run's results.
    """

    def __init__(
        self,
        param_names: tuple[str, ...],
        n_chains: int,
        divergence_warn: float = DEFAULT_DIVERGENCE_WARN,
        emit=None,
    ):
        self.param_names = tuple(param_names)
        self.n_chains = n_chains
        self.divergence = DivergenceTally(divergence_warn)
        self.emit = emit  # callable(str) for incremental progress lines
        self._chains_done = 0
        #: Each chain's draw storage (``None`` once released), kept draws.
        self._storage: list[dict] | None = [{} for _ in range(n_chains)]
        self._kept = [0] * n_chains
        #: The last judged prefix, its R-hat per component label and its
        #: bulk ESS (computed on first read).
        self._judged = 0
        self._rhat: dict[str, float] = {}
        self._ess: dict[str, float] | None = None

    # -- feeding -----------------------------------------------------------

    def observe_chunk(self, chunk) -> None:
        """Note that ``chunk.chain`` keeps ``chunk.stop`` draws in
        ``chunk.samples`` (nothing is read) and tally the chunk's stat
        digest (a WARNING line when the divergence rate first crosses)."""
        if self.divergence.observe(chunk.info) and self.emit is not None:
            self.emit(f"WARNING: {self.divergence.warning}")
        self._storage[chunk.chain] = chunk.samples
        self._kept[chunk.chain] = chunk.stop

    def chain_done(self) -> None:
        """Mark one chain complete (the last one judges the final draws
        and lets go of the storage); emit a progress line."""
        self._chains_done += 1
        if self._chains_done == self.n_chains:
            self._judge(min(self._kept), ess=True)
            self._storage = None
        if self.emit is not None:
            self.emit(self.progress_line())

    def release(self) -> None:
        """Let go of the draw storage unread; reads keep the last values."""
        self._storage = None

    # -- judging -----------------------------------------------------------

    def _series(self, n: int):
        """``(label, series)`` of every judged component, first ``n``."""
        for name in self.param_names:
            per_chain = [s.get(name) for s in self._storage]
            if all(isinstance(v, np.ndarray) for v in per_chain):
                for suffix, series in components(per_chain, n):
                    yield name + suffix, series

    def _judge(self, n: int, ess: bool = False) -> None:
        """R-hat (and with ``ess`` bulk ESS) over the first ``n`` draws."""
        if n < MIN_RHAT_DRAWS:
            return
        if ess:
            from repro.eval.metrics import ess_bulk
        self._judged, self._rhat = n, {}
        self._ess = {} if ess else None
        for label, series in self._series(n):
            rhat = component_rhat(series)
            self._rhat[label] = math.nan if rhat is None else rhat
            if ess:
                self._ess[label] = ess_bulk(series)

    def _refresh(self) -> None:
        """Judge again if the common prefix grew by an eighth."""
        if self._storage is not None:
            n = min(self._kept)
            if 8 * n >= 9 * self._judged and n > self._judged:
                self._judge(n)

    # -- reading -----------------------------------------------------------

    def worst_rhat(self) -> float:
        """The largest split R-hat over the judged components: ``inf``
        (chains stuck apart) is the worst there is; ``nan`` (unknown) is
        skipped, and returned only when no component has a value."""
        self._refresh()
        known = [v for v in self._rhat.values() if not math.isnan(v)]
        return max(known) if known else math.nan

    def converged(self, threshold: float) -> bool:
        """The early-stopping predicate: the worst split R-hat is known,
        finite and at or below ``threshold``."""
        worst = self.worst_rhat()
        return math.isfinite(worst) and worst <= threshold

    def min_ess(self) -> float:
        """The smallest bulk ESS over the judged components."""
        self._refresh()
        if self._ess is None and self._storage is not None:
            self._judge(self._judged, ess=True)
        return min(self._ess.values()) if self._ess else math.nan

    def warnings(self, threshold: float = DEFAULT_RHAT) -> list[str]:
        out = []
        worst = self.worst_rhat()
        if worst > threshold:
            out.append(
                f"split R-hat {worst:.3f} exceeds {threshold} -- "
                "chains have not converged"
            )
        if self.divergence.warning:
            out.append(self.divergence.warning)
        return out

    def progress_line(self) -> str:
        worst = self.worst_rhat()
        ess = self.min_ess()
        rhat_s = "n/a" if math.isnan(worst) else f"{worst:.3f}"
        ess_s = f"{ess:.0f}" if math.isfinite(ess) else "n/a"
        return (
            f"[monitor] chains {self._chains_done}/{self.n_chains} done: "
            f"worst split R-hat {rhat_s}, min ESS {ess_s}"
        )

    def report(self, threshold: float = DEFAULT_RHAT) -> str:
        """The per-component R-hat and ESS table, flagged against
        ``threshold``, then the divergence lines and warnings."""
        self.min_ess()  # the judgement with ESS the table reads
        ess_by = self._ess or {}
        lines = [f"online convergence report ({self._judged} common draws):"]
        for key in sorted(self._rhat):
            r = self._rhat[key]
            ess = ess_by.get(key, math.nan)
            rhat_s = "  n/a" if math.isnan(r) else f"{r:5.3f}"
            ess_s = f"{ess:8.0f}" if math.isfinite(ess) else "     n/a"
            flag = "  <-- " if r > threshold else ""
            lines.append(f"  {key:20s} split R-hat {rhat_s}  ESS {ess_s}{flag}")
        lines.extend(self.divergence.lines())
        warns = self.warnings(threshold)
        if warns:
            lines.extend(f"  WARNING: {w}" for w in warns)
        else:
            lines.append("  all monitors within thresholds")
        return "\n".join(lines)
