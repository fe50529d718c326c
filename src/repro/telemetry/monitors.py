"""Online convergence monitors: streaming moments, split R-hat, ESS.

Everything here is *streaming*: constant memory per monitored scalar,
one :meth:`update` per draw, diagnostics readable at any point during a
run.  That is what lets ``sample_chains`` report convergence while the
chains are still moving instead of after the fact:

- :class:`Welford` -- numerically stable running mean/variance, with
  the Chan et al. pairwise ``merge`` used to combine accumulators that
  lived in different worker processes.
- :class:`SplitRhat` -- online split-half potential scale reduction.
  The classic split R-hat needs only the mean and variance of each
  half-chain, so with the total draw count known up front it streams:
  the first half of each chain feeds one Welford accumulator, the
  second half another.
- :class:`OnlineEss` -- batch-means effective sample size: ESS ~
  ``n * var(draws) / (b * var(batch means))`` with batch size ``b``.
  Coarser than the FFT autocorrelation estimator in ``eval.metrics``
  (which the final report uses) but O(1) per draw.
- :class:`DivergenceTally` -- the one divergence / NaN-reject count
  of a run, fed from streamed chunk digests, with the one-shot
  warning threshold; the flight recorder, the ``--stream`` progress
  line and :class:`ConvergenceMonitor` each hold one.
- :class:`ConvergenceMonitor` -- composes the above per monitored
  scalar across chains and renders incremental progress lines and a
  final report.
"""

from __future__ import annotations

import math

import numpy as np


class Welford:
    """Streaming mean/variance (Welford), mergeable across workers."""

    __slots__ = ("n", "mean", "_m2")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)

    @property
    def var(self) -> float:
        """Sample variance (ddof=1)."""
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    def merge(self, other: "Welford") -> "Welford":
        """Combine two accumulators as if one had seen both streams."""
        if other.n == 0:
            return self
        if self.n == 0:
            self.n, self.mean, self._m2 = other.n, other.mean, other._m2
            return self
        n = self.n + other.n
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.n * other.n / n
        self.mean += delta * other.n / n
        self.n = n
        return self


class SplitRhat:
    """Online split-half R-hat for one scalar across ``n_chains`` chains."""

    def __init__(self, n_chains: int, total_draws: int):
        if n_chains < 1 or total_draws < 4:
            raise ValueError("split R-hat needs >= 1 chain and >= 4 draws")
        self.n_chains = n_chains
        self.split_at = total_draws // 2
        # Two half-chain accumulators per chain -> 2m half chains.
        self._halves = [[Welford(), Welford()] for _ in range(n_chains)]

    def update(self, chain: int, draw_index: int, value: float) -> None:
        half = 0 if draw_index < self.split_at else 1
        self._halves[chain][half].update(value)

    def rhat(self) -> float:
        """Split R-hat from the half-chain moments (NaN until every
        half-chain has at least 2 draws)."""
        halves = [w for pair in self._halves for w in pair if w.n >= 2]
        if len(halves) < 2:
            return float("nan")
        n = min(w.n for w in halves)
        means = np.array([w.mean for w in halves])
        within = float(np.mean([w.var for w in halves]))
        between = n * float(np.var(means, ddof=1))
        if within <= 0.0:
            return 1.0 if between <= 0.0 else float("inf")
        var_plus = (n - 1) / n * within + between / n
        return float(math.sqrt(var_plus / within))


class OnlineEss:
    """Batch-means ESS for one scalar chain, O(1) memory."""

    def __init__(self, batch_size: int = 25):
        self.batch_size = batch_size
        self._draws = Welford()
        self._batch_means = Welford()
        self._batch_sum = 0.0
        self._batch_n = 0

    def update(self, value: float) -> None:
        self._draws.update(value)
        self._batch_sum += value
        self._batch_n += 1
        if self._batch_n == self.batch_size:
            self._batch_means.update(self._batch_sum / self.batch_size)
            self._batch_sum = 0.0
            self._batch_n = 0

    def ess(self) -> float:
        """ESS estimate; NaN until at least two full batches exist."""
        n = self._draws.n
        if self._batch_means.n < 2:
            return float("nan")
        var = self._draws.var
        if var <= 0.0:
            return float(n)
        tau = self.batch_size * self._batch_means.var / var
        if tau <= 0.0:
            return float(n)
        return float(min(max(n / tau, 1.0), n))


#: Default divergence-rate warning threshold.
DEFAULT_DIVERGENCE_WARN = 0.05

#: Sweeps observed before a divergence rate is considered meaningful.
MIN_SWEEPS = 20


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
    """Cross-chain online diagnostics over a multi-chain run.

    Monitors up to ``max_components`` scalar components per collected
    parameter: each gets a :class:`SplitRhat` across chains and one
    :class:`OnlineEss` per chain.

    **Feeding protocol** — every executor of
    :func:`repro.core.chains.stream_chains` drives the same two calls,
    so the final monitor state is identical whichever executor ran (the
    per-chain feed order is preserved and every accumulator is
    per-(chain, scalar)):

    1. :meth:`observe_chunk` (or :meth:`observe` per draw) as each
       chain's kept draws become available, once per streamed chunk,
       with the chunk's stat digest for the :class:`DivergenceTally`;
    2. :meth:`chain_done` once per chain (progress line).

    :meth:`converged` is the early-stopping predicate the streaming
    engine polls.
    """

    def __init__(
        self,
        param_names: tuple[str, ...],
        n_chains: int,
        total_draws: int,
        max_components: int = 4,
        rhat_warn: float = 1.05,
        divergence_warn: float = DEFAULT_DIVERGENCE_WARN,
        emit=None,
    ):
        self.param_names = tuple(param_names)
        self.n_chains = n_chains
        self.total_draws = total_draws
        self.max_components = max_components
        self.rhat_warn = rhat_warn
        self.divergence = DivergenceTally(divergence_warn)
        self.emit = emit  # callable(str) for incremental progress lines
        self._rhat: dict[str, SplitRhat] = {}
        self._ess: dict[str, list[OnlineEss]] = {}
        self._chains_done = 0
        #: Kept draws ingested so far, per chain (drives ``converged``).
        self._draws_seen = [0] * n_chains

    # -- feeding -----------------------------------------------------------

    def _components(self, name: str, value) -> list[tuple[str, float]]:
        # Ragged values carry their scalars in .flat; np.asarray would
        # see an opaque object.
        flat_src = getattr(value, "flat", None)
        if flat_src is not None and not isinstance(value, np.ndarray):
            value = flat_src
        flat = np.ravel(np.asarray(value, dtype=np.float64))
        out = []
        for j in range(min(flat.size, self.max_components)):
            key = name if flat.size == 1 else f"{name}[{j}]"
            out.append((key, float(flat[j])))
        return out

    def observe(self, chain: int, draw_index: int, state: dict) -> None:
        """Ingest one kept draw of one chain."""
        if draw_index >= self._draws_seen[chain]:
            self._draws_seen[chain] = draw_index + 1
        for name in self.param_names:
            if name not in state:
                continue
            for key, value in self._components(name, state[name]):
                rh = self._rhat.get(key)
                if rh is None:
                    rh = self._rhat[key] = SplitRhat(
                        self.n_chains, self.total_draws
                    )
                    self._ess[key] = [OnlineEss() for _ in range(self.n_chains)]
                rh.update(chain, draw_index, value)
                self._ess[key][chain].update(value)

    def observe_chunk(
        self, chain: int, start: int, stop: int, samples: dict, info=None
    ) -> None:
        """Ingest kept draws ``start:stop`` of one chain from its draw
        storage (the streaming executors call this per posted chunk;
        dense parameters index straight into the shared-memory-backed
        arrays, nothing is copied) and the chunk's stat digest ``info``
        (a WARNING line the first time the divergence rate crosses the
        threshold)."""
        if self.divergence.observe(info) and self.emit is not None:
            self.emit(f"WARNING: {self.divergence.warning}")
        for d in range(start, stop):
            state = {}
            for name in self.param_names:
                vals = samples.get(name)
                if vals is not None and d < len(vals):
                    state[name] = vals[d]
            self.observe(chain, d, state)

    def chain_done(self) -> None:
        """Mark one chain complete and emit a progress line."""
        self._chains_done += 1
        if self.emit is not None:
            self.emit(self.progress_line())

    # -- reading -----------------------------------------------------------

    def worst_rhat(self) -> float:
        """The largest split R-hat over the monitored scalars.

        ``inf`` (chains stuck at different values) is the worst value
        there is; ``nan`` (too few draws to tell) is unknown and skipped,
        and is returned only when no scalar has a value yet."""
        known = [v for v in (m.rhat() for m in self._rhat.values())
                 if not math.isnan(v)]
        return max(known) if known else float("nan")

    def converged(self, threshold: float, min_draws: int = 8) -> bool:
        """The early-stopping predicate: True once every chain has fed
        at least ``min_draws`` kept draws and the worst split R-hat over
        every monitored scalar is finite and at or below ``threshold``.
        Deterministic in the monitor state, so the stop decision lands
        on the same draw for the same feed whichever executor runs."""
        if not self._rhat or min(self._draws_seen) < min_draws:
            return False
        worst = self.worst_rhat()
        return math.isfinite(worst) and worst <= threshold

    def min_ess(self) -> float:
        totals = []
        for accs in self._ess.values():
            per_chain = [a.ess() for a in accs]
            finite = [v for v in per_chain if math.isfinite(v)]
            if finite:
                totals.append(sum(finite))
        return min(totals) if totals else float("nan")

    def warnings(self) -> list[str]:
        out = []
        worst = self.worst_rhat()
        if worst > self.rhat_warn:
            out.append(
                f"split R-hat {worst:.3f} exceeds {self.rhat_warn} -- "
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

    def report(self) -> str:
        lines = ["online convergence report:"]
        for key in sorted(self._rhat):
            r = self._rhat[key].rhat()
            per_chain = [a.ess() for a in self._ess[key]]
            finite = [v for v in per_chain if math.isfinite(v)]
            ess = sum(finite) if finite else float("nan")
            rhat_s = "  n/a" if math.isnan(r) else f"{r:5.3f}"
            ess_s = f"{ess:8.0f}" if math.isfinite(ess) else "     n/a"
            flag = "  <-- " if r > self.rhat_warn else ""
            lines.append(f"  {key:20s} split R-hat {rhat_s}  ESS {ess_s}{flag}")
        lines.extend(self.divergence.lines())
        warns = self.warnings()
        if warns:
            lines.extend(f"  WARNING: {w}" for w in warns)
        else:
            lines.append("  all monitors within thresholds")
        return "\n".join(lines)
