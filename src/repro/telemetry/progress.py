"""Live streaming progress for multi-chain runs.

:class:`StreamProgress` renders a single carriage-return-refreshed
status line while a :class:`~repro.core.chains.ChainStream` is
iterated: per-chain kept draws, aggregate draws/s, the monitor's
current worst split R-hat, the divergence/acceptance digest riding
in each chunk's ``info`` and the warmup progress in its ``phase``.
It is TTY-only by design — the CLI falls back to plain per-chunk lines
when stderr is redirected, so logs stay greppable.
"""

from __future__ import annotations

import sys
import time

from repro.telemetry.monitors import DEFAULT_DIVERGENCE_WARN, DivergenceTally


def _fmt_rhat(value) -> str:
    if value is None:
        return "-"
    try:
        v = float(value)
    except (TypeError, ValueError):
        return "-"
    if v != v:
        return "-"
    return f"{v:.3f}"  # "inf" for chains stuck at different values


class StreamProgress:
    """One updating status line for a streaming run.

    Feed every :class:`~repro.core.chains.ChainChunk` to
    :meth:`update`; call :meth:`close` when the stream is exhausted so
    the final line persists (followed by a newline).
    """

    def __init__(
        self,
        n_chains: int,
        total_draws: int,
        out=None,
        clock=time.monotonic,
        divergence_warn: float = DEFAULT_DIVERGENCE_WARN,
    ):
        self.n_chains = n_chains
        self.total = total_draws
        self.out = out if out is not None else sys.stderr
        self._clock = clock
        self._start = clock()
        self.kept = [0] * n_chains
        self.divergence = DivergenceTally(divergence_warn)
        self._accept_last: float | None = None
        self._step_size: float | None = None
        self._phase: str | None = None
        self._warmup_sweep = [0] * n_chains
        self._warmup_total = 0
        self._width = 0

    # -- feeding -----------------------------------------------------------

    def update(self, chunk, monitor=None) -> None:
        self.kept[chunk.chain] = chunk.stop
        if chunk.info:
            accepts = []
            for entry in chunk.info.values():
                if entry.get("step_size") is not None:
                    self._step_size = entry["step_size"]
                rate = entry.get("accept_rate")
                if rate is not None and rate == rate:
                    accepts.append(rate)
            if accepts:
                self._accept_last = sum(accepts) / len(accepts)
        phase = chunk.phase
        if phase is not None:
            self._phase = phase["phase"]
            if phase["step_size"] is not None:
                self._step_size = phase["step_size"]
            if self._phase == "warmup":
                self._warmup_sweep[chunk.chain] = phase["sweep"]
                self._warmup_total = phase["warmup"]
        if self.divergence.observe(chunk.info):
            # One WARNING line per run, when the rate first crosses.
            msg = f"WARNING: {self.divergence.warning}"
            pad = max(0, self._width - len(msg))
            self.out.write("\r" + msg + " " * pad + "\n")
            self._width = 0
        self._render(monitor)

    def close(self) -> None:
        self.out.write("\n")
        self.out.flush()

    # -- rendering ---------------------------------------------------------

    def _render(self, monitor) -> None:
        elapsed = max(self._clock() - self._start, 1e-9)
        done = sum(self.kept)
        rate = done / elapsed
        if self._phase == "warmup":
            chains = " ".join(
                f"c{i}:{s}/{self._warmup_total}"
                for i, s in enumerate(self._warmup_sweep)
            )
            line = f"[stream] warmup {chains}"
            if self._step_size is not None:
                line += f" | step {self._step_size:.3g}"
            pad = max(0, self._width - len(line))
            self._width = len(line)
            self.out.write("\r" + line + " " * pad)
            self.out.flush()
            return
        chains = " ".join(
            f"c{i}:{k}/{self.total}" for i, k in enumerate(self.kept)
        )
        rhat = _fmt_rhat(
            monitor.worst_rhat() if monitor is not None else None
        )
        line = (
            f"[stream] {chains} | {rate:7.1f} draws/s | R-hat {rhat}"
        )
        if self._accept_last is not None:
            line += f" | accept {self._accept_last:.2f}"
        if self._step_size is not None:
            line += f" | step {self._step_size:.3g}"
        if self.divergence.divergent:
            line += f" | divergent {self.divergence.divergent}"
        if self.divergence.nan_rejects:
            line += f" | nan-rejects {self.divergence.nan_rejects}"
        pad = max(0, self._width - len(line))
        self._width = len(line)
        self.out.write("\r" + line + " " * pad)
        self.out.flush()
