"""Live streaming progress for multi-chain runs.

:class:`StreamProgress` renders a single carriage-return-refreshed
status line while a :class:`~repro.core.chains.ChainStream` is
iterated: per-chain kept draws, aggregate draws/s, the current worst
split R-hat of the stream's monitor, the stream's divergence count, the
acceptance digest riding in each chunk's ``info`` and the warmup
progress in its ``phase``.  Whole lines printed while the status line
is up (the monitor's, the run's divergence WARNING) go through
:meth:`StreamProgress.emit`, which prints them on a line of their own
and redraws the status line below.  It is TTY-only by design — the CLI
falls back to plain per-chunk lines when stderr is redirected, so logs
stay greppable.
"""

from __future__ import annotations

import sys
import time


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

    Feed every :class:`~repro.core.chains.ChainChunk` to :meth:`update`
    with the :class:`~repro.core.chains.ChainStream` it came from; call
    :meth:`close` when the stream is exhausted so the final line
    persists (followed by a newline).
    """

    def __init__(self, n_chains: int, total_draws: int, out=None,
                 clock=time.monotonic):
        self.n_chains = n_chains
        self.total = total_draws
        self.out = out if out is not None else sys.stderr
        self._clock = clock
        self._start = clock()
        self.kept = [0] * n_chains
        self._line = ""
        self._accept_last: float | None = None
        self._step_size: float | None = None
        self._phase: str | None = None
        self._warmup_sweep = [0] * n_chains
        self._warmup_total = 0

    # -- feeding -----------------------------------------------------------

    def update(self, chunk, stream) -> None:
        """Take in ``chunk`` and redraw the status line from it and
        ``stream`` (its ``monitor`` and ``divergence``)."""
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
        self._render(stream)

    def emit(self, text: str) -> None:
        """Print ``text`` on a line of its own, over the status line,
        and redraw the status line below it."""
        self.out.write("\r" + text.ljust(len(self._line)) + "\n" + self._line)
        self.out.flush()

    def close(self) -> None:
        self.out.write("\n")
        self.out.flush()

    # -- rendering ---------------------------------------------------------

    def _draw(self, line: str) -> None:
        self.out.write("\r" + line.ljust(len(self._line)))
        self.out.flush()
        self._line = line

    def _render(self, stream) -> None:
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
            self._draw(line)
            return
        chains = " ".join(
            f"c{i}:{k}/{self.total}" for i, k in enumerate(self.kept)
        )
        monitor = stream.monitor
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
        divergence = stream.divergence
        if divergence.divergent:
            line += f" | divergent {divergence.divergent}"
        if divergence.nan_rejects:
            line += f" | nan-rejects {divergence.nan_rejects}"
        self._draw(line)
