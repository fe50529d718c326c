"""The streaming progress line and the service metrics aggregates."""

from __future__ import annotations

import io

from repro.core.chains import ChainChunk
from repro.telemetry.monitors import DivergenceTally
from repro.telemetry.progress import StreamProgress
from repro.telemetry.requests import ServiceMetrics


def _chunk(chain, start, stop, info=None):
    return ChainChunk(chain=chain, start=start, stop=stop, samples={},
                      info=info)


class _Stream:
    """What the progress line reads of a ``ChainStream``: its monitor
    and its divergence tally, which takes each chunk's digest before
    the chunk is handed on, as the stream's does."""

    def __init__(self, monitor=None):
        self.monitor = monitor
        self.divergence = DivergenceTally()

    def follow(self, progress, chunk):
        self.divergence.observe(chunk.info)
        progress.update(chunk, self)


class TestStreamProgress:
    def test_renders_single_refreshing_line(self):
        out = io.StringIO()
        ticks = iter([0.0, 1.0, 2.0])
        progress = StreamProgress(2, 10, out=out, clock=lambda: next(ticks))
        stream = _Stream()
        stream.follow(progress, _chunk(0, 0, 5))
        stream.follow(progress, _chunk(1, 0, 5))
        progress.close()
        text = out.getvalue()
        assert text.count("\r") == 2  # one refresh per chunk
        assert text.endswith("\n")
        last = text.rstrip("\n").rsplit("\r", 1)[-1]
        assert "c0:5/10" in last and "c1:5/10" in last
        assert "5.0 draws/s" in last  # 10 draws over 2 ticks
        assert "R-hat -" in last  # no monitor attached

    def test_info_digest_feeds_the_line(self):
        out = io.StringIO()
        progress = StreamProgress(1, 10, out=out, clock=lambda: 1.0)
        _Stream().follow(
            progress,
            _chunk(0, 0, 5, info={
                "HMC theta": {
                    "accept_rate": 0.8, "n_proposed": 5,
                    "nan_rejects": 2, "divergent": 1, "n_sweeps": 5,
                },
            }),
        )
        line = out.getvalue()
        assert "accept 0.80" in line
        assert "divergent 1" in line
        assert "nan-rejects 2" in line

    def test_monitor_rhat_is_shown(self):
        class FakeMonitor:
            def worst_rhat(self):
                return 1.0421

        out = io.StringIO()
        progress = StreamProgress(1, 4, out=out, clock=lambda: 1.0)
        _Stream(FakeMonitor()).follow(progress, _chunk(0, 0, 2))
        assert "R-hat 1.042" in out.getvalue()

    def test_emitted_lines_keep_the_status_line_whole(self):
        out = io.StringIO()
        progress = StreamProgress(1, 10, out=out, clock=lambda: 1.0)
        stream = _Stream()
        stream.follow(progress, _chunk(0, 0, 5))
        status = out.getvalue().rsplit("\r", 1)[-1]
        progress.emit("[monitor] chains 1/1 done")
        progress.close()
        # The emitted line overwrites the status line from column 0,
        # padded over its whole width, and the status line is redrawn
        # on the next line.
        rows = out.getvalue().split("\n")
        assert rows[0].rsplit("\r", 1)[-1] == (
            "[monitor] chains 1/1 done".ljust(len(status))
        )
        assert rows[1] == status
        assert rows[2] == ""


class TestServiceMetrics:
    def test_aggregates_and_recent_ring(self):
        metrics = ServiceMetrics(recent=2)
        for i in range(3):
            metrics.record(
                request_id=f"r{i}", queue_wait_s=0.5, compile_s=0.1,
                sampling_s=2.0, cache_hit=i > 0, sweeps=100, draws=50,
                stop_reason="deadline" if i == 0 else None,
                resumed=i == 2, checkpointed=i == 0,
            )
        metrics.record_error()
        snap = metrics.snapshot()
        assert snap["requests"] == 3
        assert snap["errors"] == 1
        assert snap["compile_cache"] == {"hits": 2, "misses": 1}
        assert snap["stops"]["deadline"] == 1
        assert snap["checkpoints_saved"] == 1
        assert snap["resumed_requests"] == 1
        assert snap["mean_queue_wait_s"] == 0.5
        assert snap["sweeps_per_s"] == 50.0
        assert [r["request_id"] for r in snap["recent"]] == ["r1", "r2"]
