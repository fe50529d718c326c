"""The simulated device: accumulates time charged by generated code.

Generated GPU functions receive a :class:`Device` and call its charge
methods as they execute each Blk-IL block.  The device keeps both the
running clock and per-category counters so benchmarks and tests can
inspect *why* time was spent (e.g. how much went to atomic contention
before/after the summation-block ablation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.costmodel import CostModel


@dataclass
class DeviceStats:
    kernels_launched: int = 0
    reduce_kernels: int = 0
    seq_blocks: int = 0
    par_time: float = 0.0
    atomic_time: float = 0.0
    reduce_time: float = 0.0
    seq_time: float = 0.0

    def total(self) -> float:
        return (
            self.par_time
            + self.atomic_time
            + self.reduce_time
            + self.seq_time
        )


class Device:
    """A simulated SIMT device with a cost-model clock."""

    def __init__(self, cost: CostModel | None = None):
        self.cost = cost or CostModel()
        self.stats = DeviceStats()

    # -- charges called from generated code -------------------------------

    def par(self, threads: int, ops: int, atomic_locations: int | None = None) -> None:
        """A ``parBlk`` launch; ``atomic_locations`` given for AtmPar
        blocks whose increments were not converted to reductions."""
        self.stats.kernels_launched += 1
        self.stats.par_time += self.cost.par_time(int(threads), int(ops))
        if atomic_locations is not None:
            self.stats.atomic_time += self.cost.atomic_penalty(
                int(threads), int(atomic_locations)
            )

    def reduce(self, threads: int, ops: int) -> None:
        """A ``sumBlk`` map-reduce launch."""
        self.stats.reduce_kernels += 1
        self.stats.reduce_time += self.cost.reduce_time(int(threads), int(ops))

    def seq(self, ops: int) -> None:
        """Sequential device code (``seqBlk`` or a fallback loop)."""
        self.stats.seq_blocks += 1
        self.stats.seq_time += self.cost.seq_time(int(ops))

    # -- inspection --------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Simulated device seconds so far."""
        return self.stats.total()

    def reset(self) -> None:
        self.stats = DeviceStats()

    def snapshot(self) -> DeviceStats:
        from copy import copy

        return copy(self.stats)
