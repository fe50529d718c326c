"""The device cost model.

Parameters loosely follow a Kepler-class card (the paper's Titan
Black): a few thousand resident lanes, microsecond-scale kernel-launch
overhead, nanosecond-scale per-lane operation throughput, and a heavy
penalty for serialised atomic traffic on hot locations.

Only *ratios* matter for reproducing the paper's trends; the absolute
scale is calibrated once in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    #: Effective number of lanes that execute concurrently.  A
    #: Kepler-class card has thousands of CUDA cores, but the Gibbs
    #: kernels this compiler emits are memory-bound (scatters, gathers,
    #: atomics), so the *effective* concurrency is far lower; this value
    #: is calibrated so the Figure 12 speedup band lands near the
    #: paper's 2.7-5.8x (see EXPERIMENTS.md).
    width: int = 256
    #: Seconds per kernel launch (driver + dispatch overhead).
    launch_overhead: float = 8e-6
    #: Seconds per primitive operation per lane.
    op_time: float = 1.2e-9
    #: Seconds per atomic memory operation when serialised.
    atomic_time: float = 1.5e-8
    #: Slowdown of a single device thread running sequential code
    #: relative to a lane executing within a full kernel.
    seq_penalty: float = 24.0

    def par_time(self, threads: int, ops: int) -> float:
        """A data-parallel kernel: launch + waves of ``width`` lanes."""
        if threads <= 0:
            return self.launch_overhead
        waves = math.ceil(threads / self.width)
        return self.launch_overhead + waves * ops * self.op_time

    def atomic_penalty(self, threads: int, locations: int) -> float:
        """Serialisation cost of atomics: traffic concentrates on
        ``locations`` cells, so at most ``min(locations, width)`` atomic
        updates proceed concurrently."""
        if threads <= 0:
            return 0.0
        concurrency = max(1, min(locations, self.width))
        return self.atomic_time * threads / concurrency

    def reduce_time(self, threads: int, ops: int) -> float:
        """A map-reduce kernel: the map waves plus a log-tree combine."""
        if threads <= 0:
            return self.launch_overhead
        waves = math.ceil(threads / self.width)
        tree = math.ceil(math.log2(max(2, threads))) * self.op_time * waves
        return self.launch_overhead + waves * ops * self.op_time + tree

    def seq_time(self, ops: int) -> float:
        """Sequential device code: one lane, penalised."""
        return ops * self.op_time * self.seq_penalty
