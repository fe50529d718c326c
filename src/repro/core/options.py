"""Compilation options (the ``Opt`` object of Figure 2).

``target`` selects CPU or (simulated) GPU code generation.  The
remaining switches exist for the DESIGN.md ablation benchmarks: they
turn individual compiler optimisations off so their effect can be
measured.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.blk.optimize import (
    COMMUTE_FACTOR,
    CONTENTION_THRESHOLD,
    OptimizeConfig,
)


@dataclass(frozen=True)
class CompileOptions:
    #: "cpu" or "gpu" (the simulated device).
    target: str = "cpu"
    #: Vectorise parallel loops (CPU analog of emitting parallel code);
    #: off = plain Python loops, the "interpreted" worst case.
    vectorize: bool = True
    #: Blk-IL loop commuting (Section 5.4).
    commute_loops: bool = True
    #: Blk-IL AtmPar -> sumBlk conversion (Section 5.4).
    sum_block_conversion: bool = True
    #: The categorical-indexing conditional rewrite (Section 3.3).
    categorical_rule: bool = True
    #: Batched element-parallel MH/Slice/ESlice execution: emit a
    #: vectorised per-lane conditional next to the scalar one and drive
    #: all element lanes per sweep in whole-vector calls.  Off = the
    #: scalar per-element drivers only (also overridable per update via
    #: the ``batch=off`` schedule option).
    batch_elements: bool = True
    #: Emit a fused ``ll_grad_<block>`` declaration for gradient-based
    #: updates (HMC/NUTS): one compiled call returns the block log
    #: density and every adjoint, sharing the forward pass, with the
    #: adjoint buffers as pre-allocated workspaces zeroed in place.  Off
    #: (or when fusion is unsafe for a block) = the separate ``ll`` /
    #: ``grad`` pair only.
    fuse_gradient: bool = True
    #: Default HMC integrator settings (overridable per update via
    #: schedule options, e.g. ``HMC[steps=30, step_size=0.02] theta``).
    hmc_steps: int = 20
    hmc_step_size: float = 0.05

    def __post_init__(self) -> None:
        if self.target not in ("cpu", "gpu"):
            raise ValueError(f"unknown target {self.target!r}; use 'cpu' or 'gpu'")

    def replace(self, **changes) -> "CompileOptions":
        """A copy with the given fields swapped (tuner candidate variants)."""
        import dataclasses

        return dataclasses.replace(self, **changes)

    def blk_config(self) -> OptimizeConfig:
        return OptimizeConfig(
            commute_loops=self.commute_loops,
            sum_block_conversion=self.sum_block_conversion,
            commute_factor=COMMUTE_FACTOR,
            contention_threshold=CONTENTION_THRESHOLD,
        )
