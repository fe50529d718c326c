"""Compilation options (the ``Opt`` object of Figure 2).

``target`` selects CPU or (simulated) GPU code generation, and with it
how each gradient block compiles: one fused value+gradient declaration
on the CPU, the separate log-density and gradient kernels on the GPU.
The other three switches turn one paper optimisation off each:
``vectorize`` and ``categorical_rule`` for the ablation experiments
(``repro.eval.experiments.ablations``), ``sum_block_conversion`` for
the HLR experiment (``repro.eval.experiments.hlr``) and
``examples/gpu_vs_cpu.py``.  Everything else -- batching element
updates, fusing kernel loops, commuting loops, the Blk-IL thresholds --
the compiler decides from the model and the runtime sizes; the
``[batch=off]``, ``steps`` and ``step_size`` schedule options override
it per update.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.blk.optimize import OptimizeConfig


@dataclass(frozen=True)
class CompileOptions:
    #: "cpu" or "gpu" (the simulated device).
    target: str = "cpu"
    #: Vectorise parallel loops (CPU analog of emitting parallel code);
    #: off = plain Python loops, the "interpreted" worst case.
    vectorize: bool = True
    #: Blk-IL AtmPar -> sumBlk conversion (Section 5.4).
    sum_block_conversion: bool = True
    #: The categorical-indexing conditional rewrite (Section 3.3).
    categorical_rule: bool = True

    def __post_init__(self) -> None:
        if self.target not in ("cpu", "gpu"):
            raise ValueError(f"unknown target {self.target!r}; use 'cpu' or 'gpu'")

    def blk_config(self) -> OptimizeConfig:
        return OptimizeConfig(sum_block_conversion=self.sum_block_conversion)
