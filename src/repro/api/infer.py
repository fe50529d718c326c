"""The ``Infer`` interface: the paper's Figure 2 usage pattern.

::

    import repro as AugurV2Lib

    with AugurV2Lib.Infer('path/to/model') as aug:
        opt = AugurV2Lib.Opt(target='cpu')
        aug.setCompileOpt(opt)
        aug.setUserSched('ESlice mu (*) Gibbs z')
        aug.compile(K, N, mu0, S0, pis, S)(x)
        samples = aug.sample(numSamples=1000)

``Infer`` accepts either a path to a model file or the model source
itself (any string containing ``=>`` is treated as source).  The
compiler is invoked at runtime when the data is supplied, matching the
paper: "given different data sizes and hyper-parameter settings, the
AugurV2 compiler may choose to generate a different MCMC algorithm".
"""

from __future__ import annotations

import os

from repro.core.compiler import compile_model
from repro.core.frontend.parser import parse_model
from repro.core.options import CompileOptions
from repro.core.sampler import CompiledSampler, SampleResult
from repro.errors import ReproError
from repro.runtime.rng import Rng

#: The Figure 2 spelling for compilation options.
Opt = CompileOptions


class Infer:
    """Inference object for one model (the ``AugurV2Infer`` class)."""

    def __init__(self, model: str):
        if "=>" in model:
            self._source = model
        else:
            if not os.path.exists(model):
                raise ReproError(f"model file not found: {model!r}")
            with open(model) as f:
                self._source = f.read()
        self._model = parse_model(self._source)
        self._options = CompileOptions()
        self._schedule: str | None = None
        self._proposals: dict = {}
        self._sampler: CompiledSampler | None = None
        self._rng = Rng(0)

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Infer":
        return self

    def __exit__(self, *exc) -> None:
        return None

    # -- configuration (Figure 2 method names) ------------------------------

    def setCompileOpt(self, opt: CompileOptions) -> None:
        self._options = opt

    def setUserSched(self, schedule: str) -> None:
        self._schedule = schedule

    def setSeed(self, seed: int) -> None:
        self._rng = Rng(seed)

    def setProposal(self, name: str, proposal) -> None:
        """Attach a user MH proposal ``fn(value, rng) -> (candidate,
        log_q_ratio)`` for a variable scheduled with the MH update."""
        self._proposals[name] = proposal

    # -- compilation ---------------------------------------------------------

    def compile(self, *hyper_values):
        """Bind hyper-parameters positionally; returns a callable that
        takes the observed data (in declaration order) and compiles."""
        hypers = self._model.hypers
        if len(hyper_values) != len(hypers):
            raise ReproError(
                f"model closes over {len(hypers)} values {hypers}, "
                f"got {len(hyper_values)}"
            )
        bound = dict(zip(hypers, hyper_values))
        data_decls = [d.name for d in self._model.data]

        def with_data(*data_values) -> "Infer":
            if len(data_values) != len(data_decls):
                raise ReproError(
                    f"model observes {len(data_decls)} data variables "
                    f"{data_decls}, got {len(data_values)}"
                )
            data = dict(zip(data_decls, data_values))
            self._sampler = compile_model(
                self._source,
                bound,
                data,
                options=self._options,
                schedule=self._schedule,
                proposals=self._proposals or None,
            )
            return self

        return with_data

    # -- inference -------------------------------------------------------------

    @property
    def sampler(self) -> CompiledSampler:
        if self._sampler is None:
            raise ReproError("call compile(...)(data...) before sampling")
        return self._sampler

    def sample(
        self,
        numSamples: int,
        burnIn: int = 0,
        thin: int = 1,
        collect: tuple[str, ...] | None = None,
        init: dict | None = None,
        callback=None,
        collect_stats: bool = False,
        profile: bool = False,
        warmup: int = 0,
        targetAccept: float = 0.8,
    ) -> SampleResult:
        """Draw posterior samples; ``collect_stats=True`` additionally
        records per-sweep statistics for every base update of the
        composed kernel (``result.stats`` / ``result.sample_stats``);
        ``profile=True`` attributes sweep wall-time per update /
        generated declaration / model statement (``result.profile``);
        ``warmup=N`` prepends N adaptation sweeps during which HMC/NUTS
        updates tune their step size (dual averaging toward
        ``targetAccept``) and diagonal mass matrix."""
        return self.sampler.sample(
            num_samples=numSamples,
            burn_in=burnIn,
            thin=thin,
            seed=self._rng,
            collect=collect,
            init=init,
            callback=callback,
            collect_stats=collect_stats,
            profile=profile,
            warmup=warmup,
            target_accept=targetAccept,
        )

    # -- introspection -----------------------------------------------------------

    @property
    def source(self) -> str:
        """Generated backend source for the compiled sampler."""
        return self.sampler.source

    @property
    def compile_seconds(self) -> float:
        return self.sampler.compile_seconds

    def schedule_description(self) -> str:
        return self.sampler.schedule_description()

    def explain(self) -> str:
        """The compiler decision ledger, human-readable."""
        return self.sampler.explain()

    def explain_json(self) -> list[dict]:
        """The compiler decision ledger, machine-readable."""
        return self.sampler.explain_json()
