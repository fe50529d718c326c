"""The compiler driver: model + query -> executable MCMC (Figure 3).

Runs the full pipeline:

1. **Frontend** -- parse, type-check against the runtime values, lower
   to the Density IL, factorize.
2. **Middle-end** -- select or validate the kernel (user schedule or
   heuristic), compute symbolic conditionals, generate Low++ update
   code (conjugate Gibbs, enumeration Gibbs, likelihoods, AD
   gradients), plus state initialisation and the model log joint.
3. **Backend** -- size inference and up-front allocation, lowering to
   Low-- (and, for the GPU target, to the optimised Blk IL), Python
   source emission, ``compile()``/``exec()``, and synthesis of the
   complete MCMC algorithm by wiring generated primitives to the
   library drivers (Section 5.5).

A keyed **compile cache** (model source + schedule + options + runtime
value fingerprint) short-circuits steps 1-2 and the source emission of
step 3 for repeated compilations of an unchanged model: a cache hit
re-``exec``s the cached code object into a fresh namespace, allocates
fresh workspaces, and rewires drivers.  Worker processes rehydrating a
sampler from its :class:`~repro.core.chains.SamplerSpec` lean on this,
as does any serving loop that recompiles per request.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.backend.cpu import emit_cpu_source, exec_cpu_module
from repro.core.backend.emitter import op_count_code
from repro.core.backend.drivers import (
    ESliceDriver,
    GibbsDriver,
    GradBlockDriver,
    MHDriver,
    SliceDriver,
    UpdateDriver,
    VectorizedESliceDriver,
    VectorizedMHDriver,
    VectorizedSliceDriver,
)
from repro.core.backend.gpu import compile_gpu_module
from repro.core.chains import SamplerSpec
from repro.core.density.conditionals import BlockConditional, Conditional
from repro.core.density.lower import lower_and_factorize
from repro.core.exprs import mentions
from repro.core.frontend.parser import parse_model
from repro.core.frontend.symbols import ModelInfo, analyze_model
from repro.core.frontend.typecheck import type_of_value
from repro.core.kernel.conjugacy import ConjugacyMatch, EnumerationMatch
from repro.core.kernel.heuristic import heuristic_schedule
from repro.core.kernel.ir import KBase, UpdateMethod, flatten
from repro.core.kernel.schedule import parse_schedule
from repro.core.kernel.validate import validate_schedule
from repro.core.lowmm.ir import LowDecl, lower_decl
from repro.core.lowmm.size_inference import (
    AllocationPlan,
    allocate_workspaces,
    build_pack_plan,
    build_plan,
)
from repro.core.lowpp.ad import gen_grad, gen_ll_grad
from repro.core.lowpp.gen_gibbs import gen_gibbs_conjugate, gen_gibbs_enumeration
from repro.core.lowpp.gen_init import gen_forward, gen_init
from repro.core.lowpp.gen_ll import (
    gen_block_ll,
    gen_cond_ll,
    gen_cond_ll_batch,
    gen_model_ll,
)
from repro.core.lowpp.verify import verify_decl
from repro.core.options import CompileOptions
from repro.core.provenance import build_source_map
from repro.core.sampler import CompiledSampler
from repro.errors import ReproError
from repro.gpusim import Device
from repro.runtime.transforms import transform_for_support
from repro.runtime.vectors import RaggedArray
from repro.telemetry import trace
from repro.telemetry.explain import CompileLedger

#: HMC integrator settings for a gradient block whose schedule entry
#: pins neither ``step_size`` nor ``steps``.
DEFAULT_STEP_SIZE = 0.05
DEFAULT_N_STEPS = 20


# ----------------------------------------------------------------------
# Compile cache.
# ----------------------------------------------------------------------


@dataclass
class CompileCacheStats:
    """Hit/miss counters for the keyed compile cache."""

    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class _CacheEntry:
    """Everything reusable from one compilation: the generated source
    and its code object, the allocation plan, and the driver wiring
    recipe.  All fields are treated as immutable; per-sampler mutable
    state (namespace, workspaces, drivers) is rebuilt on every hit."""

    source_text: str
    code: object
    plan: AllocationPlan
    driver_specs: tuple
    info: ModelInfo
    param_names: tuple[str, ...]
    data_names: frozenset[str]
    #: Codegen-time decision ledger: a cache hit replays these entries
    #: (via clone) before the per-assembly wiring entries are appended.
    ledger: CompileLedger
    #: Model-statement name -> (line, source text) for rendering
    #: provenance back to what the user wrote.
    source_map: dict
    #: Generated decl name -> op-count Python expression (the profiler
    #: evaluates these against the live environment for ops/s).
    op_count_exprs: dict
    #: Generated decl name -> Provenance of its originating statements.
    decl_provenance: dict


_CACHE_CAPACITY = 64
_cache: OrderedDict[str, _CacheEntry] = OrderedDict()
_cache_stats = CompileCacheStats()


def compile_cache_stats() -> CompileCacheStats:
    """The live hit/miss counters (process-wide)."""
    return _cache_stats


def clear_compile_cache() -> None:
    """Drop every cached compilation and reset the counters."""
    _cache.clear()
    _cache_stats.hits = 0
    _cache_stats.misses = 0


def _hash_value(h, v) -> None:
    if isinstance(v, RaggedArray):
        h.update(b"ragged")
        _hash_value(h, v.flat)
        _hash_value(h, v.offsets)
    elif isinstance(v, np.ndarray):
        h.update(str(v.dtype).encode())
        h.update(str(v.shape).encode())
        h.update(np.ascontiguousarray(v).tobytes())
    else:
        h.update(repr(v).encode())


def _cache_key(
    source: str,
    hyper_values: dict,
    data_values: dict,
    options: CompileOptions,
    schedule: str | None,
    hash_value=_hash_value,
    prefix: bytes = b"",
) -> str:
    h = hashlib.sha256()
    h.update(prefix)
    for part in (source, repr(schedule), repr(options)):
        h.update(part.encode())
        h.update(b"\x00")
    for tag, values in (("hyper", hyper_values), ("data", data_values)):
        h.update(tag.encode())
        for name in sorted(values):
            h.update(name.encode())
            h.update(b"=")
            hash_value(h, values[name])
            h.update(b";")
    return h.hexdigest()


def spec_cache_key(spec) -> str:
    """The compile-cache fingerprint of a
    :class:`repro.core.chains.SamplerSpec`.

    The warm worker pool keys its pools on this: two samplers whose
    specs fingerprint identically rebuild from the same cache entry, so
    a pool spawned for one serves repeated chain requests for the other
    without re-pickling or recompiling.
    """
    options = spec.options or CompileOptions()
    return _cache_key(
        spec.source, spec.hyper_values, spec.data_values, options,
        spec.schedule,
    )


def _hash_shape(h, v) -> None:
    """Hash a value's *shape signature* only: dtype + dimensions for
    arrays, the raw value for scalars (scalars parameterize model sizes,
    so two datasets agreeing on every scalar and every array shape
    exercise the same generated code)."""
    if isinstance(v, RaggedArray):
        h.update(b"ragged")
        h.update(str(v.flat.dtype).encode())
        h.update(str(v.flat.shape).encode())
        h.update(np.ascontiguousarray(v.offsets).tobytes())
    elif isinstance(v, np.ndarray):
        h.update(str(v.dtype).encode())
        h.update(str(v.shape).encode())
    else:
        h.update(repr(v).encode())


def shape_cache_key(
    source: str,
    hyper_values: dict,
    data_values: dict,
    options: CompileOptions | None = None,
    schedule: str | None = None,
) -> str:
    """The *data-shape* fingerprint of a compile request.

    Like :func:`_cache_key` but hashing array dtypes/shapes instead of
    their contents.  The schedule autotuner keys its verdict cache on
    this: a tuning tournament's winner depends on model structure and
    data sizes, not the observed values, so all datasets sharing a
    shape signature reuse one verdict.
    """
    return _cache_key(
        source, hyper_values, data_values, options or CompileOptions(),
        schedule, hash_value=_hash_shape, prefix=b"shape\x00",
    )


def _cache_get(key: str) -> _CacheEntry | None:
    entry = _cache.get(key)
    if entry is not None:
        _cache.move_to_end(key)
        _cache_stats.hits += 1
    else:
        _cache_stats.misses += 1
    return entry


def _cache_put(key: str, entry: _CacheEntry) -> None:
    _cache[key] = entry
    _cache.move_to_end(key)
    while len(_cache) > _CACHE_CAPACITY:
        _cache.popitem(last=False)


# ----------------------------------------------------------------------
# The driver.
# ----------------------------------------------------------------------


def compile_model(
    source: str,
    hyper_values: dict,
    data_values: dict,
    options: CompileOptions | None = None,
    schedule: str | None = None,
    proposals: dict | None = None,
) -> CompiledSampler:
    """Compile a model and a posterior-sampling query into a sampler.

    ``proposals`` optionally maps a variable name to a user MH proposal
    ``fn(value, rng) -> (candidate, log_q_ratio)``; the variable must be
    scheduled with the ``MH`` update (Section 4.4's "user-supplied MH
    proposals").
    """
    options = options or CompileOptions()
    t_start = time.perf_counter()

    cacheable = options.target == "cpu"
    key = None
    if cacheable:
        with trace.span("cache.lookup", cat="compile"):
            key = _cache_key(source, hyper_values, data_values, options, schedule)
            entry = _cache_get(key)
        trace.instant(
            "cache.hit" if entry is not None else "cache.miss", cat="compile",
            key=key[:16],
        )
        if entry is not None:
            return _assemble(
                entry, source, hyper_values, data_values, options, schedule,
                proposals, t_start, cache_status="hit",
            )

    model, info, fd, kernel = front_end(
        source, hyper_values, data_values, options, schedule
    )
    data_names = set(info.data_names())
    env = dict(hyper_values)
    env.update({k: v for k, v in data_values.items() if k in data_names})

    decls: list[LowDecl] = []
    driver_specs: list[tuple] = []
    ws_specs: list = []
    ledger = CompileLedger()
    source_map = build_source_map(model)

    with trace.span("codegen.updates", cat="compile"):
        for upd in flatten(kernel):
            _record_kernel_choice(ledger, upd, user_schedule=schedule is not None)
            decl_infos = _generate_update(upd, fd, info, options, ledger)
            for low in decl_infos["decls"]:
                decls.append(low)
            ws_specs.extend(decl_infos["workspaces"])
            driver_specs.append((upd, decl_infos))

        init_decl = gen_init(info, fd)
        forward_decl = gen_forward(info, fd)
        model_ll_decl = gen_model_ll(fd)
        decls.append(lower_decl(init_decl, writes=tuple(info.param_names())))
        decls.append(lower_decl(forward_decl, writes=tuple(info.data_names())))
        decls.append(lower_decl(model_ll_decl))

    # Well-formedness check on every generated declaration (turns code
    # generator bugs into named compile-time errors).
    with trace.span("codegen.verify", cat="compile", n_decls=len(decls)):
        for low in decls:
            verify_decl(low.decl)

    # ---- Backend --------------------------------------------------------
    with trace.span("backend.plan", cat="compile"):
        plan = build_plan(info, env, tuple(ws_specs))
        ragged = _ragged_names(plan, env)

    decl_provenance = {low.name: low.provenance for low in decls}
    op_count_exprs = {low.name: op_count_code(low.decl.body) for low in decls}

    if options.target == "gpu":
        return _assemble_gpu(
            decls, env, ragged, plan, driver_specs, info, options,
            source, hyper_values, data_values, schedule, proposals, t_start,
            ledger, source_map, op_count_exprs, decl_provenance,
        )

    with trace.span("backend.emit", cat="compile"):
        fallback_counts: dict[str, int] = {}
        source_text = emit_cpu_source(
            decls, ragged, vectorize=options.vectorize,
            fallback_counts=fallback_counts,
        )
        code = compile(source_text, "<augur_cpu>", "exec")
    # The batched driver is only wired when every parallel loop of its
    # conditional vectorised (ragged gathers etc. fall back to the
    # scalar per-element path).
    for _upd, gen_info in driver_specs:
        batch_low = gen_info.get("batch_low")
        if batch_low is not None:
            gen_info["batch_ok"] = fallback_counts[batch_low.name] == 0
            if not gen_info["batch_ok"]:
                gen_info["batch_reason"] = (
                    "the generated batched conditional does not fully "
                    "vectorise (a parallel loop falls back to a Python "
                    "loop), so the scalar per-element path is faster"
                )
            trace.instant(
                "batch.vectorized" if gen_info["batch_ok"] else "batch.fallback",
                cat="compile",
                decl=batch_low.decl.name,
            )
    for name, n_fallbacks in fallback_counts.items():
        if not options.vectorize:
            choice, why = "python-loops", (
                "whole-module vectorisation is disabled (vectorize=False)"
            )
        elif n_fallbacks:
            choice, why = "python-loops", (
                f"{n_fallbacks} parallel loop(s) fell back to interpreted "
                "Python loops (ragged gather or data-dependent indexing)"
            )
        else:
            choice, why = "vectorized", (
                "every parallel loop emitted as whole-vector NumPy"
            )
        ledger.record(
            "emit.vectorize", name, choice, why, decl_provenance.get(name)
        )
    entry = _CacheEntry(
        source_text=source_text,
        code=code,
        plan=plan,
        driver_specs=tuple(driver_specs),
        info=info,
        param_names=tuple(info.param_names()),
        data_names=frozenset(data_names),
        ledger=ledger,
        source_map=source_map,
        op_count_exprs=op_count_exprs,
        decl_provenance=decl_provenance,
    )
    if key is not None:
        _cache_put(key, entry)
    return _assemble(
        entry, source, hyper_values, data_values, options, schedule,
        proposals, t_start, cache_status="miss",
    )


def front_end(
    source: str,
    hyper_values: dict,
    data_values: dict,
    options: CompileOptions,
    schedule: str | None,
) -> tuple:
    """The front end plus kernel selection: parse, type-check against
    the runtime values, lower to the Density IL and factorize, then
    validate the user schedule or run the heuristic.

    Returns ``(model, info, fd, kernel)``.  :func:`compile_model` runs
    it on every cache miss; the schedule autotuner runs it once for the
    baseline kernel it races.
    """
    with trace.span("frontend.parse", cat="compile"):
        model = parse_model(source)
    missing = [h for h in model.hypers if h not in hyper_values]
    if missing:
        raise ReproError(f"missing hyper-parameter values: {missing}")
    with trace.span("frontend.analyze", cat="compile"):
        hyper_types = {k: type_of_value(v) for k, v in hyper_values.items()}
        info = analyze_model(model, hyper_types)
    missing_data = set(info.data_names()) - set(data_values)
    if missing_data:
        raise ReproError(f"missing data values: {sorted(missing_data)}")
    with trace.span("density.extract", cat="compile"):
        fd = lower_and_factorize(model)
    with trace.span(
        "kernel.select", cat="compile", user_schedule=schedule is not None
    ):
        if schedule is not None:
            kernel = validate_schedule(
                parse_schedule(schedule), fd, info,
                categorical_rule=options.categorical_rule,
            )
        else:
            kernel = heuristic_schedule(
                fd, info, categorical_rule=options.categorical_rule
            )
    return model, info, fd, kernel


def _assemble(
    entry: _CacheEntry,
    model_source: str,
    hyper_values: dict,
    data_values: dict,
    options: CompileOptions,
    schedule: str | None,
    proposals: dict | None,
    t_start: float,
    cache_status: str = "miss",
) -> CompiledSampler:
    """Turn a (possibly cached) compilation into a fresh sampler:
    re-``exec`` the code object, allocate fresh workspaces, and rewire
    the update drivers.  Nothing mutable is shared between samplers."""
    data = {k: v for k, v in data_values.items() if k in entry.data_names}
    env = dict(hyper_values)
    env.update(data)
    # Codegen-time decisions replay from the cached ledger; this
    # assembly appends its own wiring decisions to an independent clone.
    ledger = entry.ledger.clone()
    ledger.record(
        "compile.cache",
        "compilation",
        cache_status,
        (
            "an identical model+data+options compilation was served from "
            "the cache (codegen skipped; code object re-exec'd)"
            if cache_status == "hit"
            else "first compilation of this model+data+options key"
        ),
    )
    with trace.span("backend.exec", cat="compile"):
        module = exec_cpu_module(entry.source_text, code=entry.code)
        workspaces = allocate_workspaces(entry.plan)
        updates = _wire_drivers(
            entry.driver_specs, module.fn, entry.plan, options, proposals,
            ledger,
        )
    spec = SamplerSpec(
        source=model_source,
        hyper_values=dict(hyper_values),
        data_values=data,
        schedule=schedule,
        options=options,
        proposals=proposals,
    )
    return CompiledSampler(
        module=module,
        plan=entry.plan,
        workspaces=workspaces,
        updates=updates,
        init_fn=module.fn("init_state"),
        model_ll_fn=module.fn("model_ll"),
        base_env=env,
        param_names=entry.param_names,
        device=None,
        compile_seconds=time.perf_counter() - t_start,
        forward_fn=module.fn("forward_data"),
        info=entry.info,
        spec=spec,
        ledger=ledger,
        source_map=entry.source_map,
        op_count_exprs=entry.op_count_exprs,
        decl_provenance=entry.decl_provenance,
    )


def _assemble_gpu(
    decls, env, ragged, plan, driver_specs, info, options,
    model_source, hyper_values, data_values, schedule, proposals, t_start,
    ledger, source_map, op_count_exprs, decl_provenance,
) -> CompiledSampler:
    """The (uncached) GPU-target assembly: the simulated device holds
    per-sampler state, so every compilation builds a fresh module."""
    device = Device()
    module = compile_gpu_module(
        decls, env, ragged_names=ragged, cfg=options.blk_config()
    )
    ledger.record(
        "compile.cache",
        "compilation",
        "disabled",
        "the GPU target is uncacheable: the simulated device holds "
        "per-sampler state",
    )

    def bind(name: str):
        fn = module.fn(name)
        return lambda e, w, r: fn(e, w, r, device)

    workspaces = allocate_workspaces(plan)
    updates = _wire_drivers(
        tuple(driver_specs), bind, plan, options, proposals, ledger
    )
    data_names = frozenset(info.data_names())
    spec = SamplerSpec(
        source=model_source,
        hyper_values=dict(hyper_values),
        data_values={k: v for k, v in data_values.items() if k in data_names},
        schedule=schedule,
        options=options,
        proposals=proposals,
    )
    return CompiledSampler(
        module=module,
        plan=plan,
        workspaces=workspaces,
        updates=updates,
        init_fn=bind("init_state"),
        model_ll_fn=bind("model_ll"),
        base_env=env,
        param_names=tuple(info.param_names()),
        device=device,
        compile_seconds=time.perf_counter() - t_start,
        forward_fn=bind("forward_data"),
        info=info,
        spec=spec,
        ledger=ledger,
        source_map=source_map,
        op_count_exprs=op_count_exprs,
        decl_provenance=decl_provenance,
    )


def _wire_drivers(
    driver_specs: tuple, bind, plan, options: CompileOptions,
    proposals: dict | None, ledger: CompileLedger | None = None,
) -> list[UpdateDriver]:
    proposals = proposals or {}
    ledger = ledger if ledger is not None else CompileLedger()
    updates = [
        _make_driver(upd, gen, bind, plan, options, proposals, ledger)
        for upd, gen in driver_specs
    ]
    unused = set(proposals) - {
        t for upd, _ in driver_specs
        if upd.method is UpdateMethod.MH
        for t in upd.unit.names
    }
    if unused:
        raise ReproError(
            f"proposals supplied for variables without an MH update: "
            f"{sorted(unused)}"
        )
    return updates


# ----------------------------------------------------------------------
# Per-update code generation and driver wiring.
# ----------------------------------------------------------------------


def _record_kernel_choice(
    ledger: CompileLedger, upd: KBase, user_schedule: bool
) -> None:
    """One ``kernel.update`` ledger entry: which update kind this
    variable (or block) got, and the structural reason."""
    payload = upd.payload
    subject = ",".join(upd.unit.names)
    if isinstance(payload, ConjugacyMatch):
        choice = "Gibbs (conjugate)"
        reason = (
            f"the prior/likelihood pair matches the '{payload.rule}' "
            "conjugacy rule, so the conditional has closed form"
        )
    elif isinstance(payload, EnumerationMatch):
        choice = "Gibbs (enumerate)"
        reason = (
            "the discrete target has finite support, so the conditional "
            "is enumerated and normalised exactly"
        )
    elif isinstance(payload, BlockConditional):
        choice = upd.method.name
        reason = (
            "the block is continuous and differentiable, so a "
            "gradient-based update applies"
        )
    else:
        choice = upd.method.name
        reason = (
            "no closed-form conditional was found; an element-wise "
            "update targets the full conditional"
        )
    if user_schedule:
        reason = "fixed by the user schedule; " + reason
    ledger.record("kernel.update", subject, choice, reason, upd.provenance)


def _generate_update(
    upd: KBase, fd, info: ModelInfo, options: CompileOptions,
    ledger: CompileLedger,
) -> dict:
    method = upd.method
    payload = upd.payload
    out = {"decls": [], "workspaces": [], "names": {}}

    if method is UpdateMethod.GIBBS:
        if isinstance(payload, ConjugacyMatch):
            code = gen_gibbs_conjugate(payload, fd.lets)
        elif isinstance(payload, EnumerationMatch):
            code = gen_gibbs_enumeration(payload, fd.lets)
        else:
            raise ReproError(f"Gibbs update without a payload: {upd}")
        out["decls"].append(
            lower_decl(
                code.decl,
                workspaces=tuple(w.name for w in code.workspaces),
                writes=upd.unit.names,
            )
        )
        out["workspaces"].extend(code.workspaces)
        out["names"]["update"] = code.decl.name
        return out

    if method in (UpdateMethod.HMC, UpdateMethod.NUTS):
        blk: BlockConditional = payload
        subject = ",".join(upd.unit.names)
        if options.target == "cpu":
            # One declaration returns the log density and every adjoint:
            # the forward pass is shared, and the adjoints accumulate
            # into preallocated workspace buffers.
            fused_decl, fused_ws = gen_ll_grad(blk, fd.lets)
            out["decls"].append(
                lower_decl(
                    fused_decl, workspaces=tuple(w.name for w in fused_ws)
                )
            )
            out["workspaces"].extend(fused_ws)
            out["names"]["ll_grad"] = fused_decl.name
            ledger.record(
                "gradient.fusion", subject, "fused",
                "the log density and its gradient share one forward "
                f"pass with workspace adjoint buffers ('{fused_decl.name}')",
                upd.provenance,
            )
            return out
        ll_decl = gen_block_ll(blk, fd.lets)
        grad_decl = gen_grad(blk, fd.lets)
        out["decls"].append(lower_decl(ll_decl))
        out["decls"].append(lower_decl(grad_decl))
        out["names"]["ll"] = ll_decl.name
        out["names"]["grad"] = grad_decl.name
        ledger.record(
            "gradient.fusion", subject, "pair",
            "the GPU target launches the log density and the gradient "
            "as separate kernels",
            upd.provenance,
        )
        return out

    cond: Conditional = payload
    include_prior = method is not UpdateMethod.ESLICE
    suffix = "" if include_prior else "_lik"
    ll_decl = gen_cond_ll(cond, fd.lets, include_prior=include_prior, suffix=suffix)
    out["decls"].append(lower_decl(ll_decl))
    out["names"]["ll"] = ll_decl.name
    # The first failing gate (or the batch generator's own refusal)
    # becomes the "why scalar" reason recorded when the driver is wired.
    if options.target != "cpu":
        out["batch_reason"] = "batched element updates are CPU-only"
    elif not options.vectorize:
        out["batch_reason"] = (
            "whole-module vectorisation is disabled (vectorize=False)"
        )
    elif upd.opt("batch") == "off":
        out["batch_reason"] = (
            "disabled for this update by the schedule ([batch=off])"
        )
    else:
        why: list[str] = []
        batch = gen_cond_ll_batch(
            cond, fd, include_prior=include_prior, suffix=suffix, why=why
        )
        if batch is not None:
            batch_decl, batch_ws = batch
            batch_low = lower_decl(batch_decl, workspaces=(batch_ws.name,))
            out["decls"].append(batch_low)
            out["workspaces"].append(batch_ws)
            out["names"]["batch_ll"] = batch_decl.name
            out["batch_low"] = batch_low
        else:
            out["batch_reason"] = (
                why[0] if why
                else "the batched conditional could not be generated"
            )
    return out


def _make_driver(
    upd: KBase, gen: dict, bind, plan, options: CompileOptions,
    proposals=None, ledger: CompileLedger | None = None,
):
    proposals = proposals or {}
    ledger = ledger if ledger is not None else CompileLedger()
    method = upd.method
    names = gen["names"]
    target_list = upd.unit.names

    if method is UpdateMethod.GIBBS:
        drv = GibbsDriver(names["update"], target_list, bind(names["update"]))
        drv.profile_fns = {"_fn": names["update"]}
        return drv

    if method in (UpdateMethod.HMC, UpdateMethod.NUTS):
        blk: BlockConditional = upd.payload
        transforms = {}
        for t in target_list:
            support = _support_of(t, plan, upd)
            transforms[t] = transform_for_support(support)
        # ``names`` holds what the target emitted: the fused ``ll_grad``
        # (CPU) or the ``ll``/``grad`` pair (GPU).
        drv = GradBlockDriver(
            name=names.get("ll_grad") or names["ll"],
            targets=target_list,
            transforms=transforms,
            pack_plan=build_pack_plan(plan, target_list),
            method="nuts" if method is UpdateMethod.NUTS else "hmc",
            step_size=float(upd.opt("step_size", DEFAULT_STEP_SIZE)),
            n_steps=int(upd.opt("steps", DEFAULT_N_STEPS)),
            **{f"{kind}_fn": bind(decl) for kind, decl in names.items()},
        )
        drv.profile_fns = {
            f"_{kind}_fn": decl for kind, decl in names.items()
        }
        drv.user_step_size = upd.opt("step_size", None) is not None
        if drv.user_step_size:
            a_choice, a_why = "fixed step size", (
                f"the schedule pins step_size={drv.step_size:g}; warmup "
                "adaptation stays off unless explicitly requested"
            )
        else:
            a_choice, a_why = "eligible", (
                "no pinned step size: dual-averaging step-size adaptation "
                "and windowed mass-matrix estimation engage when the run "
                "requests warmup sweeps"
            )
        ledger.record(
            "warmup.adaptation", drv.label, a_choice, a_why, upd.provenance
        )
        return drv

    cond: Conditional = upd.payload
    target = target_list[0]
    shape = plan.state[target]
    ll_fn = bind(names["ll"])
    # Batched drivers need the vectorisation probe to have passed; the
    # per-method guards below add the runtime-shape conditions the
    # symbolic eligibility check cannot see.
    batched = gen.get("batch_ok", False)

    def record_batch(drv, guard_reason=None):
        if drv.is_batched:
            choice, why = "batched", (
                "every element lane advances per whole-vector library "
                f"call against '{names['batch_ll']}'"
            )
        else:
            choice = "scalar"
            why = guard_reason or gen.get("batch_reason") or (
                "the batched conditional was not wired"
            )
        ledger.record("batch.elements", drv.label, choice, why, upd.provenance)
        drv.profile_fns = {"_ll_fn": names["ll"]}
        if drv.is_batched:
            drv.profile_fns["_bll_fn"] = names["batch_ll"]
        return drv

    if method is UpdateMethod.SLICE:
        width = float(upd.opt("width", 1.0))
        if batched and not shape.event:
            return record_batch(VectorizedSliceDriver(
                names["ll"], cond, shape, ll_fn, bind(names["batch_ll"]),
                width=width,
            ))
        return record_batch(
            SliceDriver(names["ll"], cond, shape, ll_fn, width=width),
            guard_reason=(
                "the target's elements are vectors (trailing event axes), "
                "which the per-lane bracketing cannot batch"
                if batched and shape.event else None
            ),
        )
    if method is UpdateMethod.ESLICE:
        lane_varying_prior = any(
            mentions(a, v) for a in cond.prior.args for v in cond.idx_vars
        )
        if batched and not lane_varying_prior:
            return record_batch(VectorizedESliceDriver(
                names["ll"], cond, shape, ll_fn, bind(names["batch_ll"])
            ))
        return record_batch(
            ESliceDriver(names["ll"], cond, shape, ll_fn),
            guard_reason=(
                "the Gaussian prior's parameters vary per lane, so one "
                "shared prior draw cannot serve every lane"
                if batched and lane_varying_prior else None
            ),
        )
    if method is UpdateMethod.MH:
        proposal = proposals.get(target)
        if proposal is None and upd.opt("proposal") is not None:
            # The schedule marked this update as user-proposal MH
            # (``MH[proposal=user]``) but no callable was registered.
            raise ReproError(
                f"MH {target}: the schedule requests a user proposal; pass "
                "one via setProposal / compile_model(proposals=...)"
            )
        scale = float(upd.opt("scale", 0.5))
        if batched and proposal is None and not shape.event:
            return record_batch(VectorizedMHDriver(
                names["ll"], cond, shape, ll_fn, bind(names["batch_ll"]),
                scale=scale,
            ))
        guard = None
        if batched and proposal is not None:
            guard = (
                "a user proposal function is registered, which the "
                "batched random-walk path cannot apply"
            )
        elif batched and shape.event:
            guard = (
                "the target's elements are vectors (trailing event axes), "
                "which the lane-wise random walk cannot batch"
            )
        return record_batch(
            MHDriver(
                names["ll"], cond, shape, ll_fn, scale=scale, proposal=proposal
            ),
            guard_reason=guard,
        )
    raise ReproError(f"no driver for update method {method}")


def _support_of(target: str, plan, upd: KBase) -> str:
    blk: BlockConditional = upd.payload
    for f in blk.factors:
        if f.source == target:
            from repro.runtime.distributions import lookup

            return lookup(f.dist).support
    raise ReproError(f"cannot determine the support of {target!r}")


def _ragged_names(plan, env: dict) -> frozenset[str]:
    names = {n for n, b in plan.state.items() if b.is_ragged}
    names |= {n for n, b in plan.workspaces.items() if b.is_ragged}
    names |= {n for n, v in env.items() if isinstance(v, RaggedArray)}
    return frozenset(names)
