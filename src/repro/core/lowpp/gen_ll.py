"""Likelihood reification: Density IL -> Low++ (paper Section 4.4).

"It is straightforward to generate Low++ code that reifies a likelihood
computation from a density factorization.  It is also straightforward
to parallelize these computations as a map-reduce."  The generated
declarations accumulate ``ll`` with ``AtmPar`` loops; the Blk-IL
optimiser later converts the accumulation into summation blocks.
"""

from __future__ import annotations


from repro.core.density.conditionals import (
    BlockConditional,
    Conditional,
    lane_occurrence,
)
from repro.core.density.ir import Factor, FactorizedDensity
from repro.core.exprs import (
    Call,
    DistOp,
    DistOpKind,
    Expr,
    Gen,
    RealLit,
    Var,
    free_vars,
    mentions,
)
from repro.core.lowpp.ir import (
    AssignOp,
    LDecl,
    LoopKind,
    LValue,
    SAssign,
    SIf,
    SLoop,
    Stmt,
)
from repro.core.provenance import Provenance, merge_stmts
from repro.core.workspace import WorkspaceSpec

_LL = "ll"


def _guard_expr(guards) -> Expr | None:
    """Conjoin equality guards into one condition (via multiplication of
    0/1 indicators, which the IL represents with ``==`` and ``*``)."""
    conds = [Call("==", (a, b)) for a, b in guards]
    if not conds:
        return None
    cond = conds[0]
    for c in conds[1:]:
        cond = Call("*", (cond, c))
    return cond


def factor_ll_stmts(factor: Factor, acc: str | LValue = _LL) -> tuple[Stmt, ...]:
    """Statements accumulating a factor's log density into ``acc``."""
    lv = LValue(acc) if isinstance(acc, str) else acc
    inc: Stmt = SAssign(
        lv,
        AssignOp.INC,
        DistOp(factor.dist, factor.args, DistOpKind.LL, value=factor.at),
    )
    cond = _guard_expr(factor.guards)
    if cond is not None:
        inc = SIf(cond, (inc,))
    body: tuple[Stmt, ...] = (inc,)
    for g in reversed(factor.gens):
        body = (SLoop(LoopKind.ATM_PAR, g, body),)
    return body


def _needed_lets(
    lets: tuple[tuple[str, Expr], ...], names: frozenset[str]
) -> tuple[Stmt, ...]:
    """Let-bindings (in order) transitively needed by ``names``."""
    needed: set[str] = set(names)
    keep: list[tuple[str, Expr]] = []
    for name, e in reversed(lets):
        if name in needed:
            keep.append((name, e))
            needed |= free_vars(e)
    return tuple(
        SAssign(LValue(name), AssignOp.SET, e) for name, e in reversed(keep)
    )


def _factors_free_names(factors) -> frozenset[str]:
    out: set[str] = set()
    for f in factors:
        out |= f.free_names()
    return frozenset(out)


def _factor_provenance(
    primary: str, factors, stage: str = "lowpp.gen_ll"
) -> Provenance:
    """Provenance over a factor set: the primary statement plus every
    model statement whose factor contributes a density term."""
    return Provenance(
        stmt=primary,
        stmts=merge_stmts(primary, (f.source for f in factors)),
        stage=stage,
    )


def _ll_decl(
    name: str,
    factors: tuple[Factor, ...],
    lets: tuple[tuple[str, Expr], ...],
    extra_params: tuple[str, ...] = (),
    provenance: Provenance | None = None,
) -> LDecl:
    free = _factors_free_names(factors)
    let_stmts = _needed_lets(lets, free)
    body: list[Stmt] = list(let_stmts)
    body.append(SAssign(LValue(_LL), AssignOp.SET, RealLit(0.0)))
    for f in factors:
        body.extend(factor_ll_stmts(f))
    bound = {s.lhs.name for s in let_stmts}
    for s in let_stmts:
        free |= free_vars(s.rhs)
    free = frozenset(free - bound)
    params = tuple(sorted(free)) + tuple(p for p in extra_params if p not in free)
    return LDecl(
        name=name, params=params, body=tuple(body), ret=(Var(_LL),),
        provenance=provenance,
    )


def gen_cond_ll(
    cond: Conditional,
    lets: tuple[tuple[str, Expr], ...] = (),
    include_prior: bool = True,
    suffix: str = "",
) -> LDecl:
    """The per-element conditional log density ``p(target[i...] | rest)``.

    The declaration takes the target's index binders as parameters; the
    caller evaluates it with the candidate value already written into
    the state array, so no value substitution is required.  With
    ``include_prior=False`` only the likelihood factors are scored (the
    form elliptical slice sampling needs).
    """
    factors = cond.all_factors if include_prior else cond.likelihood
    name = f"cond_ll_{cond.target}{suffix}"
    return _ll_decl(
        name, factors, lets, extra_params=cond.idx_vars,
        provenance=_factor_provenance(cond.target, factors),
    )


def _lane_loop_nest(
    stmts: tuple[Stmt, ...], gens: tuple[Gen, ...], occ_free: frozenset[str], kind: LoopKind
) -> tuple[Stmt, ...]:
    """Wrap ``stmts`` in ``gens`` with exactly one batchable axis.

    Keep a ragged pair parallel, make one other generator the parallel
    batch axis -- preferring a generator the lane path mentions, since
    that is the axis the scatter distributes over -- and demote the rest
    to sequential host loops.  Independent dense generators commute, so
    the chosen axis is rotated outermost.  A second dense axis left
    parallel would vectorise as a rectangular nest, but its per-lane
    sums would then add pairwise instead of one term at a time, which
    changes the conditional densities (and batched-MH draws) in their
    last bits once the axis has 8 or more elements.
    """
    dependent = {
        g.var
        for i, g in enumerate(gens)
        for h in gens[:i]
        if mentions(g.lo, h.var) or mentions(g.hi, h.var)
    }
    independent = all(g.var not in dependent for g in gens)
    order = list(gens)
    if independent and len(gens) > 1:
        par_pos = next(
            (i for i, g in enumerate(gens) if g.var in occ_free), 0
        )
        order = [gens[par_pos]] + [g for i, g in enumerate(gens) if i != par_pos]

    kinds: list[LoopKind] = []
    for pos, g in enumerate(order):
        if pos == 0:
            kinds.append(kind)
        elif pos == 1 and (
            mentions(g.lo, order[0].var) or mentions(g.hi, order[0].var)
        ):
            kinds.append(kind)
        else:
            kinds.append(LoopKind.SEQ)
    body = stmts
    for g, k in reversed(list(zip(order, kinds))):
        body = (SLoop(k, g, body),)
    return body


def gen_cond_ll_batch(
    cond: Conditional,
    fd: FactorizedDensity,
    include_prior: bool = True,
    suffix: str = "",
    why: list | None = None,
) -> tuple[LDecl, WorkspaceSpec] | None:
    """The batched conditional: per-lane log densities in one call.

    Where :func:`gen_cond_ll` scores ``p(target[i...] | rest)`` for one
    index tuple passed in as parameters, this declaration fills a
    workspace ``_bll_<target>`` -- shaped like the target itself -- with
    the conditional log density of *every* element lane in a single
    evaluation: each original model factor scatter-accumulates its log
    density into the lane its single target occurrence addresses.  The
    caller evaluates it with candidate values for all lanes already
    written into the state array.

    Returns ``None`` when batching is unsound (lane-coupled factors,
    imprecise or whole-vector conditionals, lets that mix lanes) --
    callers then stay on the scalar per-element path.  ``why``, when
    supplied, receives one human-readable reason per ``None`` return so
    the decision ledger can name the gate that fired.
    """

    def declined(reason: str):
        if why is not None:
            why.append(reason)
        return None

    target = cond.target
    if not cond.idx_vars:
        return declined("the target is a scalar statement with no element lanes")
    if cond.imprecise:
        return declined("the conditional approximation is imprecise")
    if cond.vector_dependence:
        return declined("a whole-vector dependence couples the element lanes")
    factors: list[Factor] = []
    for f in fd.factors:
        if f.source == target:
            if include_prior:
                factors.append(f)
        elif f.mentions(target):
            factors.append(f)
    if not factors:
        return declined("no density factor mentions the target")
    paths: list[tuple[Expr, ...]] = []
    for f in factors:
        occ = lane_occurrence(f, target, len(cond.idx_vars))
        if occ is None:
            return declined(
                f"the factor from '{f.source or f.at}' uses the target in "
                "more than one lane per term"
            )
        paths.append(occ)

    free = _factors_free_names(factors)
    let_stmts = _needed_lets(fd.lets, free)
    if any(mentions(s.rhs, target) for s in let_stmts):
        # A deterministic let reading the target would be recomputed from
        # the all-lanes-proposed state, coupling the lanes.
        return declined(
            "a deterministic let reads the target, coupling the lanes"
        )

    acc = f"_bll_{target}{suffix}"
    body: list[Stmt] = list(let_stmts)
    zero = SAssign(
        LValue(acc, tuple(Var(v) for v in cond.idx_vars)),
        AssignOp.SET,
        RealLit(0.0),
    )
    body.extend(
        _lane_loop_nest((zero,), cond.gens, frozenset(), LoopKind.PAR)
    )
    for f, occ in zip(factors, paths):
        inc: Stmt = SAssign(
            LValue(acc, occ),
            AssignOp.INC,
            DistOp(f.dist, f.args, DistOpKind.LL, value=f.at),
        )
        guard = _guard_expr(f.guards)
        if guard is not None:
            inc = SIf(guard, (inc,))
        occ_free: set[str] = set()
        for e in occ:
            occ_free |= free_vars(e)
        body.extend(
            _lane_loop_nest(
                (inc,), f.gens, frozenset(occ_free), LoopKind.ATM_PAR
            )
        )

    bound = {s.lhs.name for s in let_stmts}
    for s in let_stmts:
        free |= free_vars(s.rhs)
    for g in cond.gens:
        free |= free_vars(g.lo) | free_vars(g.hi)
    free -= {g.var for g in cond.gens}
    params = tuple(sorted(frozenset(free) - bound))
    decl = LDecl(
        name=f"batch_cond_ll_{target}{suffix}",
        params=params,
        body=tuple(body),
        ret=(Var(acc),),
        locals_hint=(acc,),
        provenance=_factor_provenance(target, factors),
    )
    return decl, WorkspaceSpec(acc, gens=cond.gens)


def gen_block_ll(
    blk: BlockConditional, lets: tuple[tuple[str, Expr], ...] = ()
) -> LDecl:
    """The joint conditional log density of a block of variables."""
    name = "block_ll_" + "_".join(blk.targets)
    prov = Provenance(
        stmt=blk.targets[0],
        stmts=merge_stmts(blk.targets[0], blk.targets,
                          (f.source for f in blk.factors)),
        stage="lowpp.gen_ll",
    )
    return _ll_decl(name, blk.factors, lets, provenance=prov)


def gen_model_ll(fd: FactorizedDensity) -> LDecl:
    """The full model log joint (used for diagnostics and MH at the top)."""
    sources = tuple(dict.fromkeys(f.source for f in fd.factors if f.source))
    prov = Provenance(
        stmt=sources[0] if sources else "model",
        stmts=sources or ("model",),
        stage="lowpp.gen_ll",
    )
    return _ll_decl("model_ll", fd.factors, fd.lets, provenance=prov)
