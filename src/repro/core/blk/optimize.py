"""Blk-IL optimisations (paper Section 5.4).

Because AugurV2 compiles at runtime, the optimiser can evaluate
comprehension bounds against the actual data sizes and make concrete
decisions:

- **Commuting loops**: ``parBlk K { loop N }`` with ``K << N`` becomes
  ``parBlk N { loop K }`` so the code utilises more GPU threads.

- **Conversion to summation blocks**: a ``parBlk AtmPar`` whose body
  accumulates into a single location has contention ratio
  ``threads / locations``; when the ratio is high the block becomes a
  ``sumBlk`` (map-reduce).  A block with several scalar accumulators is
  fissioned into one summation block per accumulator.

The heuristic mirrors the paper's: try the rewrites, keep a block
unchanged when neither applies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.blk.ir import Blk, BlkDecl, LoopBlk, ParBlk, SumBlk
from repro.core.density.interp import eval_expr
from repro.core.exprs import Gen, Var, mentions
from repro.core.lowpp.ir import (
    AssignOp,
    LoopKind,
    SAssign,
    SLoop,
    Stmt,
)

#: Commute when the inner extent exceeds the outer by this factor.
COMMUTE_FACTOR = 4
#: Convert to a summation block when threads / locations exceeds this.
CONTENTION_THRESHOLD = 16


@dataclass
class OptimizeConfig:
    """Ablation switches for the Section 5.4 rewrites."""

    commute_loops: bool = True
    sum_block_conversion: bool = True


def _gen_extent(gen: Gen, env: dict) -> int | None:
    """Evaluate a generator's extent, or None when it depends on an
    enclosing binder the optimiser cannot see."""
    try:
        lo = int(eval_expr(gen.lo, env))
        hi = int(eval_expr(gen.hi, env))
    except Exception:
        return None
    return max(0, hi - lo)


def _try_commute(blk: ParBlk, env: dict) -> ParBlk | None:
    """``parBlk g_out { loop g_in { body } }`` with small g_out -> commute."""
    if len(blk.stmts) != 1 or not isinstance(blk.stmts[0], SLoop):
        return None
    inner = blk.stmts[0]
    if inner.kind is LoopKind.SEQ:
        return None
    # Bounds must be independent of each other's binder.
    if mentions(inner.gen.lo, blk.gen.var) or mentions(inner.gen.hi, blk.gen.var):
        return None
    if mentions(blk.gen.lo, inner.gen.var) or mentions(blk.gen.hi, inner.gen.var):
        return None
    outer_n = _gen_extent(blk.gen, env)
    inner_n = _gen_extent(inner.gen, env)
    if outer_n is None or inner_n is None:
        return None
    if inner_n <= COMMUTE_FACTOR * outer_n:
        return None
    kind = (
        LoopKind.ATM_PAR
        if LoopKind.ATM_PAR in (blk.kind, inner.kind)
        else LoopKind.PAR
    )
    # The former outer loop now runs sequentially within each thread.
    return ParBlk(kind, inner.gen, (SLoop(LoopKind.SEQ, blk.gen, inner.body),))


def _accumulators(stmts: tuple[Stmt, ...]):
    """Split a flat AtmPar body into (temp sets, scalar INC statements).

    Returns None when the body has any other statement shape (nested
    loops, guards, indexed increments), which the conversion does not
    handle.
    """
    temps: list[SAssign] = []
    incs: list[SAssign] = []
    for s in stmts:
        if not isinstance(s, SAssign):
            return None
        if s.op is AssignOp.SET and not s.lhs.indices:
            temps.append(s)
        elif s.op is AssignOp.INC and not s.lhs.indices:
            incs.append(s)
        else:
            return None
    if not incs:
        return None
    acc_names = {s.lhs.name for s in incs}
    # Temps must not read accumulators (they never do in generated code).
    for t in temps:
        if any(mentions(t.rhs, a) for a in acc_names):
            return None
    return temps, incs


def _try_sum_conversion(blk: ParBlk, env: dict) -> tuple[Blk, ...] | None:
    if blk.kind is not LoopKind.ATM_PAR:
        return None
    split = _accumulators(blk.stmts)
    if split is None:
        return None
    temps, incs = split
    threads = _gen_extent(blk.gen, env)
    if threads is None:
        return None
    # Scalar accumulators have one location; the estimated contention
    # ratio is threads / 1.
    if threads <= CONTENTION_THRESHOLD:
        return None
    blocks: list[Blk] = []
    for inc in incs:
        blocks.append(
            SumBlk(
                acc=inc.lhs,
                init=Var(inc.lhs.name),
                gen=blk.gen,
                stmts=tuple(temps),
                value=inc.rhs,
            )
        )
    return tuple(blocks)


def _writes_are_thread_private(stmts: tuple[Stmt, ...], par_var: str) -> bool:
    """Every store either hits a cell selected by the thread index or is
    a thread-local temporary -- the condition under which a sequential
    outer loop may move inside the kernel."""
    from repro.core.lowpp.ir import SMultiAssign, walk_stmts

    for s in walk_stmts(stmts):
        if isinstance(s, SAssign):
            if not s.lhs.indices:
                if s.op is AssignOp.INC:
                    return False  # cross-thread accumulator
                continue  # SET temp: private
            if not any(mentions(i, par_var) for i in s.lhs.indices):
                return False
        elif isinstance(s, SMultiAssign):
            for lv in s.lhs:
                if lv.indices and not any(mentions(i, par_var) for i in lv.indices):
                    return False
    return True


def _sink_seq_loop(seq_gen: Gen, stmts: tuple[Stmt, ...]) -> tuple[Stmt, ...] | None:
    """Push ``loop Seq seq_gen`` below any chain of parallel loops.

    Valid when, at every level, stores hit cells selected by that
    level's thread index (so the (threads x seq) iteration grid writes
    disjoint cells regardless of interleaving).
    """
    if len(stmts) == 1 and isinstance(stmts[0], SLoop) and stmts[0].kind in (
        LoopKind.PAR,
        LoopKind.ATM_PAR,
    ):
        inner = stmts[0]
        if mentions(inner.gen.lo, seq_gen.var) or mentions(inner.gen.hi, seq_gen.var):
            return None
        if not _writes_are_thread_private(inner.body, inner.gen.var):
            return None
        sunk = _sink_seq_loop(seq_gen, inner.body)
        if sunk is None:
            return None
        return (SLoop(inner.kind, inner.gen, sunk),)
    return (SLoop(LoopKind.SEQ, seq_gen, stmts),)


def _try_fuse(blk: LoopBlk) -> ParBlk | None:
    """``loopBlk g { parBlk h { s } }`` -> ``parBlk h { loop Seq g { s } }``.

    One kernel launch instead of ``|g|`` launches, with the sequential
    loop running inside each thread.  This is how the enumeration-Gibbs
    update is actually emitted as a single Cuda kernel.
    """
    if len(blk.blocks) != 1 or not isinstance(blk.blocks[0], ParBlk):
        return None
    inner = blk.blocks[0]
    if mentions(inner.gen.lo, blk.gen.var) or mentions(inner.gen.hi, blk.gen.var):
        return None
    if mentions(blk.gen.lo, inner.gen.var) or mentions(blk.gen.hi, inner.gen.var):
        return None
    if not _writes_are_thread_private(inner.stmts, inner.gen.var):
        return None
    sunk = _sink_seq_loop(blk.gen, inner.stmts)
    if sunk is None:
        return None
    return ParBlk(inner.kind, inner.gen, sunk)


def _optimize_block(blk: Blk, env: dict, cfg: OptimizeConfig) -> tuple[Blk, ...]:
    if isinstance(blk, LoopBlk):
        fused = _try_fuse(blk)
        if fused is not None:
            return _optimize_block(fused, env, cfg)
        inner: list[Blk] = []
        for b in blk.blocks:
            inner.extend(_optimize_block(b, env, cfg))
        return (LoopBlk(blk.gen, tuple(inner)),)
    if not isinstance(blk, ParBlk):
        return (blk,)
    if cfg.sum_block_conversion:
        converted = _try_sum_conversion(blk, env)
        if converted is not None:
            return converted
    if cfg.commute_loops:
        commuted = _try_commute(blk, env)
        if commuted is not None:
            # Re-examine the commuted block (it may now convert).
            if cfg.sum_block_conversion:
                converted = _try_sum_conversion(commuted, env)
                if converted is not None:
                    return converted
            return (commuted,)
    return (blk,)


def optimize_blocks(decl: BlkDecl, env: dict, cfg: OptimizeConfig | None = None) -> BlkDecl:
    """Apply the Section 5.4 rewrites using runtime sizes from ``env``."""
    cfg = cfg or OptimizeConfig()
    blocks: list[Blk] = []
    for b in decl.blocks:
        blocks.extend(_optimize_block(b, env, cfg))
    return BlkDecl(decl.name, decl.params, tuple(blocks), decl.ret)
