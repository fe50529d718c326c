"""Function-level emission shared by the CPU and GPU backends.

:class:`FnEmitter` walks Low-- statements and tries to vectorise every
parallel loop, first as a two-level nest on one flattened batch axis
(ragged or rectangular, see :mod:`repro.core.backend.emitter`), then as
a single loop, and falls back to a Python loop when the vectoriser
declines; a declined nest's inner loop is then tried on its own.  A
:class:`ChargePolicy` hook lets the GPU backend attach device-time
charges to each emitted block without duplicating the emitter.
"""

from __future__ import annotations

import re

from repro.core.backend.emitter import (
    SourceBuilder,
    VecEmitter,
    VectorizeFailure,
    _VecCtx,
    emit_scalar_expr,
    mangle,
)
from repro.core.exprs import DistOp, DistOpKind, IntLit, mentions, walk
from repro.core.lowpp.ir import (
    AssignOp,
    LoopKind,
    SAssign,
    SIf,
    SLoop,
    SMultiAssign,
    Stmt,
    walk_stmts,
)
from repro.errors import CodegenError


class ChargePolicy:
    """Device-time charging hooks; the CPU backend uses the no-op base."""

    def vector_loop(self, sb: SourceBuilder, bn: str, kind: LoopKind, stmts) -> None:
        pass

    def scalar_iteration(self, sb: SourceBuilder, stmts) -> None:
        """Called inside a fallback Python loop body, once per iteration;
        charge only this level's non-loop statements (nested loops charge
        themselves when reached)."""

    def fallback_par_block(self, sb: SourceBuilder, loop: "SLoop") -> bool:
        """A Par/AtmPar loop the vectoriser declined.  Return True after
        charging the whole block (one kernel of ``extent`` threads, each
        executing the full body) -- nested statements then charge
        nothing.  The base policy returns False (no charging)."""
        return False


def atomic_locations_code(stmts) -> str | None:
    """Contention-location estimate for an AtmPar block: the smallest
    addressable-cell count among scatter targets (1 for scalar
    accumulators)."""
    locs: list[str] = []
    for s in walk_stmts(tuple(stmts)):
        if isinstance(s, SAssign) and s.op is AssignOp.INC:
            if s.lhs.indices:
                locs.append(f"_vops.nelems({mangle(s.lhs.name)})")
            else:
                return "1"
    if not locs:
        return None
    if len(locs) == 1:
        return locs[0]
    return f"min({', '.join(locs)})"


def _ordered_updates(s: Stmt) -> list[str]:
    """What ``s`` updates whose result depends on the order of updates:
    an increment's target, and the random stream for a draw."""
    out = []
    if isinstance(s, SAssign) and s.op is AssignOp.INC:
        out.append(repr(s.lhs.name))
    if isinstance(s, (SAssign, SMultiAssign)) and any(
        isinstance(e, DistOp) and e.op is DistOpKind.SAMP for e in walk(s.rhs)
    ):
        out.append("the random stream")
    return out


def _row_order_hazard(stmts, seen: set | None = None, in_loop=False) -> str | None:
    """Why running a rectangular nest's body one statement at a time over
    all rows would reorder its updates, or ``None``.

    The loop over the rows that nest mode replaces runs the whole body
    for one row before the next, so an increment target or the random
    stream updated by two statements, or inside a host loop, sees its
    updates interleaved row by row.
    """
    seen = set() if seen is None else seen
    for s in stmts:
        match s:
            case SLoop(_, _, body):
                why = _row_order_hazard(body, seen, True)
            case SIf(_, then, els):
                why = _row_order_hazard(then, seen, in_loop) or _row_order_hazard(
                    els, seen, in_loop
                )
            case _:
                why = None
                for key in _ordered_updates(s):
                    if in_loop or key in seen:
                        return f"{key} updated more than once per row"
                    seen.add(key)
        if why:
            return why
    return None


class FnEmitter:
    def __init__(
        self,
        sb: SourceBuilder,
        ragged_names: frozenset[str],
        charge: ChargePolicy | None = None,
        vectorize: bool = True,
    ):
        self.sb = sb
        self.ragged = ragged_names
        self.charge = charge or ChargePolicy()
        self.vectorize = vectorize
        #: Par/AtmPar loops the vectoriser declined (emitted as Python
        #: loops).  Zero means the declaration runs fully vectorised --
        #: the eligibility signal for batched element drivers.
        self.par_fallbacks = 0

    # -- statement dispatch ----------------------------------------------

    def stmts(self, stmts) -> None:
        for s in stmts:
            self.stmt(s)

    def stmt(self, s: Stmt) -> None:
        match s:
            case SAssign(lhs, op, rhs):
                target = mangle(lhs.name) + "".join(
                    f"[{emit_scalar_expr(i)}]" for i in lhs.indices
                )
                self.sb.emit(f"{target} {op.value} {emit_scalar_expr(rhs)}")
            case SMultiAssign(lhs, rhs):
                names = ", ".join(
                    mangle(lv.name)
                    + "".join(f"[{emit_scalar_expr(i)}]" for i in lv.indices)
                    for lv in lhs
                )
                self.sb.emit(f"{names} = {emit_scalar_expr(rhs)}")
            case SIf(cond, then, els):
                self.sb.emit(f"if {emit_scalar_expr(cond)}:")
                with self.sb.block():
                    if not then:
                        self.sb.emit("pass")
                    self.stmts(then)
                if els:
                    self.sb.emit("else:")
                    with self.sb.block():
                        self.stmts(els)
            case SLoop():
                self.loop(s)
            case _:
                raise CodegenError(f"cannot emit statement {s!r}")

    # -- loops ------------------------------------------------------------

    def loop(self, s: SLoop) -> None:
        if self.vectorize and s.kind in (LoopKind.PAR, LoopKind.ATM_PAR):
            if self._try(self._emit_nest_vectorized, s):
                return
            if self._try(self._emit_vectorized, s):
                return
        self._emit_python_loop(s)

    def _try(self, fn, s: SLoop) -> bool:
        mark = len(self.sb.lines)
        depth = self.sb.depth
        try:
            fn(s)
            return True
        except VectorizeFailure:
            del self.sb.lines[mark:]
            self.sb.depth = depth
            return False

    def _emit_python_loop(self, s: SLoop) -> None:
        lo = emit_scalar_expr(s.gen.lo)
        hi = emit_scalar_expr(s.gen.hi)
        handled = False
        if s.kind in (LoopKind.PAR, LoopKind.ATM_PAR):
            self.par_fallbacks += 1
            handled = self.charge.fallback_par_block(self.sb, s)
        inner = self
        if handled:
            # The whole block was charged as one kernel; suppress nested
            # charging but keep the (vectorised) numerics.
            inner = FnEmitter(self.sb, self.ragged, None, vectorize=self.vectorize)
        self.sb.emit(f"for {mangle(s.gen.var)} in range({lo}, {hi}):")
        with self.sb.block():
            if not s.body:
                self.sb.emit("pass")
            if not handled:
                inner.charge.scalar_iteration(self.sb, s.body)
            inner.stmts(s.body)

    def _vector_body(self, ctx: _VecCtx, loop: SLoop) -> None:
        vec = VecEmitter(self.sb, ctx, self.ragged)
        self.charge.vector_loop(self.sb, ctx.bn, loop.kind, loop.body)
        for stmt in loop.body:
            vec.stmt(stmt, None)

    def _emit_vectorized(self, s: SLoop) -> None:
        sb = self.sb
        v = mangle(s.gen.var)
        lo = emit_scalar_expr(s.gen.lo)
        hi = emit_scalar_expr(s.gen.hi)
        bn = sb.fresh("bn")
        sb.emit(f"{v} = np.arange({lo}, {hi})")
        sb.emit(f"{bn} = {v}.shape[0]")
        sb.emit(f"if {bn} > 0:")
        with sb.block():
            self._vector_body(_VecCtx(bindings={s.gen.var: v}, bn=bn), s)

    def _emit_nest_vectorized(self, s: SLoop) -> None:
        # Pattern: Par g1 { Par g2 { body } }, run on one batch axis
        # holding the rows of g1 end to end.  g2's bound may depend on g1
        # (the ragged (document, token) shape) or not (a rectangular nest).
        if len(s.body) != 1 or not isinstance(s.body[0], SLoop):
            raise VectorizeFailure("not a loop nest")
        inner = s.body[0]
        if inner.kind is LoopKind.SEQ:
            raise VectorizeFailure("inner loop is sequential")
        if inner.gen.lo != IntLit(0):
            raise VectorizeFailure("inner loop of a nest must start at 0")
        if not mentions(inner.gen.hi, s.gen.var):
            self._emit_rect_nest(s)
            return

        sb = self.sb
        v1, v2 = mangle(s.gen.var), mangle(inner.gen.var)
        lo = emit_scalar_expr(s.gen.lo)
        hi = emit_scalar_expr(s.gen.hi)
        bn = sb.fresh("bn")
        lens = sb.fresh("lens")
        offs = sb.fresh("offs")
        bpos = sb.fresh("bpos")

        sb.emit(f"{v1} = np.arange({lo}, {hi})")
        # Evaluate the inner bound batched over the outer axis.
        probe_ctx = _VecCtx(bindings={s.gen.var: v1}, bn=bn)
        probe = VecEmitter(sb, probe_ctx, self.ragged)
        lens_code, lens_batch = probe.vx(inner.gen.hi)
        if lens_batch:
            sb.emit(f"{lens} = np.asarray({lens_code})")
        else:
            sb.emit(f"{lens} = np.full({v1}.shape[0], {lens_code}, dtype=np.int64)")
        sb.emit(f"{bn} = int(np.sum({lens}))")
        sb.emit(f"if {bn} > 0:")
        with sb.block():
            sb.emit(f"{offs} = np.concatenate(([0], np.cumsum({lens})[:-1]))")
            sb.emit(f"{v1} = np.repeat({v1}, {lens})")
            sb.emit(f"{v2} = np.arange({bn}) - np.repeat({offs}, {lens})")
            sb.emit(f"{bpos} = np.arange({bn})")
            ctx = _VecCtx(
                bindings={s.gen.var: v1, inner.gen.var: v2},
                pair_vars=(s.gen.var, inner.gen.var),
                bn=bn,
                bpos=bpos,
            )
            self._vector_body(ctx, inner)

    def _emit_rect_nest(self, s: SLoop) -> None:
        """A nest whose inner bound does not depend on the outer variable:
        rows of ``cols`` lanes each, with reductions into a row's cell
        summed row by row (see ``VecEmitter._row_reduce``).

        The rows run in blocks of ``vops.block_rows(cols)``, so the lane
        arrays stay small however large the nest is.  Each block carries
        on where the one before stopped -- in the row order, the
        increment order and the random stream -- so the results do not
        depend on the block size.
        """
        inner = s.body[0]
        why = _row_order_hazard(inner.body)
        if why:
            raise VectorizeFailure(why)
        sb = self.sb
        v1, v2 = mangle(s.gen.var), mangle(inner.gen.var)
        lo = emit_scalar_expr(s.gen.lo)
        hi = emit_scalar_expr(s.gen.hi)
        bn = sb.fresh("bn")
        cols = sb.fresh("cols")
        step, r0, r1, lanes = (sb.fresh(p) for p in ("step", "r", "r", "lanes"))
        sb.emit(f"{cols} = {emit_scalar_expr(inner.gen.hi)}")
        sb.emit(f"{bn} = max(0, ({hi}) - ({lo})) * {cols}")
        sb.emit(f"if {bn} > 0:")
        with sb.block():
            self.charge.vector_loop(sb, bn, inner.kind, inner.body)
            sb.emit(f"{step} = _vops.block_rows({cols})")
            sb.emit(f"for {r0} in range({lo}, {hi}, {step}):")
            with sb.block():
                sb.emit(f"{r1} = min({r0} + {step}, {hi})")
                sb.emit(f"{lanes} = ({r1} - {r0}) * {cols}")
                first = len(sb.lines)
                sb.emit(f"{v1} = np.repeat(np.arange({r0}, {r1}), {cols})")
                sb.emit(f"{v2} = np.tile(np.arange({cols}), {r1} - {r0})")
                ctx = _VecCtx(
                    bindings={s.gen.var: v1, inner.gen.var: v2},
                    pair_vars=(s.gen.var, inner.gen.var),
                    bn=lanes,
                    rect=(r0, r1, cols),
                    in_row={inner.gen.var},
                )
                vec = VecEmitter(sb, ctx, self.ragged)
                for stmt in inner.body:
                    vec.stmt(stmt, None)
                # A lane index array the body never reads is not built.
                body = "\n".join(sb.lines[first + 2:])
                for pos, name in ((first + 1, v2), (first, v1)):
                    if not re.search(rf"\b{name}\b", body):
                        del sb.lines[pos]
