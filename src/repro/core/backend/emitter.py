"""Low-- -> Python source emission (the backend's code generator).

Plays the role of the paper's Cuda/C emission: each declaration becomes
Python source text, later compiled with ``compile()``/``exec()``.

``Par``/``AtmPar`` loops are *vectorised*: the loop collapses into
whole-array NumPy statements with the batch axis first.  Two modes:

- **single mode** -- one parallel loop; the loop variable becomes an
  index vector ``np.arange(lo, hi)``;
- **nest mode** -- a parallel loop whose body is exactly one parallel
  loop.  The nest's rows lie end to end on one flattened batch axis and
  ``X[v1][v2]`` reads one flat view of ``X``.  The inner bound may
  depend on the outer variable (``d`` over documents, ``j`` over
  ``N[d]`` tokens: the flattened ragged-array representation of
  Section 6.2) or not (a rectangular nest, ``J`` lanes per row).

In a rectangular nest, a reduction whose target cell is fixed within a
row (``acc += e``, ``ws[n] += e``, ``buckets[idx[n]] += e``) is summed
per row on a C-contiguous ``(rows, J)`` view and then added to its
target one row after another.  That is bitwise what the loop over the
rows computed, a vector sum per row and a Python-level accumulation
across rows; one NumPy sum over the whole batch would group the
additions differently.  Every other statement -- element stores,
reductions keyed by the inner variable, draws -- already runs in the
loop's element order.  A rectangular nest whose result that form cannot
reproduce bitwise is declined: a guarded reduction into a row's cell
(the loop summed the guarded lanes compacted), or an increment target
or the RNG updated more than once per row (the loop interleaves their
updates row by row).  A rectangular nest runs its rows in blocks of
about ``vops.NEST_BLOCK`` lanes, each block carrying on where the last
stopped, so its lane arrays stay small and its results do not depend on
the block size.  A ragged nest sums its whole batch at once, as it
always has.

Statements the vectoriser cannot express raise
:class:`VectorizeFailure` and the emitter falls back to a plain Python
loop, which is always correct (and mirrors how a real backend would
fall back to sequential code).

All user-level names are mangled with a ``v_`` prefix so they can never
collide with the emitter's own helpers (``_ops``, ``_lib``, ``_vops``,
``_rng``, ``_d_<Dist>``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.builtins import BUILTINS
from repro.core.exprs import (
    Call,
    DistOp,
    DistOpKind,
    Expr,
    Index,
    IntLit,
    RealLit,
    Var,
    free_vars,
    walk,
)
from repro.core.lowpp.ir import (
    AssignOp,
    LoopKind,
    SAssign,
    SIf,
    SLoop,
    SMultiAssign,
    Stmt,
)
from repro.errors import CodegenError


class VectorizeFailure(Exception):
    """Internal: this loop cannot be vectorised; fall back to Python."""


_VOPS_BINARY = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "pow": "pow_",
    "==": "eq",
    "min": "min_",
    "max": "max_",
    "dotp": "dotp",
}


def mangle(name: str) -> str:
    return f"v_{name}"


def _expr_ops(e: Expr) -> int:
    return sum(1 for _ in walk(e))


def _leaf_op_count(s: Stmt) -> int | None:
    """Operation count of a straight-line statement, shared by both
    cost walkers; ``None`` for loops/branches, whose trip-count handling
    is walker-specific."""
    match s:
        case SAssign(lhs, _, rhs):
            return 1 + _expr_ops(rhs) + sum(_expr_ops(i) for i in lhs.indices)
        case SMultiAssign(_, rhs):
            return 1 + _expr_ops(rhs)
        case SIf() | SLoop():
            return None
        case _:
            return 1


def op_count_code(stmts: tuple[Stmt, ...]) -> str:
    """Per-thread operation count as a Python expression.

    Like :func:`stmt_op_count` but nested sequential loops multiply by
    their (runtime) trip count, so a fused kernel charges ``K x body``
    ops per thread.
    """

    def go(s: Stmt) -> str:
        leaf = _leaf_op_count(s)
        if leaf is not None:
            return str(leaf)
        match s:
            case SLoop(_, gen, body):
                lo = emit_scalar_expr(gen.lo)
                hi = emit_scalar_expr(gen.hi)
                inner = " + ".join(go(b) for b in body) or "0"
                return f"max(0, ({hi}) - ({lo})) * ({inner})"
            case SIf(cond, then, els):
                parts = [str(_expr_ops(cond))]
                parts.extend(go(b) for b in then)
                parts.extend(go(b) for b in els)
                return "(" + " + ".join(parts) + ")"

    return "(" + (" + ".join(go(s) for s in stmts) or "0") + ")"


def stmt_op_count(stmts: tuple[Stmt, ...]) -> int:
    """Static operation count, used by the GPU cost model.

    Loops count one bound evaluation plus the body *once* (no trip-count
    multiplication -- that is :func:`op_count_code`'s job)."""

    def go(s: Stmt) -> int:
        leaf = _leaf_op_count(s)
        if leaf is not None:
            return leaf
        match s:
            case SIf(cond, then, els):
                return _expr_ops(cond) + sum(map(go, then)) + sum(map(go, els))
            case SLoop(_, gen, body):
                return _expr_ops(gen.hi) + sum(map(go, body))

    return sum(map(go, stmts))


class SourceBuilder:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0
        self._fresh = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def fresh(self, prefix: str) -> str:
        self._fresh += 1
        return f"_{prefix}{self._fresh}"

    def block(self):
        return _Indent(self)

    def source(self) -> str:
        return "\n".join(self.lines)


class _Indent:
    def __init__(self, sb: SourceBuilder):
        self.sb = sb

    def __enter__(self):
        self.sb.depth += 1

    def __exit__(self, *exc):
        self.sb.depth -= 1


# ----------------------------------------------------------------------
# Scalar expression emission.
# ----------------------------------------------------------------------


def emit_scalar_expr(e: Expr) -> str:
    match e:
        case Var(name):
            return mangle(name)
        case IntLit(v):
            return repr(v)
        case RealLit(v):
            return repr(v)
        case Index(base, idx):
            return f"{emit_scalar_expr(base)}[{emit_scalar_expr(idx)}]"
        case Call(fn, args):
            parts = [emit_scalar_expr(a) for a in args]
            if fn.startswith("lib."):
                return f"_lib.{fn[4:]}({', '.join(parts)})"
            if fn == "neg":
                return f"(-{parts[0]})"
            b = BUILTINS.get(fn)
            if b is not None and b.infix is not None:
                return f"({parts[0]} {b.infix} {parts[1]})"
            if b is not None and b.py_name is not None:
                return f"_ops.{b.py_name}({', '.join(parts)})"
            raise CodegenError(f"cannot emit operator {fn!r}")
        case DistOp(dist, args, op, value, grad_index):
            parts = [emit_scalar_expr(a) for a in args]
            if op is DistOpKind.SAMP:
                return f"_d_{dist}.sample(_rng, {', '.join(parts)})"
            at = emit_scalar_expr(value)
            if op is DistOpKind.LL:
                return f"_d_{dist}.logpdf({at}, {', '.join(parts)})"
            return f"_d_{dist}.grad({grad_index}, {at}, {', '.join(parts)})"
        case _:
            raise CodegenError(f"cannot emit expression {e!r}")


# ----------------------------------------------------------------------
# Vectorised emission of one parallel loop.
# ----------------------------------------------------------------------


@dataclass
class _VecCtx:
    """Per-loop vectorisation context."""

    bindings: dict[str, str]  # loop var -> batch index code
    kinds: dict[str, bool] = field(default_factory=dict)  # temp -> is_batch
    pair_vars: tuple[str, str] | None = None
    bn: str = "_bn"
    bpos: str = "_bpos"
    #: A rectangular nest's ``(lo, hi, cols)`` codes: the outer range and
    #: the row length.  ``None`` for a single loop and a ragged nest.
    rect: tuple[str, str, str] | None = None
    #: Names whose value varies within a row of a rectangular nest: the
    #: inner loop variable and the temps computed from it.
    in_row: set[str] = field(default_factory=set)

    def is_batch_name(self, name: str) -> bool:
        return name in self.bindings or self.kinds.get(name, False)

    def bind(self, name: str, batch: bool, rhs: Expr) -> None:
        """Record a temp's batch-ness and whether it varies within a row."""
        self.kinds[name] = batch
        if free_vars(rhs) & self.in_row:
            self.in_row.add(name)
        else:
            self.in_row.discard(name)


class VecEmitter:
    def __init__(self, sb: SourceBuilder, ctx: _VecCtx, ragged_names: frozenset[str]):
        self.sb = sb
        self.ctx = ctx
        self.ragged = ragged_names

    # -- expressions -----------------------------------------------------

    def vx(self, e: Expr) -> tuple[str, bool]:
        ctx = self.ctx
        match e:
            case Var(name):
                if name in ctx.bindings:
                    return ctx.bindings[name], True
                return mangle(name), ctx.kinds.get(name, False)
            case IntLit(v) | RealLit(v):
                return repr(v), False
            case Index():
                return self._vx_index(e)
            case Call(fn, args):
                return self._vx_call(fn, args)
            case DistOp(dist, args, op, value, grad_index):
                parts = [self.vx(a) for a in args]
                batch = any(b for _, b in parts)
                arg_code = ", ".join(c for c, _ in parts)
                if op is DistOpKind.SAMP:
                    return f"_d_{dist}.sample(_rng, {arg_code})", batch
                at_code, at_b = self.vx(value)
                batch = batch or at_b
                if op is DistOpKind.LL:
                    return f"_d_{dist}.logpdf({at_code}, {arg_code})", batch
                return (
                    f"_d_{dist}.grad({grad_index}, {at_code}, {arg_code})",
                    batch,
                )
            case _:
                raise VectorizeFailure(f"cannot vectorise {e!r}")

    def _pair_prefix(self, e: Expr) -> str | None:
        """Detect ``X[v1][v2]`` under nest mode -> flat view code."""
        ctx = self.ctx
        if ctx.pair_vars is None:
            return None
        match e:
            case Index(Index(Var(name), Var(i1)), Var(i2)) if (
                (i1, i2) == ctx.pair_vars and not ctx.is_batch_name(name)
            ):
                if ctx.rect is None:
                    return f"_vops.pair_flat({mangle(name)})"
                if name in self.ragged:
                    raise VectorizeFailure(
                        f"rectangular nest over ragged array {name!r}"
                    )
                lo, hi, cols = ctx.rect
                return f"_vops.rect_flat({mangle(name)}, {lo}, {hi}, {cols})"
        return None

    def _vx_index(self, e: Index) -> tuple[str, bool]:
        flat = self._pair_prefix(e)
        if flat is not None:
            return flat, True
        base_code, base_b = self.vx(e.base)
        idx_code, idx_b = self.vx(e.index)
        if not base_b and not idx_b:
            return f"{base_code}[{idx_code}]", False
        if not base_b and idx_b:
            if isinstance(e.base, Var) and e.base.name in self.ragged:
                raise VectorizeFailure(
                    f"gather into ragged array {e.base.name!r}"
                )
            return f"_vops.take({base_code}, {idx_code})", True
        if base_b and not idx_b:
            return f"{base_code}[:, {idx_code}]", True
        return f"_vops.take_pair({base_code}, {idx_code})", True

    def _vx_call(self, fn: str, args) -> tuple[str, bool]:
        parts = [self.vx(a) for a in args]
        batch = any(b for _, b in parts)
        codes = [c for c, _ in parts]
        if fn.startswith("lib."):
            return f"_lib.{fn[4:]}({', '.join(codes)})", batch
        if fn == "neg":
            return f"(-{codes[0]})", batch
        if fn == "len":
            # A batch of uniform-length vectors still has scalar length.
            return f"_ops.vlen({codes[0]})", False
        if fn in _VOPS_BINARY:
            (a, ab), (b, bb) = parts
            if not ab and not bb:
                bi = BUILTINS[fn]
                if bi.infix is not None:
                    return f"({a} {bi.infix} {b})", False
                return f"_ops.{bi.py_name}({a}, {b})", False
            return f"_vops.{_VOPS_BINARY[fn]}({a}, {b}, {ab}, {bb})", True
        bi = BUILTINS.get(fn)
        if bi is not None and bi.py_name is not None:
            return f"_ops.{bi.py_name}({', '.join(codes)})", batch
        raise VectorizeFailure(f"cannot vectorise call {fn!r}")

    # -- statements -------------------------------------------------------

    def stmt(self, s: Stmt, mask: str | None) -> None:
        match s:
            case SAssign():
                self._assign(s, mask)
            case SMultiAssign(lhs, rhs):
                if any(lv.indices for lv in lhs):
                    raise VectorizeFailure("indexed multi-assign in parallel loop")
                code, batch = self.vx(rhs)
                names = ", ".join(mangle(lv.name) for lv in lhs)
                self.sb.emit(f"{names} = {code}")
                for lv in lhs:
                    self.ctx.bind(lv.name, batch, rhs)
            case SIf(cond, then, els):
                self._guard(cond, then, els, mask)
            case SLoop(kind, gen, body):
                # A sequential inner loop runs per-thread: emit it as a
                # host-level Python loop around vectorised statements
                # (the fused-kernel shape).  Parallel inner loops would
                # need a second batch axis -- decline those.
                if kind is not LoopKind.SEQ:
                    raise VectorizeFailure("nested parallel loop")
                lo_code, lo_b = self.vx(gen.lo)
                hi_code, hi_b = self.vx(gen.hi)
                if lo_b or hi_b:
                    raise VectorizeFailure("inner loop bound varies per lane")
                self.sb.emit(
                    f"for {mangle(gen.var)} in range({lo_code}, {hi_code}):"
                )
                with self.sb.block():
                    if not body:
                        self.sb.emit("pass")
                    for s in body:
                        self.stmt(s, mask)
            case _:
                raise VectorizeFailure(f"cannot vectorise statement {s!r}")

    def _sample_with_size(self, e: DistOp) -> tuple[str, bool]:
        """A prior draw with constant parameters inside a parallel loop
        must produce one variate per lane."""
        parts = [self.vx(a) for a in e.args]
        if any(b for _, b in parts):
            return self.vx(e)
        args = ", ".join(c for c, _ in parts)
        sep = ", " if args else ""
        return f"_d_{e.dist}.sample(_rng, {args}{sep}size={self.ctx.bn})", True

    def _row_reduce(self, s: SAssign, mask: str | None) -> bool:
        """Emit a rectangular nest's reduction whose target cell is fixed
        within each row; False when ``s`` is not one.

        The loop over the rows that this nest replaces summed each row's
        contributions with one :func:`vops.vsum` and added the row totals
        to the target in row order.  Both steps are kept: the per-row
        totals come from :func:`vops.rowsum`, and ``np.add.at`` (indexed
        target) or :func:`vops.fold_rows` (fixed cell) adds them row by
        row.  Summing the whole batch at once would group the additions
        differently and change the result in its last bits.
        """
        ctx = self.ctx
        if ctx.rect is None or s.op is not AssignOp.INC:
            return False
        if any(free_vars(i) & ctx.in_row for i in s.lhs.indices):
            return False
        if mask is not None:
            # The loop summed each row's guarded lanes compacted, which a
            # row sum with zeros in place of the other lanes does not
            # reproduce bitwise once a row has 8 or more lanes.
            raise VectorizeFailure("guarded reduction into a row's cell")
        cols = ctx.rect[2]
        code, batch = self.vx(s.rhs)
        if batch and not free_vars(s.rhs) & ctx.in_row:
            # One value per row: the loop scaled it by the row length,
            # as vsum does a value that is the same on every lane.
            rows = f"({cols} * ({code})[::{cols}])"
        else:
            rows = f"_vops.rowsum({code}, {batch}, {ctx.bn}, {cols})"
        idx_parts = [self.vx(i) for i in s.lhs.indices]
        target = mangle(s.lhs.name)
        if any(b for _, b in idx_parts):
            # Each row's index: the value on the row's first lane.
            heads = ", ".join(
                f"({c})[::{cols}]" if b else c for c, b in idx_parts
            )
            self.sb.emit(
                f"_vops.incidx({target}, ({heads},), {rows}, True, None)"
            )
            return True
        cell = target + "".join(f"[{c}]" for c, _ in idx_parts)
        self.sb.emit(f"{cell} = _vops.fold_rows({cell}, {rows})")
        return True

    def _assign(self, s: SAssign, mask: str | None) -> None:
        ctx = self.ctx
        if self._row_reduce(s, mask):
            return
        if not s.lhs.indices:
            name = s.lhs.name
            if s.op is AssignOp.SET:
                if isinstance(s.rhs, DistOp) and s.rhs.op is DistOpKind.SAMP:
                    raise VectorizeFailure("per-lane scalar rebinding of a draw")
                code, batch = self.vx(s.rhs)
                self.sb.emit(f"{mangle(name)} = {code}")
                ctx.bind(name, batch, s.rhs)
                return
            # Accumulation across the whole batch.
            code, batch = self.vx(s.rhs)
            if mask is None:
                self.sb.emit(
                    f"{mangle(name)} = {mangle(name)} + "
                    f"_vops.vsum({code}, {batch}, {ctx.bn})"
                )
            else:
                self.sb.emit(
                    f"{mangle(name)} = {mangle(name)} + "
                    f"_vops.masked_vsum({code}, {batch}, {mask})"
                )
            return

        # Indexed store.
        target = mangle(s.lhs.name)
        indices = list(s.lhs.indices)
        # A ragged nest's prefix on the left-hand side collapses to the
        # flat view; a rectangular nest stores through both indices.
        if (
            ctx.pair_vars is not None
            and ctx.rect is None
            and len(indices) >= 2
            and indices[0] == Var(ctx.pair_vars[0])
            and indices[1] == Var(ctx.pair_vars[1])
        ):
            target = f"_vops.pair_flat({target})"
            idx_parts = [(ctx.bpos, True)] + [self.vx(i) for i in indices[2:]]
        else:
            if s.lhs.name in self.ragged:
                raise VectorizeFailure(f"store into ragged array {s.lhs.name!r}")
            idx_parts = [self.vx(i) for i in indices]

        if isinstance(s.rhs, DistOp) and s.rhs.op is DistOpKind.SAMP:
            code, batch = self._sample_with_size(s.rhs)
        else:
            code, batch = self.vx(s.rhs)

        any_batch_idx = any(b for _, b in idx_parts)
        idx_code = "(" + ", ".join(c for c, _ in idx_parts) + ("," if len(idx_parts) == 1 else "") + ")"
        if not any_batch_idx:
            # Every lane hits the same cell.
            plain = target + "".join(f"[{c}]" for c, _ in idx_parts)
            if s.op is AssignOp.SET:
                if batch or mask is not None:
                    raise VectorizeFailure("batch SET into a single cell")
                self.sb.emit(f"{plain} = {code}")
            else:
                total = (
                    f"_vops.masked_vsum({code}, {batch}, {mask})"
                    if mask is not None
                    else f"_vops.vsum({code}, {batch}, {ctx.bn})"
                )
                self.sb.emit(f"{plain} += {total}")
            return
        helper = "setidx" if s.op is AssignOp.SET else "incidx"
        mask_code = mask if mask is not None else "None"
        self.sb.emit(
            f"_vops.{helper}({target}, {idx_code}, {code}, {batch}, {mask_code})"
        )

    def _guard(self, cond, then, els, mask: str | None) -> None:
        code, batch = self.vx(cond)
        if not batch:
            self.sb.emit(f"if {code}:")
            with self.sb.block():
                if not then:
                    self.sb.emit("pass")
                for s in then:
                    self.stmt(s, mask)
            if els:
                self.sb.emit("else:")
                with self.sb.block():
                    for s in els:
                        self.stmt(s, mask)
            return
        m = self.sb.fresh("m")
        conj = f"({code}) != 0" if mask is None else f"(({code}) != 0) & {mask}"
        self.sb.emit(f"{m} = {conj}")
        for s in then:
            self.stmt(s, m)
        if els:
            mneg = self.sb.fresh("m")
            neg = f"~(({code}) != 0)" if mask is None else f"(~(({code}) != 0)) & {mask}"
            self.sb.emit(f"{mneg} = {neg}")
            for s in els:
                self.stmt(s, mneg)
