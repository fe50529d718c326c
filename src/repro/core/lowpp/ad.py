"""Source-to-source reverse-mode AD: Density IL -> Low++ (paper Fig. 8).

The translation builds an *adjoint program* that computes the gradient
of a (block) conditional's log density with respect to a set of target
variables.  Two properties from the paper are preserved:

- **No stack.**  The comprehensions of the Density IL are parallel, so
  the adjoint of a structured product is simply an ``AtmPar`` loop over
  the same generator -- order-independence lets the usual AD tape be
  optimised away (Section 4.4, "the stack can be optimized away").

- **Atomic accumulation.**  Adjoint contributions are emitted as the
  dedicated increment-and-assign statement, e.g. ``adj_mu[z[n]] +=
  adj_ll * t``, which parallel backends must execute atomically.  The
  contention this can cause is exactly what the Blk-IL summation-block
  conversion (Section 5.4) exists to fix.
"""

from __future__ import annotations

from repro.core.density.conditionals import BlockConditional
from repro.core.density.ir import Factor
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
    map_children,
    mentions,
    walk,
)
from repro.core.lowpp.gen_ll import _LL, _guard_expr, _needed_lets
from repro.core.provenance import Provenance, merge_stmts
from repro.core.lowpp.ir import (
    AssignOp,
    LDecl,
    LoopKind,
    LValue,
    SAssign,
    SIf,
    SLoop,
    Stmt,
    assigned_names,
)
from repro.core.workspace import WorkspaceSpec
from repro.errors import CodegenError
from repro.runtime.distributions import lookup


def _mentions_any(e: Expr, names: tuple[str, ...]) -> bool:
    return any(mentions(e, n) for n in names)


class _AdjointEmitter:
    """Emits adjoint statements for one gradient declaration.

    ``prefix`` names the adjoint accumulation buffers (``adj_<target>``
    for the standalone gradient, ``_adj_<target>`` workspace buffers for
    the fused value+gradient declaration).
    """

    def __init__(self, targets: tuple[str, ...], prefix: str = "adj_"):
        self.targets = targets
        self.prefix = prefix
        self._counter = 0

    def fresh(self) -> str:
        # Leading underscore: model variables are plain identifiers, so
        # ``_t<n>`` can never shadow one (a model named ``t1`` would
        # otherwise be clobbered by the first adjoint temp).
        self._counter += 1
        return f"_t{self._counter}"

    # -- expression adjoints (Figure 8a) --------------------------------

    def backprop(self, e: Expr, adj: Expr, out: list[Stmt]) -> None:
        """Accumulate ``adj`` into the adjoints of targets inside ``e``."""
        match e:
            case Var(name):
                if name in self.targets:
                    out.append(
                        SAssign(LValue(f"{self.prefix}{name}"), AssignOp.INC, adj)
                    )
                return
            case Index():
                head, idxs = self._index_path(e)
                for i in idxs:
                    if _mentions_any(i, self.targets):
                        raise CodegenError(
                            "cannot differentiate through an index that "
                            f"depends on a target variable: {e}"
                        )
                if head in self.targets:
                    out.append(
                        SAssign(
                            LValue(f"{self.prefix}{head}", idxs), AssignOp.INC, adj
                        )
                    )
                return
            case Call(fn, args):
                self._backprop_call(fn, args, adj, out)
                return
            case IntLit() | RealLit():
                return
            case _:
                raise CodegenError(f"cannot differentiate expression {e!r}")

    @staticmethod
    def _index_path(e: Expr) -> tuple[str | None, tuple[Expr, ...]]:
        idxs: list[Expr] = []
        node = e
        while isinstance(node, Index):
            idxs.append(node.index)
            node = node.base
        head = node.name if isinstance(node, Var) else None
        return head, tuple(reversed(idxs))

    def _backprop_call(self, fn: str, args, adj: Expr, out: list[Stmt]) -> None:
        a = args[0]
        b = args[1] if len(args) > 1 else None
        partials: list[tuple[Expr, Expr]] = []  # (sub-expression, local adjoint)
        if fn == "+":
            partials = [(a, adj), (b, adj)]
        elif fn == "-":
            partials = [(a, adj), (b, Call("neg", (adj,)))]
        elif fn == "*":
            partials = [(a, Call("*", (adj, b))), (b, Call("*", (adj, a)))]
        elif fn == "/":
            partials = [
                (a, Call("/", (adj, b))),
                (b, Call("neg", (Call("/", (Call("*", (adj, a)), Call("*", (b, b)))),))),
            ]
        elif fn == "neg":
            partials = [(a, Call("neg", (adj,)))]
        elif fn == "exp":
            partials = [(a, Call("*", (adj, Call("exp", (a,)))))]
        elif fn == "log":
            partials = [(a, Call("/", (adj, a)))]
        elif fn == "sqrt":
            partials = [(a, Call("/", (adj, Call("*", (RealLit(2.0), Call("sqrt", (a,)))))))]
        elif fn == "sigmoid":
            s = Call("sigmoid", (a,))
            partials = [(a, Call("*", (adj, Call("*", (s, Call("-", (RealLit(1.0), s)))))))]
        elif fn == "pow":
            partials = [
                (a, Call("*", (adj, Call("*", (b, Call("pow", (a, Call("-", (b, RealLit(1.0)))))))))),
                (b, Call("*", (adj, Call("*", (Call("log", (a,)), Call("pow", (a, b))))))),
            ]
        elif fn == "dotp":
            # Vector adjoints: d dotp(a, b) / d a = b (element-wise).
            partials = [(a, Call("*", (adj, b))), (b, Call("*", (adj, a)))]
        else:
            raise CodegenError(f"no adjoint rule for operator {fn!r}")
        for sub, local in partials:
            if sub is None or not _mentions_any(sub, self.targets):
                continue
            # Bind the propagated adjoint to a temp so chains stay linear
            # (the "simple expressions" form Figure 8 assumes).
            t = self.fresh()
            out.append(SAssign(LValue(t), AssignOp.SET, local))
            self.backprop(sub, Var(t), out)

    # -- factor adjoints (Figure 8b) -------------------------------------

    def factor_stmts(self, factor: Factor) -> tuple[Stmt, ...]:
        inner = self.factor_inner(factor)
        if not inner:
            return ()
        for a, b in factor.guards:
            if _mentions_any(a, self.targets) or _mentions_any(b, self.targets):
                raise CodegenError("cannot differentiate through a guard")
        cond = _guard_expr(factor.guards)
        body: tuple[Stmt, ...] = inner
        if cond is not None:
            body = (SIf(cond, body),)
        for g in reversed(factor.gens):
            body = (SLoop(LoopKind.ATM_PAR, g, body),)
        return body

    def factor_inner(self, factor: Factor) -> tuple[Stmt, ...]:
        """The factor's adjoint statements, without guard or loop wrappers."""
        dist = lookup(factor.dist)
        inner: list[Stmt] = []
        if _mentions_any(factor.at, self.targets):
            if not dist.supports_grad(0):
                raise CodegenError(
                    f"{factor.dist}: gradient w.r.t. the value is unavailable"
                )
            t = self.fresh()
            inner.append(
                SAssign(
                    LValue(t),
                    AssignOp.SET,
                    DistOp(factor.dist, factor.args, DistOpKind.GRAD,
                           value=factor.at, grad_index=0),
                )
            )
            self.backprop(factor.at, Var(t), inner)
        for i, arg in enumerate(factor.args, start=1):
            if not _mentions_any(arg, self.targets):
                continue
            if not dist.supports_grad(i):
                raise CodegenError(
                    f"{factor.dist}: gradient w.r.t. argument {i} is unavailable"
                )
            t = self.fresh()
            inner.append(
                SAssign(
                    LValue(t),
                    AssignOp.SET,
                    DistOp(factor.dist, factor.args, DistOpKind.GRAD,
                           value=factor.at, grad_index=i),
                )
            )
            self.backprop(arg, Var(t), inner)
        return tuple(inner)


def gen_grad(
    blk: BlockConditional,
    lets: tuple[tuple[str, Expr], ...] = (),
) -> LDecl:
    """Generate the adjoint declaration for a block conditional.

    Returns ``grad_<targets>`` computing ``d log p / d target`` for every
    target, as a tuple in target order.  Adjoint buffers are zeroed with
    ``lib.zeros_like`` so their shapes always match the state.
    """
    targets = blk.targets
    emitter = _AdjointEmitter(targets)
    free: set[str] = set()
    for f in blk.factors:
        free |= f.free_names()
    body: list[Stmt] = list(_needed_lets(lets, frozenset(free)))
    for t in targets:
        body.append(
            SAssign(
                LValue(f"adj_{t}"),
                AssignOp.SET,
                Call("lib.zeros_like", (Var(t),)),
            )
        )
    for f in blk.factors:
        body.extend(emitter.factor_stmts(f))
    params = tuple(sorted(free | set(targets)))
    return LDecl(
        name="grad_" + "_".join(targets),
        params=params,
        body=tuple(body),
        ret=tuple(Var(f"adj_{t}") for t in targets),
        provenance=Provenance(
            stmt=targets[0],
            stmts=merge_stmts(
                targets[0], targets, (f.source for f in blk.factors)
            ),
            stage="lowpp.ad",
        ),
    )


def _merged_factor_stmts(
    factor: Factor, emitter: _AdjointEmitter
) -> tuple[Stmt, ...]:
    """One loop nest accumulating a factor's log density *and* adjoints.

    Fusing the likelihood statement into the adjoint loop puts both in
    one scope, so the CSE pass can bind the factor's argument
    expressions (the forward pass) once and share them -- the log
    density and every distribution/chain-rule partial read the same
    temps instead of re-evaluating the arguments.
    """
    adj_inner = emitter.factor_inner(factor)
    if adj_inner:
        for a, b in factor.guards:
            if _mentions_any(a, emitter.targets) or _mentions_any(b, emitter.targets):
                raise CodegenError("cannot differentiate through a guard")
    ll_inc: Stmt = SAssign(
        LValue(_LL),
        AssignOp.INC,
        DistOp(factor.dist, factor.args, DistOpKind.LL, value=factor.at),
    )
    inner: tuple[Stmt, ...] = (ll_inc,) + adj_inner
    cond = _guard_expr(factor.guards)
    if cond is not None:
        inner = (SIf(cond, inner),)
    for g in reversed(factor.gens):
        inner = (SLoop(LoopKind.ATM_PAR, g, inner),)
    return inner


# ----------------------------------------------------------------------
# Common-subexpression elimination over the fused body.
# ----------------------------------------------------------------------


def _hoistable(e: Expr) -> bool:
    """Pure, non-leaf expressions worth binding to a temp when repeated."""
    if isinstance(e, (Call, Index)):
        return True
    return isinstance(e, DistOp) and e.op is not DistOpKind.SAMP


def _count_subexprs(stmts, counts: dict, element_reads: dict) -> None:
    """Count each hoistable subexpression, and separately how often it
    occurs only as the row an element is read from (``t[d]`` in
    ``t[d][j]``)."""
    for s in stmts:
        exprs: tuple[Expr, ...] = ()
        if isinstance(s, SAssign):
            exprs = (s.rhs, *s.lhs.indices)
        elif isinstance(s, SIf):
            exprs = (s.cond,)
            _count_subexprs(s.then, counts, element_reads)
            _count_subexprs(s.els, counts, element_reads)
        elif isinstance(s, SLoop):
            _count_subexprs(s.body, counts, element_reads)
        for e in exprs:
            for sub in walk(e):
                if _hoistable(sub):
                    counts[sub] = counts.get(sub, 0) + 1
                if isinstance(sub, Index) and _hoistable(sub.base):
                    element_reads[sub.base] = element_reads.get(sub.base, 0) + 1


class _Cse:
    """Bind repeated pure subexpressions to ``_fwd<n>`` temps.

    Statements are rewritten in order; a temp's definition is inserted
    immediately before the first statement that uses it, so evaluation
    order (and hence every floating-point result) is unchanged -- the
    shared value is simply not recomputed.  Scoping is conservative:
    temps defined inside a guard or loop body never escape it, and
    expressions mentioning names assigned within the region (the
    accumulators and adjoint-chain temps) are never hoisted.

    A row that is only ever read one element at a time (``t[d]`` in
    ``t[d][j]``) is not bound either: the element read is the shared
    value, and a loop nest over ``(d, j)`` vectorises ``t[d][j]`` as one
    flat read, where a temp holding the row would be gathered per lane.
    """

    def __init__(
        self, counts: dict, element_reads: dict, protect: frozenset[str]
    ):
        self.counts = counts
        self.element_reads = element_reads
        self.protect = protect
        self._n = 0

    def _fresh(self) -> str:
        self._n += 1
        return f"_fwd{self._n}"

    def rewrite_stmts(self, stmts, memo: dict) -> tuple[Stmt, ...]:
        out: list[Stmt] = []
        for s in stmts:
            defs: list[Stmt] = []
            if isinstance(s, SAssign):
                rhs = self.rewrite(s.rhs, memo, defs)
                idxs = tuple(self.rewrite(i, memo, defs) for i in s.lhs.indices)
                out.extend(defs)
                out.append(SAssign(LValue(s.lhs.name, idxs), s.op, rhs))
            elif isinstance(s, SIf):
                cond = self.rewrite(s.cond, memo, defs)
                out.extend(defs)
                out.append(
                    SIf(
                        cond,
                        self.rewrite_stmts(s.then, dict(memo)),
                        self.rewrite_stmts(s.els, dict(memo)),
                    )
                )
            elif isinstance(s, SLoop):
                out.append(
                    SLoop(s.kind, s.gen, self.rewrite_stmts(s.body, dict(memo)))
                )
            else:
                out.append(s)
        return tuple(out)

    def rewrite(self, e: Expr, memo: dict, defs: list) -> Expr:
        t = memo.get(e)
        if t is not None:
            return Var(t)
        e2 = map_children(e, lambda c: self.rewrite(c, memo, defs))
        count = self.counts.get(e, 0)
        if (
            _hoistable(e)
            and count >= 2
            and count > self.element_reads.get(e, 0)
            and not (free_vars(e) & self.protect)
        ):
            t = self._fresh()
            defs.append(SAssign(LValue(t), AssignOp.SET, e2))
            memo[e] = t
            return Var(t)
        return e2


def _cse_stmts(stmts: tuple[Stmt, ...]) -> tuple[Stmt, ...]:
    counts: dict = {}
    element_reads: dict = {}
    _count_subexprs(stmts, counts, element_reads)
    if not any(c >= 2 for c in counts.values()):
        return stmts
    cse = _Cse(counts, element_reads, assigned_names(stmts))
    return cse.rewrite_stmts(stmts, {})


def gen_ll_grad(
    blk: BlockConditional,
    lets: tuple[tuple[str, Expr], ...] = (),
) -> tuple[LDecl, tuple[WorkspaceSpec, ...]]:
    """Generate the fused value+gradient declaration for a block.

    Returns ``ll_grad_<targets>`` computing the block log density *and*
    ``d log p / d target`` for every target in one pass: each factor's
    likelihood and adjoint statements share one loop nest, and a CSE
    pass binds the repeated forward expressions (distribution arguments
    and their chain-rule reconstructions) to temps evaluated once.  The
    adjoint buffers are pre-allocated workspaces (shaped ``like`` their
    target state buffer) zeroed in place with ``lib.fill_zero`` on
    entry, so the fused call allocates nothing beyond the shared temps.

    Return order is ``(ll, adj_<t0>, adj_<t1>, ...)`` in target order.
    Raises :class:`CodegenError` exactly when :func:`gen_grad` would --
    callers fall back to the separate ``ll``/``grad`` pair.
    """
    targets = blk.targets
    emitter = _AdjointEmitter(targets, prefix="_adj_")
    free: set[str] = set()
    for f in blk.factors:
        free |= f.free_names()
    let_stmts = _needed_lets(lets, frozenset(free))
    body: list[Stmt] = list(let_stmts)
    body.append(SAssign(LValue(_LL), AssignOp.SET, RealLit(0.0)))
    adj_names = tuple(f"_adj_{t}" for t in targets)
    for a in adj_names:
        body.append(
            SAssign(LValue(a), AssignOp.SET, Call("lib.fill_zero", (Var(a),)))
        )
    factor_body: list[Stmt] = []
    for f in blk.factors:
        factor_body.extend(_merged_factor_stmts(f, emitter))
    body.extend(_cse_stmts(tuple(factor_body)))
    bound = {s.lhs.name for s in let_stmts}
    for s in let_stmts:
        free |= free_vars(s.rhs)
    params = tuple(sorted((free | set(targets)) - bound))
    decl = LDecl(
        name="ll_grad_" + "_".join(targets),
        params=params,
        body=tuple(body),
        ret=(Var(_LL),) + tuple(Var(a) for a in adj_names),
        locals_hint=adj_names,
        provenance=Provenance(
            stmt=targets[0],
            stmts=merge_stmts(
                targets[0], targets, (f.source for f in blk.factors)
            ),
            stage="lowpp.ad",
        ),
    )
    specs = tuple(
        WorkspaceSpec(a, gens=(), like=t) for a, t in zip(adj_names, targets)
    )
    return decl, specs
