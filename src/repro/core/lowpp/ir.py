"""Low++ IL statements and declarations (paper Figure 6).

::

    decl ::= name(x...){global: g..., body: s, ret: e}
    s    ::= e | x sk e | e[e...] sk e | s s
           | if(e){s}{s} | loop lk (i <- gen){s}
    sk   ::= = | +=
    lk   ::= Seq | Par | AtmPar

Expressions are the shared :mod:`repro.core.exprs` language extended
with distribution operations (``DistOp``).  The ``+=`` form is its own
syntactic category because parallel backends must perform it
atomically; ``AtmPar`` marks loops that are parallel *given* atomic
increments (Section 4.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.exprs import Expr, Gen
from repro.core.provenance import Provenance


class LoopKind(enum.Enum):
    SEQ = "Seq"
    PAR = "Par"
    ATM_PAR = "AtmPar"


class AssignOp(enum.Enum):
    SET = "="
    INC = "+="


@dataclass(frozen=True)
class LValue:
    """A store target: a variable, optionally indexed (``e[e...]``)."""

    name: str
    indices: tuple[Expr, ...] = ()

    def __str__(self) -> str:
        return self.name + "".join(f"[{i}]" for i in self.indices)


class Stmt:
    """Base class for statements."""


@dataclass(frozen=True)
class SAssign(Stmt):
    lhs: LValue
    op: AssignOp
    rhs: Expr

    def __str__(self) -> str:
        return f"{self.lhs} {self.op.value} {self.rhs};"


@dataclass(frozen=True)
class SMultiAssign(Stmt):
    """Tuple-destructuring assignment ``(a, b) = e`` -- used for library
    calls that return several values (e.g. posterior mean and covariance)."""

    lhs: tuple[LValue, ...]
    rhs: Expr

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.lhs)) + f") = {self.rhs};"


@dataclass(frozen=True)
class SIf(Stmt):
    cond: Expr
    then: tuple[Stmt, ...]
    els: tuple[Stmt, ...] = ()

    def __str__(self) -> str:
        out = f"if ({self.cond}) {{ " + " ".join(map(str, self.then)) + " }"
        if self.els:
            out += " else { " + " ".join(map(str, self.els)) + " }"
        return out


@dataclass(frozen=True)
class SLoop(Stmt):
    kind: LoopKind
    gen: Gen
    body: tuple[Stmt, ...]

    def __str__(self) -> str:
        inner = " ".join(map(str, self.body))
        return f"loop {self.kind.value} ({self.gen}) {{ {inner} }}"


@dataclass(frozen=True)
class LDecl:
    """A Low++ declaration.

    ``params`` are the run-time arguments (model state, hypers, data and
    index arguments); ``locals_hint`` names workspace buffers the
    declaration expects (their shapes are resolved by size inference in
    the Low-- phase); ``ret`` is a tuple of returned expressions (empty
    for in-place updates).
    """

    name: str
    params: tuple[str, ...]
    body: tuple[Stmt, ...]
    ret: tuple[Expr, ...] = ()
    locals_hint: tuple[str, ...] = field(default=())
    #: Source pointer to the model statement(s) the declaration was
    #: generated from.  Metadata only: excluded from equality/hash so
    #: structural comparisons of generated code stay provenance-blind.
    provenance: Provenance | None = field(default=None, compare=False)

    def __str__(self) -> str:
        lines = [f"{self.name}({', '.join(self.params)}) {{"]
        lines.extend(_fmt_stmt(s, 1) for s in self.body)
        if self.ret:
            lines.append("  ret " + ", ".join(map(str, self.ret)) + ";")
        lines.append("}")
        return "\n".join(lines)


def _fmt_stmt(s: Stmt, depth: int) -> str:
    pad = "  " * depth
    match s:
        case SLoop(kind, gen, body):
            head = f"{pad}loop {kind.value} ({gen}) {{"
            inner = "\n".join(_fmt_stmt(b, depth + 1) for b in body)
            return f"{head}\n{inner}\n{pad}}}"
        case SIf(cond, then, els):
            head = f"{pad}if ({cond}) {{"
            inner = "\n".join(_fmt_stmt(b, depth + 1) for b in then)
            out = f"{head}\n{inner}\n{pad}}}"
            if els:
                inner2 = "\n".join(_fmt_stmt(b, depth + 1) for b in els)
                out += f" else {{\n{inner2}\n{pad}}}"
            return out
        case _:
            return pad + str(s)


# ----------------------------------------------------------------------
# Structural helpers used by later lowering phases.
# ----------------------------------------------------------------------


def walk_stmts(stmts: tuple[Stmt, ...]):
    """Yield every statement, pre-order."""
    for s in stmts:
        yield s
        match s:
            case SLoop(_, _, body):
                yield from walk_stmts(body)
            case SIf(_, then, els):
                yield from walk_stmts(then)
                yield from walk_stmts(els)


def assigned_names(stmts: tuple[Stmt, ...]) -> frozenset[str]:
    """Names written (by = or +=) anywhere in the statements."""
    out: set[str] = set()
    for s in walk_stmts(stmts):
        if isinstance(s, SAssign):
            out.add(s.lhs.name)
        elif isinstance(s, SMultiAssign):
            out.update(lv.name for lv in s.lhs)
    return frozenset(out)
