"""Type checking for the surface language (the Figure 4 type system).

AugurV2 compiles at runtime, so hyper-parameter types are inferred from
the actual Python values handed to ``compile`` (:func:`type_of_value`)
and the model is then checked against them.  The checker verifies that
densities are applied on the appropriate spaces and that comprehension
bounds are integers, as the paper describes.
"""

from __future__ import annotations

import numpy as np

from repro.core.builtins import lookup_builtin
from repro.core.exprs import (
    Call,
    DistCall,
    Expr,
    Index,
    IntLit,
    RealLit,
    Var,
)
from repro.core.frontend.ast import Decl, Model
from repro.core.types import (
    INT,
    MAT_REAL,
    REAL,
    IntTy,
    MatTy,
    RealTy,
    Ty,
    VecTy,
    element_type,
)
from repro.errors import TypeCheckError
from repro.runtime.distributions import lookup
from repro.runtime.vectors import RaggedArray


def type_of_value(value) -> Ty:
    """Infer the surface type of a Python value supplied at compile time."""
    if isinstance(value, RaggedArray):
        elem = REAL if np.issubdtype(value.flat.dtype, np.floating) else INT
        if value.flat.ndim == 1:
            return VecTy(VecTy(elem))
        if value.flat.ndim == 2:
            return VecTy(VecTy(VecTy(elem))) if elem is REAL else VecTy(VecTy(VecTy(INT)))
        raise TypeCheckError("ragged arrays of rank > 2 rows are not supported")
    if isinstance(value, bool):
        raise TypeCheckError("booleans are not model values")
    if isinstance(value, (int, np.integer)):
        return INT
    if isinstance(value, (float, np.floating)):
        return REAL
    if isinstance(value, (list, tuple)):
        return type_of_value(RaggedArray.from_rows(value))
    if isinstance(value, np.ndarray):
        base = INT if np.issubdtype(value.dtype, np.integer) else REAL
        if value.ndim == 0:
            return base
        if value.ndim == 1:
            return VecTy(base)
        if value.ndim == 2:
            return MatTy(base) if base is REAL else VecTy(VecTy(INT))
        if value.ndim == 3 and base is REAL:
            return VecTy(MAT_REAL)
        raise TypeCheckError(f"cannot type array of rank {value.ndim}")
    raise TypeCheckError(f"cannot infer a model type for {type(value).__name__}")


def _assignable(actual: Ty, expected: Ty) -> bool:
    """Promotion: Int flows into Real, element-wise through Vec/Mat."""
    if actual == expected:
        return True
    if isinstance(expected, RealTy) and isinstance(actual, IntTy):
        return True
    if isinstance(expected, VecTy) and isinstance(actual, VecTy):
        return _assignable(actual.elem, expected.elem)
    if isinstance(expected, MatTy) and isinstance(actual, MatTy):
        return _assignable(actual.elem, expected.elem)
    # A Vec of Vecs can stand in for a Mat row-wise access pattern only
    # via explicit indexing, so it is not assignable here.
    return False


class TypeEnv:
    """Immutable-ish name -> type environment."""

    def __init__(self, bindings: dict[str, Ty] | None = None):
        self._bindings = dict(bindings or {})

    def bind(self, name: str, ty: Ty) -> "TypeEnv":
        child = TypeEnv(self._bindings)
        child._bindings[name] = ty
        return child

    def lookup(self, name: str) -> Ty:
        try:
            return self._bindings[name]
        except KeyError:
            raise TypeCheckError(f"unbound variable {name!r}") from None


def type_expr(e: Expr, env: TypeEnv) -> Ty:
    """Infer the type of an expression under ``env``."""
    match e:
        case IntLit():
            return INT
        case RealLit():
            return REAL
        case Var(name):
            return env.lookup(name)
        case Index(base, idx):
            ity = type_expr(idx, env)
            if not isinstance(ity, IntTy):
                raise TypeCheckError(f"index {idx} has type {ity}, expected Int")
            return element_type(type_expr(base, env))
        case Call(fn, args):
            b = lookup_builtin(fn)
            if len(args) != b.arity:
                raise TypeCheckError(
                    f"{fn}: expected {b.arity} arguments, got {len(args)}"
                )
            return b.type_rule(tuple(type_expr(a, env) for a in args))
        case DistCall(dist, args):
            return type_distcall(e, env)
        case _:
            raise TypeCheckError(f"cannot type expression {e!r}")


def type_distcall(dc: DistCall, env: TypeEnv) -> Ty:
    dist = lookup(dc.dist)
    if len(dc.args) != dist.arity:
        raise TypeCheckError(
            f"{dc.dist}: expected {dist.arity} arguments, got {len(dc.args)}"
        )
    for spec, arg in zip(dist.params, dc.args):
        actual = type_expr(arg, env)
        if not _assignable(actual, spec.ty):
            raise TypeCheckError(
                f"{dc.dist}: argument {spec.name} has type {actual}, "
                f"expected {spec.ty}"
            )
    return dist.result_ty


def decl_type(decl: Decl, env: TypeEnv) -> Ty:
    """The type of the declared variable: rhs type wrapped per generator."""
    inner = env
    for g in decl.gens:
        for bound in (g.lo, g.hi):
            bty = type_expr(bound, inner)
            if not isinstance(bty, IntTy):
                raise TypeCheckError(
                    f"{decl.name}: comprehension bound {bound} has type {bty}, "
                    "expected Int"
                )
        inner = inner.bind(g.var, INT)
    rhs_ty = type_expr(decl.rhs, inner)
    ty = rhs_ty
    for _ in decl.gens:
        ty = VecTy(ty)
    return ty


def typecheck_model(model: Model, hyper_types: dict[str, Ty]) -> dict[str, Ty]:
    """Check the whole model; return the type of every declared variable."""
    missing = [h for h in model.hypers if h not in hyper_types]
    if missing:
        raise TypeCheckError(f"missing types for hyper-parameters: {missing}")
    env = TypeEnv({h: hyper_types[h] for h in model.hypers})
    out: dict[str, Ty] = {}
    for d in model.decls:
        ty = decl_type(d, env)
        out[d.name] = ty
        env = env.bind(d.name, ty)
    return out
