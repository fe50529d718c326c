"""Per-variable metadata the middle-end consumes.

After parsing and type checking, the compiler summarises each random
variable into a :class:`VarInfo` record: its declaration kind, its
distribution, its comprehension generators, its inferred type, and
support information used by the scheduler (discrete vs. continuous,
constrained vs. unconstrained).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exprs import Gen
from repro.core.frontend.ast import DeclKind, Model
from repro.core.frontend.typecheck import typecheck_model
from repro.core.types import Ty
from repro.errors import TypeCheckError
from repro.runtime.distributions import lookup


@dataclass(frozen=True)
class VarInfo:
    """Everything the middle-end needs to know about one model variable."""

    name: str
    kind: DeclKind
    ty: Ty
    gens: tuple[Gen, ...]
    dist_name: str | None  # None for `let` declarations
    support: str | None
    is_discrete: bool

    @property
    def is_param(self) -> bool:
        return self.kind is DeclKind.PARAM

    @property
    def is_data(self) -> bool:
        return self.kind is DeclKind.DATA


@dataclass(frozen=True)
class ModelInfo:
    """The symbol table for a type-checked model."""

    model: Model
    hyper_types: dict[str, Ty]
    var_types: dict[str, Ty]
    vars: dict[str, VarInfo]

    def info(self, name: str) -> VarInfo:
        try:
            return self.vars[name]
        except KeyError:
            known = ", ".join(sorted(self.vars))
            raise TypeCheckError(
                f"{name!r} is not a model variable; model variables: {known}"
            ) from None

    def param_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.vars.values() if v.is_param)

    def data_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.vars.values() if v.is_data)


def analyze_model(model: Model, hyper_types: dict[str, Ty]) -> ModelInfo:
    """Type-check ``model`` and build its symbol table."""
    var_types = typecheck_model(model, hyper_types)
    infos: dict[str, VarInfo] = {}
    for d in model.decls:
        if d.is_stochastic:
            dist = lookup(d.dist.dist)
            info = VarInfo(
                name=d.name,
                kind=d.kind,
                ty=var_types[d.name],
                gens=d.gens,
                dist_name=dist.name,
                support=dist.support,
                is_discrete=dist.is_discrete,
            )
        else:
            info = VarInfo(
                name=d.name,
                kind=d.kind,
                ty=var_types[d.name],
                gens=d.gens,
                dist_name=None,
                support=None,
                is_discrete=False,
            )
        infos[d.name] = info
    return ModelInfo(model=model, hyper_types=dict(hyper_types), var_types=var_types, vars=infos)
