"""Size inference (paper Section 5.2).

"AugurV2 programs express fixed-structure models.  Consequently, we can
bound the amount of memory an inference algorithm uses and allocate it
up front."  Because compilation happens at runtime, every comprehension
bound can be evaluated against the supplied hyper-parameters and data,
giving exact shapes for:

- the **state layout**: one buffer per model parameter, shaped by its
  declaration generators plus the distribution's event shape;
- the **workspaces** requested by update code generators (statistics
  accumulators, enumeration logit tables).

Ragged comprehensions (a bound mentioning an earlier binder, e.g. LDA's
``j <- 0 until N[d]``) allocate flattened
:class:`~repro.runtime.vectors.RaggedArray` buffers, matching the
paper's flattened runtime representation of vectors of vectors
(Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.density.interp import eval_expr
from repro.core.exprs import Gen, mentions
from repro.core.frontend.symbols import ModelInfo
from repro.core.workspace import WorkspaceSpec
from repro.errors import SizeInferenceError
from repro.runtime.distributions import lookup
from repro.runtime.vectors import RaggedArray


@dataclass(frozen=True)
class BufferShape:
    """Resolved shape of one buffer.

    For dense buffers ``lead`` holds concrete dimensions; for ragged
    buffers ``row_lengths`` holds the per-row lengths of the final
    (dependent) leading dimension.
    """

    name: str
    lead: tuple[int, ...]
    row_lengths: np.ndarray | None
    event: tuple[int, ...]
    dtype: str

    @property
    def is_ragged(self) -> bool:
        return self.row_lengths is not None

    def n_elements(self) -> int:
        inner = int(np.prod(self.event, dtype=np.int64)) if self.event else 1
        if self.is_ragged:
            return int(self.row_lengths.sum()) * inner
        return int(np.prod(self.lead, dtype=np.int64)) * inner if self.lead else inner

    def nbytes(self) -> int:
        return self.n_elements() * np.dtype(self.dtype).itemsize


@dataclass
class AllocationPlan:
    """The up-front memory plan for a compiled sampler."""

    state: dict[str, BufferShape] = field(default_factory=dict)
    workspaces: dict[str, BufferShape] = field(default_factory=dict)

    def total_bytes(self) -> int:
        return sum(b.nbytes() for b in self.state.values()) + sum(
            b.nbytes() for b in self.workspaces.values()
        )

    def describe(self) -> str:
        lines = ["allocation plan:"]
        for group, bufs in (("state", self.state), ("workspace", self.workspaces)):
            for b in bufs.values():
                shape = (
                    f"ragged[{len(b.row_lengths)} rows, {int(b.row_lengths.sum())} elems]"
                    if b.is_ragged
                    else str(b.lead)
                )
                lines.append(
                    f"  {group:9s} {b.name:20s} {shape} x {b.event} {b.dtype} "
                    f"({b.nbytes()} bytes)"
                )
        lines.append(f"  total: {self.total_bytes()} bytes")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Shape resolution.
# ----------------------------------------------------------------------


def _resolve_gens(gens: tuple[Gen, ...], env: dict, who: str):
    """Evaluate generator bounds -> (dense lead dims, ragged row lengths).

    Raggedness is only supported in the last generator (two-level
    vectors of vectors, the paper's ragged-array case).
    """
    binders = [g.var for g in gens]
    for i, g in enumerate(gens):
        deps = [b for b in binders[:i] if mentions(g.hi, b) or mentions(g.lo, b)]
        if deps and i != len(gens) - 1:
            raise SizeInferenceError(
                f"{who}: only the innermost comprehension may be ragged, "
                f"but generator {g.var!r} depends on {deps}"
            )
        if mentions(g.lo, g.var) or mentions(g.hi, g.var):
            raise SizeInferenceError(f"{who}: generator {g.var!r} bound mentions itself")

    lead: list[int] = []
    scope = dict(env)
    for g in gens[:-1] if gens else []:
        lo = int(eval_expr(g.lo, scope))
        hi = int(eval_expr(g.hi, scope))
        lead.append(hi - lo)
        scope[g.var] = lo
    if not gens:
        return (), None
    last = gens[-1]
    deps = [b for b in binders[:-1] if mentions(last.hi, b) or mentions(last.lo, b)]
    if not deps:
        lo = int(eval_expr(last.lo, scope))
        hi = int(eval_expr(last.hi, scope))
        return tuple(lead) + (hi - lo,), None
    if len(gens) != 2:
        raise SizeInferenceError(
            f"{who}: ragged comprehensions deeper than two levels are not supported"
        )
    outer = gens[0]
    olo = int(eval_expr(outer.lo, env))
    ohi = int(eval_expr(outer.hi, env))
    lengths = []
    for i in range(olo, ohi):
        scope = dict(env)
        scope[outer.var] = i
        lengths.append(int(eval_expr(last.hi, scope)) - int(eval_expr(last.lo, scope)))
    return (ohi - olo,), np.asarray(lengths, dtype=np.int64)


def _infer_layout(
    info: ModelInfo, env: dict, wanted: frozenset[str]
) -> dict[str, BufferShape]:
    """Shapes for the requested stochastic variables, in declaration
    order.  ``env`` must contain the hyper-parameters; every stochastic
    variable encountered is added to the scope as a zero buffer so later
    declarations can evaluate shape-relevant expressions against it.
    """
    out: dict[str, BufferShape] = {}
    scope = dict(env)
    for decl in info.model.decls:
        if not decl.is_stochastic:
            continue
        vinfo = info.info(decl.name)
        lead, row_lengths = _resolve_gens(decl.gens, scope, decl.name)
        dist = lookup(vinfo.dist_name)
        inner = dict(scope)
        for g in decl.gens:
            inner[g.var] = int(eval_expr(g.lo, inner))
        args = [eval_expr(a, inner) for a in decl.dist.args]
        event = tuple(int(s) for s in dist.event_shape(*args))
        dtype = "i8" if vinfo.is_discrete else "f8"
        shape = BufferShape(decl.name, lead, row_lengths, event, dtype)
        if decl.name in wanted:
            out[decl.name] = shape
        scope.setdefault(decl.name, _alloc_buffer(shape))
    return out


def infer_state_layout(info: ModelInfo, env: dict) -> dict[str, BufferShape]:
    """Shapes for every model parameter, in declaration order."""
    return _infer_layout(info, env, frozenset(info.param_names()))


def infer_data_layout(info: ModelInfo, env: dict) -> dict[str, BufferShape]:
    """Shapes for every observed variable (posterior-predictive output)."""
    return _infer_layout(info, env, frozenset(info.data_names()))


def _alloc_buffer(shape: BufferShape):
    if shape.is_ragged:
        return RaggedArray.full(
            shape.row_lengths, 0, dtype=np.dtype(shape.dtype), event_shape=shape.event
        )
    full = shape.lead + shape.event
    if not full:
        # Scalars live in the state dict directly, not as arrays.
        return np.dtype(shape.dtype).type(0)
    return np.zeros(full, dtype=np.dtype(shape.dtype))


def allocate_state(layout: dict[str, BufferShape]) -> dict:
    return {name: _alloc_buffer(shape) for name, shape in layout.items()}


def resolve_workspace(spec: WorkspaceSpec, env: dict) -> BufferShape:
    if spec.like is not None:
        if spec.like not in env:
            raise SizeInferenceError(
                f"{spec.name}: no buffer named {spec.like!r} to mirror"
            )
        v = env[spec.like]
        if isinstance(v, RaggedArray):
            return BufferShape(
                spec.name,
                (v.n_rows,),
                np.asarray(v.row_lengths(), dtype=np.int64),
                tuple(int(s) for s in v.flat.shape[1:]),
                spec.dtype,
            )
        shape = tuple(int(s) for s in np.shape(v))
        return BufferShape(spec.name, shape, None, (), spec.dtype)
    lead, row_lengths = _resolve_gens(spec.gens, env, spec.name)
    event = tuple(int(eval_expr(t, env)) for t in spec.trailing)
    return BufferShape(spec.name, lead, row_lengths, event, spec.dtype)


def allocate_workspaces(plan: AllocationPlan) -> dict:
    """Allocate every workspace buffer described by the plan."""
    out = {}
    for name, shape in plan.workspaces.items():
        buf = _alloc_buffer(shape)
        if not (shape.lead or shape.event or shape.is_ragged):
            buf = np.zeros((), dtype=np.dtype(shape.dtype))
        out[name] = buf
    return out


def allocate(specs, env: dict) -> dict:
    """Allocate every workspace spec against the runtime environment."""
    out = {}
    for spec in specs:
        shape = resolve_workspace(spec, env)
        buf = _alloc_buffer(shape)
        if not (shape.lead or shape.event or shape.is_ragged):
            # Degenerate scalar workspace: keep as 0-d array for in-place fills.
            buf = np.zeros((), dtype=np.dtype(shape.dtype))
        out[spec.name] = buf
    return out


# ----------------------------------------------------------------------
# Flat-state pack plans (gradient-based block updates).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PackSlot:
    """One block variable's slice of the packed 1-D state vector.

    A ragged variable is one slot over its ``RaggedArray.flat`` buffer:
    ``shape`` is the flat buffer's shape and ``offsets`` keeps the row
    starts (``None`` for dense variables).
    """

    name: str
    offset: int
    size: int
    shape: tuple[int, ...]
    offsets: tuple[int, ...] | None = None

    @property
    def slice(self) -> slice:
        return slice(self.offset, self.offset + self.size)


@dataclass(frozen=True)
class PackPlan:
    """Compile-time layout mapping block variables onto one contiguous
    1-D vector.

    Built from the allocation plan's resolved shapes, so the layout is
    fixed for the sampler's lifetime; gradient-based updates integrate
    on the packed vector with whole-vector ops and unpack only at
    compiled-function boundaries (via zero-copy views).
    """

    slots: tuple[PackSlot, ...]
    total: int

    @classmethod
    def of(cls, entries) -> "PackPlan":
        """Lay out ``(name, shape, offsets)`` entries contiguously, in order."""
        slots: list[PackSlot] = []
        offset = 0
        for name, shape, offsets in entries:
            size = int(np.prod(shape, dtype=np.int64))
            slots.append(PackSlot(name, offset, size, tuple(shape), offsets))
            offset += size
        return cls(tuple(slots), offset)

    def pack(self, values: dict, out: np.ndarray | None = None) -> np.ndarray:
        """Concatenate per-variable values into the flat vector."""
        flat = np.empty(self.total, dtype=np.float64) if out is None else out
        for s in self.slots:
            v = values[s.name].flat if s.offsets is not None else values[s.name]
            flat[s.slice] = np.asarray(v, dtype=np.float64).reshape(-1)
        return flat

    def unpack_views(self, flat: np.ndarray) -> dict:
        """Per-variable *views* into ``flat`` (no copies): arrays in their
        original shapes, :class:`RaggedArray` for ragged slots."""
        views = {}
        for s in self.slots:
            v = flat[s.slice].reshape(s.shape)
            views[s.name] = v if s.offsets is None else RaggedArray(v, s.offsets)
        return views


def build_pack_plan(plan: AllocationPlan, names) -> PackPlan:
    """The flat layout for the given state variables, in order."""
    entries = []
    for name in names:
        b = plan.state[name]
        if b.is_ragged:
            offsets = (0, *np.cumsum(b.row_lengths).tolist())
            entries.append((name, (offsets[-1],) + b.event, offsets))
        else:
            entries.append((name, b.lead + b.event, None))
    return PackPlan.of(entries)


def build_plan(
    info: ModelInfo, env: dict, specs: tuple[WorkspaceSpec, ...]
) -> AllocationPlan:
    plan = AllocationPlan()
    plan.state = infer_state_layout(info, env)
    # Workspace bounds may reference model parameters (e.g. the support
    # of a Categorical whose probability vector is itself inferred), so
    # resolve them against the state layout's zero buffers as well.
    scope = dict(env)
    for name, shape in plan.state.items():
        scope.setdefault(name, _alloc_buffer(shape))
    seen: set[str] = set()
    for spec in specs:
        if spec.name in seen:
            continue
        seen.add(spec.name)
        plan.workspaces[spec.name] = resolve_workspace(spec, scope)
    return plan
