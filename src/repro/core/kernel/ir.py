"""Kernel IL terms (paper Figure 5).

::

    sched a ::= lambda(x...). k a
    k a     ::= (kappa a) ku a | k a (*) k a
    ku      ::= Single(x) | Block(x...)
    kappa a ::= Prop (Maybe a) | FC | Grad (Maybe a) | Slice

The IL is parametric in ``a`` -- the representation of the proportional
conditional.  Here ``payload`` plays the role of ``a``: right after
kernel selection it holds Density-IL conditionals; after the middle-end
runs it holds compiled update code.

We split the paper's ``Slice`` into its two implemented variants
(reflective and elliptical) and ``Grad`` into HMC and the NUTS
prototype, since those are the concrete updates AugurV2 ships
(Section 4.4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class UpdateMethod(enum.Enum):
    """The base update kinds ``kappa`` and their concrete variants."""

    MH = "MH"  # Prop: user or random-walk proposal
    GIBBS = "Gibbs"  # FC: closed-form conditional (conjugate or enumerated)
    HMC = "HMC"  # Grad
    NUTS = "NUTS"  # Grad (prototype, paper footnote 5)
    SLICE = "Slice"  # reflective slice
    ESLICE = "ESlice"  # elliptical slice

    @property
    def needs_gradient(self) -> bool:
        return self in (UpdateMethod.HMC, UpdateMethod.NUTS)


@dataclass(frozen=True)
class KernelUnit:
    """``Single(x)`` or ``Block(x...)`` -- the variables an update touches."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("a kernel unit needs at least one variable")

    @classmethod
    def single(cls, name: str) -> "KernelUnit":
        return cls((name,))

    @classmethod
    def block(cls, names) -> "KernelUnit":
        return cls(tuple(names))

    @property
    def is_single(self) -> bool:
        return len(self.names) == 1

    def __str__(self) -> str:
        if self.is_single:
            return self.names[0]
        return "(" + ", ".join(self.names) + ")"


class Kernel:
    """Base class for kernel terms."""

    def __matmul__(self, other: "Kernel") -> "KComp":
        """``k1 @ k2`` builds the sequencing ``k1 (*) k2``."""
        return KComp(self, other)


@dataclass(frozen=True)
class KBase(Kernel):
    """One base MCMC update ``(kappa a) ku a``."""

    method: UpdateMethod
    unit: KernelUnit
    payload: Any = None
    options: tuple[tuple[str, Any], ...] = field(default=())

    def opt(self, name: str, default=None):
        return dict(self.options).get(name, default)

    def with_payload(self, payload: Any) -> "KBase":
        return KBase(self.method, self.unit, payload, self.options)

    @property
    def provenance(self):
        """Source pointer: the model statements this update resamples."""
        from repro.core.provenance import Provenance

        return Provenance(
            stmt=self.unit.names[0], stmts=self.unit.names, stage="kernel"
        )

    def __str__(self) -> str:
        return f"{self.method.value} {self.unit}"


@dataclass(frozen=True)
class KComp(Kernel):
    """Sequencing ``k1 (*) k2``.  Not commutative (Section 4.1)."""

    left: Kernel
    right: Kernel

    def __str__(self) -> str:
        return f"{self.left} (*) {self.right}"


@dataclass(frozen=True)
class KSched:
    """Top level: ``lambda(binders...). k`` (Figure 5 ``sched``)."""

    binders: tuple[str, ...]
    kernel: Kernel

    def __str__(self) -> str:
        return f"lambda({', '.join(self.binders)}). {self.kernel}"


def flatten(kernel: Kernel) -> tuple[KBase, ...]:
    """The base updates of a kernel in execution order."""
    match kernel:
        case KBase():
            return (kernel,)
        case KComp(left, right):
            return flatten(left) + flatten(right)
        case _:
            raise TypeError(f"not a kernel term: {kernel!r}")


def compose(updates) -> Kernel:
    """Right-fold a sequence of updates into a composition."""
    updates = list(updates)
    if not updates:
        raise ValueError("cannot compose zero updates")
    k = updates[0]
    for u in updates[1:]:
        k = KComp(k, u)
    return k
