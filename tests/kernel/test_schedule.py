"""Kernel IL construction and schedule-string parsing."""

from __future__ import annotations

import pytest

from repro.core.kernel.ir import (
    KBase,
    KComp,
    KernelUnit,
    UpdateMethod,
    compose,
    flatten,
)
from repro.core.kernel.schedule import parse_schedule
from repro.errors import ParseError


def test_parse_paper_example():
    # The Figure 2 schedule.
    k = parse_schedule("ESlice mu (*) Gibbs z")
    updates = flatten(k)
    assert len(updates) == 2
    assert updates[0].method is UpdateMethod.ESLICE
    assert updates[0].unit == KernelUnit.single("mu")
    assert updates[1].method is UpdateMethod.GIBBS
    assert updates[1].unit == KernelUnit.single("z")


def test_parse_block_unit():
    k = parse_schedule("HMC (theta, b, sigma2)")
    (upd,) = flatten(k)
    assert upd.unit == KernelUnit.block(["theta", "b", "sigma2"])
    assert not upd.unit.is_single


def test_parse_options():
    k = parse_schedule("HMC[steps=20, step_size=0.05] theta")
    (upd,) = flatten(k)
    assert upd.opt("steps") == 20
    assert upd.opt("step_size") == 0.05
    assert upd.opt("missing", "dflt") == "dflt"


def test_parse_negative_option():
    k = parse_schedule("MH[scale=-0.5] theta")
    (upd,) = flatten(k)
    assert upd.opt("scale") == -0.5


def test_parse_three_way_composition():
    k = parse_schedule("Gibbs pi (*) Gibbs mu (*) Gibbs z")
    assert [u.unit.names[0] for u in flatten(k)] == ["pi", "mu", "z"]


def test_composition_preserves_order():
    a = KBase(UpdateMethod.GIBBS, KernelUnit.single("a"))
    b = KBase(UpdateMethod.HMC, KernelUnit.single("b"))
    assert flatten(compose([a, b])) == (a, b)
    assert flatten(compose([b, a])) == (b, a)
    assert flatten(a @ b) == (a, b)


def test_kernel_str():
    k = parse_schedule("ESlice mu (*) Gibbs z")
    assert str(k) == "ESlice mu (*) Gibbs z"


@pytest.mark.parametrize(
    "bad",
    [
        "Gibs z",  # unknown method
        "Gibbs",  # missing unit
        "Gibbs z (*)",  # dangling compose
        "Gibbs z Gibbs y",  # missing compose operator
        "HMC (theta",  # unclosed block
        "HMC[steps] theta",  # option without value
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_schedule(bad)


def test_kernel_unit_requires_names():
    with pytest.raises(ValueError):
        KernelUnit(())


def test_flatten_rejects_non_kernel():
    with pytest.raises(TypeError):
        flatten("not a kernel")


def test_kcomp_structure():
    k = parse_schedule("Gibbs a (*) Gibbs b (*) Gibbs c")
    # compose is a left fold: ((a (*) b) (*) c).
    assert isinstance(k, KComp)
    assert isinstance(k.left, KComp)
    assert isinstance(k.right, KBase)


def test_method_capability_flags():
    assert UpdateMethod.HMC.needs_gradient
    assert UpdateMethod.NUTS.needs_gradient
    assert not UpdateMethod.GIBBS.needs_gradient
    assert not UpdateMethod.SLICE.needs_gradient
