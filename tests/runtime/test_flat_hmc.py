"""Flat-state HMC: pack plans, momentum draws, density and integrator.

The packed vector is the only HMC/NUTS state, so every check here is
against an independent reference: bitwise pack/unpack round trips, one
plain NumPy draw per slot, the analytic density plus its log-Jacobian,
central finite differences, and the closed-form leapfrog map of a
diagonal Gaussian.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lowmm.size_inference import (
    AllocationPlan,
    BufferShape,
    PackPlan,
    PackSlot,
    build_pack_plan,
    build_plan,
)
from repro.runtime.mcmc.accept import mh_accept
from repro.runtime.mcmc.hmc import FlatLogDensity, flat_gaussian, hmc_step_flat
from repro.runtime.rng import Rng
from repro.runtime.transforms import (
    IdentityTransform,
    LogTransform,
    LogitTransform,
)
from repro.runtime.vectors import RaggedArray

from tests.lowpp.conftest import make_setup


# ----------------------------------------------------------------------
# Pack plans.
# ----------------------------------------------------------------------


def _hlr_plan():
    fd, info = make_setup("hlr")
    rng = np.random.default_rng(1)
    env = {"N": 5, "D": 3, "lam": 1.0, "x": rng.normal(size=(5, 3)),
           "y": rng.integers(0, 2, size=5)}
    return build_plan(info, env, ())


def test_build_pack_plan_hlr_layout():
    plan = _hlr_plan()
    pp = build_pack_plan(plan, ("sigma2", "b", "theta"))
    assert [s.name for s in pp.slots] == ["sigma2", "b", "theta"]
    assert [s.shape for s in pp.slots] == [(), (), (3,)]
    assert [s.size for s in pp.slots] == [1, 1, 3]
    assert pp.total == 5
    # Slots tile the vector contiguously, in order.
    off = 0
    for s in pp.slots:
        assert s.offset == off
        off += s.size


def test_pack_unpack_bitwise_round_trip():
    plan = _hlr_plan()
    pp = build_pack_plan(plan, ("sigma2", "b", "theta"))
    rng = np.random.default_rng(7)
    values = {
        "sigma2": 1.7,
        "b": float(rng.normal()),
        "theta": rng.normal(size=3),
    }
    flat = pp.pack(values)
    views = pp.unpack_views(flat)
    for k, v in values.items():
        np.testing.assert_array_equal(np.asarray(views[k]), np.asarray(v))
        assert views[k].shape == np.shape(v)
    # Views alias the flat buffer: writes through them land in ``flat``.
    views["theta"][...] = 42.0
    np.testing.assert_array_equal(flat[pp.slots[-1].slice], 42.0)


def test_build_pack_plan_ragged_round_trip():
    lengths = np.array([5, 2, 6])
    plan = AllocationPlan(state={
        "mu": BufferShape("mu", (2,), None, (), "f8"),
        "t": BufferShape("t", (3,), lengths, (), "f8"),
        "w": BufferShape("w", (3,), lengths, (2,), "f8"),
    })
    pp = build_pack_plan(plan, ("mu", "t", "w"))
    # A ragged variable is one slot over its flat buffer; the row
    # offsets ride on the slot.
    assert [s.shape for s in pp.slots] == [(2,), (13,), (13, 2)]
    assert [s.offset for s in pp.slots] == [0, 2, 15]
    assert pp.total == 41
    assert pp.slots[0].offsets is None
    for s in pp.slots[1:]:
        np.testing.assert_array_equal(s.offsets, [0, 5, 7, 13])

    rng = np.random.default_rng(3)
    values = {
        "mu": rng.normal(size=2),
        "t": RaggedArray.from_rows([rng.normal(size=k) for k in lengths]),
        "w": RaggedArray.from_rows([rng.normal(size=(k, 2)) for k in lengths]),
    }
    flat = pp.pack(values)
    views = pp.unpack_views(flat)
    for name in ("t", "w"):
        v = views[name]
        assert isinstance(v, RaggedArray)
        np.testing.assert_array_equal(v.offsets, values[name].offsets)
        np.testing.assert_array_equal(v.flat, values[name].flat)
        # Zero-copy: the view's flat buffer is the packed vector.
        assert np.shares_memory(v.flat, flat)
    np.testing.assert_array_equal(views["mu"], values["mu"])
    np.testing.assert_array_equal(pp.pack(views), flat)
    # Writes through a row of the view land in the packed vector.
    views["t"].row(1)[...] = 42.0
    np.testing.assert_array_equal(flat[2 + 5 : 2 + 7], 42.0)


# ----------------------------------------------------------------------
# Momentum draws: one standard-normal call per slot, in layout order.
# ----------------------------------------------------------------------


def _toy_layout():
    slots = (
        PackSlot("a", 0, 1, ()),
        PackSlot("b", 1, 3, (3,)),
        PackSlot("c", 4, 2, (2,)),
    )
    return PackPlan(slots=slots, total=6)


def test_flat_gaussian_draws_once_per_slot():
    layout = _toy_layout()
    out = np.empty(6)
    flat_gaussian(Rng(11).generator, layout, out)
    g = Rng(11).generator
    expected = [g.standard_normal(()), g.standard_normal((3,)),
                g.standard_normal((2,))]
    np.testing.assert_array_equal(
        out, np.concatenate([np.ravel(e) for e in expected])
    )


# ----------------------------------------------------------------------
# The density on an analytic target with all three transform kinds
# (identity / log / logit).
# ----------------------------------------------------------------------

_TRANSFORMS = {
    "a": LogTransform(),
    "b": IdentityTransform(),
    "c": LogitTransform(),
}


def _ll(x):
    # A smooth, fully analytic density on the constrained space:
    # Gamma(2,1)-ish in a > 0, Gaussian in b, Beta(2,2)-ish in c in (0,1).
    a = float(x["a"])
    b = np.asarray(x["b"])
    c = np.asarray(x["c"])
    return (
        np.log(a) - a
        - 0.5 * float(np.sum(b * b))
        + float(np.sum(np.log(c) + np.log1p(-c)))
    )


def _grad(x):
    a = float(x["a"])
    b = np.asarray(x["b"])
    c = np.asarray(x["c"])
    return {
        "a": 1.0 / a - 1.0,
        "b": -b,
        "c": 1.0 / c - 1.0 / (1.0 - c),
    }


def _make_flat():
    layout = _toy_layout()
    holder = {}

    def ll():
        return _ll(holder["views"])

    def grad():
        return _grad(holder["views"])

    fld = FlatLogDensity(_TRANSFORMS, layout, ll_fn=ll, grad_fn=grad)
    holder["views"] = fld.x_views
    return fld, layout


def _start_state():
    return {"a": 0.9, "b": np.array([0.3, -0.2, 1.1]), "c": np.array([0.4, 0.7])}


def _analytic(z):
    """Log density and gradient on the unconstrained space, by hand:
    ``a = exp(za)`` (log-Jacobian ``za``), ``b`` unconstrained,
    ``c = sigmoid(zc)`` (log-Jacobian ``log c + log(1 - c)``)."""
    za, zb, zc = z[0], z[1:4], z[4:6]
    c = 1.0 / (1.0 + np.exp(-zc))
    lp = (
        2.0 * za - np.exp(za)
        - 0.5 * np.sum(zb * zb)
        + 2.0 * np.sum(np.log(c) + np.log1p(-c))
    )
    grad = np.concatenate([[2.0 - np.exp(za)], -zb, 2.0 - 4.0 * c])
    return lp, grad


def test_flat_value_and_grad_match_analytic():
    fld, layout = _make_flat()
    z = fld.unconstrain_into(_start_state(), np.empty(layout.total))
    np.testing.assert_allclose(
        z, [np.log(0.9), 0.3, -0.2, 1.1, np.log(0.4 / 0.6), np.log(0.7 / 0.3)],
        rtol=1e-12,
    )
    lp, grad = _analytic(z)
    assert fld.value(z) == pytest.approx(lp, rel=1e-12)
    g = fld.grad(z).copy()
    np.testing.assert_allclose(g, grad, rtol=1e-12)
    # Central finite differences of the density itself.
    eps = 1e-6
    fd = [
        (fld.value(z + eps * e) - fld.value(z - eps * e)) / (2 * eps)
        for e in np.eye(layout.total)
    ]
    np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


def test_value_and_grad_fused_matches_pair():
    # The fused form must return exactly what the separate value/grad
    # pair computes, whichever of value, grad or both is asked first,
    # and with one fused call per point.
    fld_pair, layout = _make_flat()
    holder = {}
    calls = {"n": 0}

    def ll_grad():
        calls["n"] += 1
        return _ll(holder["views"]), _grad(holder["views"])

    fld_fused = FlatLogDensity(_TRANSFORMS, layout, ll_grad_fn=ll_grad)
    holder["views"] = fld_fused.x_views
    z = fld_pair.unconstrain_into(_start_state(), np.empty(layout.total))
    lp_p, g_p = fld_pair.value_and_grad(z.copy())
    lp_f, g_f = fld_fused.value_and_grad(z.copy())
    assert lp_f == lp_p
    np.testing.assert_array_equal(g_f, g_p)
    assert calls["n"] == 1
    z2 = z + 0.25
    fld_fused.invalidate()
    assert fld_fused.value(z) == lp_p
    np.testing.assert_array_equal(fld_fused.grad(z2), fld_pair.grad(z2))
    assert fld_fused.value(z2) == fld_pair.value(z2)
    assert calls["n"] == 3


# ----------------------------------------------------------------------
# The integrator against the closed-form leapfrog map of a Gaussian.
# ----------------------------------------------------------------------

_MU = np.array([0.5, -1.0, 2.0, 0.0, 1.5, -0.5])
_S2 = np.array([1.0, 0.5, 2.0, 1.5, 0.8, 3.0])


def _gaussian_flat():
    """N(_MU, diag(_S2)) over the toy layout, identity transforms."""
    layout = _toy_layout()

    def x():
        return layout.pack(fld.x_views)

    fld = FlatLogDensity(
        {k: IdentityTransform() for k in "abc"},
        layout,
        ll_fn=lambda: float(-0.5 * np.sum((x() - _MU) ** 2 / _S2)),
        grad_fn=lambda: layout.unpack_views(-(x() - _MU) / _S2),
    )
    return fld


def _leapfrog_closed_form(x, p, h, n):
    """``n`` leapfrog steps on N(_MU, diag(_S2)).  Per coordinate, with
    precision ``w``, one step is the linear map of ``(x - mu, p)`` by
    ``[[1 - h^2 w / 2, h], [-h w (1 - h^2 w / 4), 1 - h^2 w / 2]]``."""
    w = 1.0 / _S2
    a = 1.0 - 0.5 * h * h * w
    c = -h * w * (1.0 - 0.25 * h * h * w)
    d = x - _MU
    for _ in range(n):
        d, p = a * d + h * p, c * d + a * p
    return _MU + d, p


def _energy(x, p):
    return float(0.5 * np.sum((x - _MU) ** 2 / _S2) + 0.5 * p @ p)


def test_hmc_step_flat_matches_closed_form_leapfrog():
    fld = _gaussian_flat()
    z = np.array([0.9, 0.3, -0.2, 1.1, 0.4, 0.7])
    step, n = 0.9, 8
    outcomes = set()
    for seed in range(12):
        ref = Rng(seed).generator
        p0 = np.concatenate([
            np.ravel(ref.standard_normal(())), ref.standard_normal((3,)),
            ref.standard_normal((2,)),
        ])
        x1, p1 = _leapfrog_closed_form(z, p0, step, n)
        log_alpha = _energy(z, p0) - _energy(x1, p1)
        accept = mh_accept(ref, log_alpha)

        info = {}
        work = tuple(np.empty(6) for _ in range(3))
        got, accepted = hmc_step_flat(
            Rng(seed).generator, fld, z, step, n, info=info, work=work
        )
        np.testing.assert_allclose(work[0], x1, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(work[1], p1, rtol=1e-10, atol=1e-12)
        assert info["log_alpha"] == pytest.approx(log_alpha, rel=1e-9, abs=1e-12)
        assert info["n_leapfrog"] == n
        assert accepted == accept
        np.testing.assert_array_equal(got, work[0] if accept else z)
        outcomes.add(accepted)
    # The seeds exercise both the accept and the reject branch.
    assert outcomes == {True, False}


def test_hmc_step_flat_never_mutates_input():
    fld, layout = _make_flat()
    z = fld.unconstrain_into(_start_state(), np.empty(layout.total))
    z_before = z.copy()
    z1, accepted = hmc_step_flat(Rng(3).generator, fld, z, 0.05, 8)
    np.testing.assert_array_equal(z, z_before)
    if accepted:
        assert z1 is not z


def test_flat_point_cache_reuses_transforms():
    # value then grad at the same z runs the constrain pass once.
    calls = {"n": 0}

    class CountingLog(LogTransform):
        def to_constrained(self, z):
            calls["n"] += 1
            return super().to_constrained(z)

    transforms = dict(_TRANSFORMS)
    transforms["a"] = CountingLog()
    layout = _toy_layout()
    holder = {}
    fld = FlatLogDensity(
        transforms,
        layout,
        ll_fn=lambda: _ll(holder["views"]),
        grad_fn=lambda: _grad(holder["views"]),
    )
    holder["views"] = fld.x_views
    z = fld.unconstrain_into(_start_state(), np.empty(layout.total))
    fld.value(z)
    fld.grad(z)
    fld.value(z)
    assert calls["n"] == 1
    fld.invalidate()
    fld.value(z)
    assert calls["n"] == 2
