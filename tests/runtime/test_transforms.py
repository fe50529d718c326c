"""Transform bijection and Jacobian correctness."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.runtime.transforms import (
    IdentityTransform,
    LogitTransform,
    LogTransform,
    transform_for_support,
)

finite_reals = hst.floats(-20.0, 20.0, allow_nan=False)


@pytest.mark.parametrize("t", [IdentityTransform(), LogTransform(), LogitTransform()])
@given(z=finite_reals)
@settings(max_examples=50, deadline=None)
def test_scalar_roundtrip(t, z):
    x = t.to_constrained(z)
    z2 = t.to_unconstrained(x)
    assert np.isclose(z2, z, atol=1e-6)


@pytest.mark.parametrize("t", [LogTransform(), LogitTransform()])
@given(z=hst.floats(-10.0, 10.0))
@settings(max_examples=50, deadline=None)
def test_log_jacobian_matches_numeric(t, z):
    eps = 1e-6
    numeric = np.log(
        abs(t.to_constrained(z + eps) - t.to_constrained(z - eps)) / (2 * eps)
    )
    assert np.isclose(t.log_jacobian(z), numeric, atol=1e-4)


@pytest.mark.parametrize("t", [LogTransform(), LogitTransform()])
@given(z=hst.floats(-8.0, 8.0))
@settings(max_examples=50, deadline=None)
def test_grad_log_jacobian_matches_numeric(t, z):
    eps = 1e-6
    numeric = (t.log_jacobian(z + eps) - t.log_jacobian(z - eps)) / (2 * eps)
    assert np.isclose(t.grad_log_jacobian(z), numeric, atol=1e-5)


def test_log_transform_positivity():
    t = LogTransform()
    zs = np.linspace(-5, 5, 11)
    assert np.all(t.to_constrained(zs) > 0)


def test_logit_transform_range():
    t = LogitTransform()
    zs = np.linspace(-10, 10, 21)
    x = t.to_constrained(zs)
    assert np.all((x > 0) & (x < 1))


@pytest.mark.parametrize(
    "support,cls",
    [
        ("real", IdentityTransform),
        ("pos_real", LogTransform),
        ("unit_interval", LogitTransform),
    ],
)
def test_transform_for_support(support, cls):
    assert isinstance(transform_for_support(support), cls)


def test_transform_for_unknown_support():
    with pytest.raises(ValueError):
        transform_for_support("pos_def_mat")
