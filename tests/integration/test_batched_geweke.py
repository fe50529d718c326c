"""Geweke joint-distribution tests of the batched element drivers.

The batched MH/Slice/ESlice paths replace the per-element loop with
whole-vector sweeps; a bug in the lane masking, the batched acceptance,
or the scatter-accumulated conditional shows up here as |z| in the
tens even when posterior-moment spot checks look fine.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiler import compile_model
from repro.eval.geweke import geweke_test

from tests.backend.test_cpu_backend import GROUPED_MEANS
from tests.integration.test_geweke import GROUPED_TEST_FUNCTIONS

Z_LIMIT = 4.5

ELEMENTS = """
(N, v0, v) => {
  param mu[n] ~ Normal(0.0, v0) for n <- 0 until N ;
  data y[n] ~ Normal(mu[n], v) for n <- 0 until N ;
}
"""

HYPERS = {"N": 4, "v0": 2.0, "v": 1.0}
DATA = {"y": np.zeros(4)}

TEST_FUNCTIONS = {
    "mean(mu)": lambda s, d: float(np.mean(s["mu"])),
    "mean(mu^2)": lambda s, d: float(np.mean(s["mu"] ** 2)),
    "mean(y)": lambda s, d: float(np.mean(d["y"])),
    "mean(mu*y)": lambda s, d: float(np.mean(s["mu"] * d["y"])),
}


def _assert_batched(schedule):
    sampler = compile_model(ELEMENTS, HYPERS, DATA, schedule=schedule)
    (upd,) = sampler.updates
    assert upd.is_batched, schedule


def _run(schedule, seed):
    _assert_batched(schedule)
    return geweke_test(
        ELEMENTS,
        HYPERS,
        DATA,
        TEST_FUNCTIONS,
        n_marginal=3000,
        n_successive=3000,
        schedule=schedule,
        seed=seed,
    )


def test_geweke_batched_mh():
    res = _run("MH mu", seed=10)
    assert res.max_abs_z() < Z_LIMIT, f"\n{res}"


def test_geweke_batched_slice():
    res = _run("Slice mu", seed=11)
    assert res.max_abs_z() < Z_LIMIT, f"\n{res}"


def test_geweke_batched_eslice():
    res = _run("ESlice mu", seed=12)
    assert res.max_abs_z() < Z_LIMIT, f"\n{res}"


def test_geweke_batched_mh_grouped_means():
    # Each lane's conditional scores a group of J = 9 observations.
    hypers, data = {"N": 3, "J": 9, "v0": 2.0, "v": 1.0}, {"y": np.zeros((3, 9))}
    sampler = compile_model(GROUPED_MEANS, hypers, data, schedule="MH mu")
    (upd,) = sampler.updates
    assert upd.is_batched
    res = geweke_test(
        GROUPED_MEANS, hypers, data, GROUPED_TEST_FUNCTIONS,
        n_marginal=3000, n_successive=3000, schedule="MH mu", seed=13,
    )
    assert res.max_abs_z() < Z_LIMIT, f"\n{res}"
