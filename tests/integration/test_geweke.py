"""Geweke joint-distribution tests of compiled samplers.

These catch acceptance-ratio, statistics, and transform bugs that
posterior-moment spot checks can miss.  |z| thresholds are generous
(the test functions are correlated) but a genuinely broken update
produces |z| in the tens.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import models
from repro.eval.geweke import geweke_test

from tests.backend.test_cpu_backend import GROUPED_MEANS

Z_LIMIT = 4.5

#: Test functions for the grouped-means model: a group's mean, its
#: square, the data, and the mean-data coupling within a group.
GROUPED_TEST_FUNCTIONS = {
    "mean(mu)": lambda s, d: float(np.mean(s["mu"])),
    "mean(mu^2)": lambda s, d: float(np.mean(s["mu"] ** 2)),
    "mean(y)": lambda s, d: float(np.mean(d["y"])),
    "mean(mu*ybar)": lambda s, d: float(np.mean(s["mu"] * d["y"].mean(axis=1))),
}


def test_geweke_normal_normal_gibbs():
    res = geweke_test(
        models.NORMAL_NORMAL,
        {"N": 5, "mu_0": 0.5, "v_0": 2.0, "v": 1.0},
        {"y": np.zeros(5)},
        {
            "mu": lambda s, d: s["mu"],
            "mu^2": lambda s, d: s["mu"] ** 2,
            "mean(y)": lambda s, d: d["y"].mean(),
            "mu*mean(y)": lambda s, d: s["mu"] * d["y"].mean(),
        },
        n_marginal=3000,
        n_successive=3000,
        seed=0,
    )
    assert res.max_abs_z() < Z_LIMIT, f"\n{res}"


def test_geweke_beta_bernoulli_gibbs():
    res = geweke_test(
        models.BETA_BERNOULLI,
        {"N": 6, "a": 2.0, "b": 3.0},
        {"y": np.zeros(6, dtype=np.int64)},
        {
            "p": lambda s, d: s["p"],
            "p^2": lambda s, d: s["p"] ** 2,
            "sum(y)": lambda s, d: float(np.sum(d["y"])),
        },
        n_marginal=3000,
        n_successive=3000,
        seed=1,
    )
    assert res.max_abs_z() < Z_LIMIT, f"\n{res}"


def test_geweke_gmm_composed_kernel():
    # The full composed kernel: conjugate MvNormal Gibbs + enumeration
    # Gibbs, with mixture indexing, on a tiny GMM.
    res = geweke_test(
        models.GMM,
        {
            "K": 2,
            "N": 4,
            "mu_0": np.zeros(2),
            "Sigma_0": np.eye(2) * 2.0,
            "pis": np.array([0.6, 0.4]),
            "Sigma": np.eye(2) * 0.5,
        },
        {"x": np.zeros((4, 2))},
        {
            "mu[0,0]": lambda s, d: s["mu"][0, 0],
            "mean|mu|^2": lambda s, d: float(np.mean(s["mu"] ** 2)),
            "mean(z)": lambda s, d: float(np.mean(s["z"])),
            "mean(x)": lambda s, d: float(np.mean(d["x"])),
            "cov(mu,x)": lambda s, d: float(np.mean(s["mu"]) * np.mean(d["x"])),
        },
        n_marginal=2500,
        n_successive=2500,
        seed=2,
    )
    assert res.max_abs_z() < Z_LIMIT, f"\n{res}"


@pytest.mark.parametrize(
    "schedule",
    ["HMC[steps=10, step_size=0.2] v", "NUTS[step_size=0.2] v"],
    ids=["hmc", "nuts"],
)
def test_geweke_hmc_exp_normal(schedule):
    # Gradient-based updates with a log transform: the acceptance ratio
    # (or NUTS tree sampling) and the Jacobian terms must all be right
    # for this to pass.
    res = geweke_test(
        models.EXP_NORMAL,
        {"N": 4, "lam": 1.5},
        {"y": np.zeros(4)},
        {
            "v": lambda s, d: s["v"],
            "log v": lambda s, d: np.log(s["v"]),
            "mean(y^2)": lambda s, d: float(np.mean(d["y"] ** 2)),
        },
        n_marginal=2500,
        n_successive=4000,
        schedule=schedule,
        seed=3,
    )
    assert res.max_abs_z() < Z_LIMIT, f"\n{res}"


def test_geweke_detects_a_broken_kernel():
    # Sanity check on the test itself: an MH update with a deliberately
    # wrong proposal ratio must be flagged.  The biased kernel needs a
    # registered proposal, so run the successive-conditional loop by hand.
    from repro.core.compiler import compile_model
    from repro.runtime.rng import Rng

    def biased_proposal(value, rng):
        # Drifts upward but claims symmetry: violates detailed balance.
        return value + abs(rng.normal(0.0, 0.8)), 0.0

    sampler = compile_model(
        models.NORMAL_NORMAL,
        {"N": 4, "mu_0": 0.0, "v_0": 1.0, "v": 1.0},
        {"y": np.zeros(4)},
        schedule="MH[proposal=user] mu",
        proposals={"mu": biased_proposal},
    )
    rng = Rng(5)
    state = sampler.init_state(rng)
    data = sampler.posterior_predictive(state, rng)
    mus = []
    for _ in range(1500):
        sampler.base_env["y"] = data["y"]
        sampler.step(state, rng)
        data = sampler.posterior_predictive(state, rng)
        mus.append(state["mu"])
    # Under the correct joint, E[mu] = 0; the biased kernel drifts.
    drift = abs(np.mean(mus)) / (np.std(mus) / np.sqrt(100))
    assert drift > 4.5


def test_geweke_grouped_means_gibbs():
    # Conjugate Gibbs over groups whose statistics come from a
    # rectangular (group, observation) nest summed row by row; J = 9
    # rows are long enough for NumPy's pairwise row sums.
    res = geweke_test(
        GROUPED_MEANS,
        {"N": 3, "J": 9, "v0": 2.0, "v": 1.0},
        {"y": np.zeros((3, 9))},
        GROUPED_TEST_FUNCTIONS,
        n_marginal=3000,
        n_successive=3000,
        schedule="Gibbs mu",
        seed=4,
    )
    assert res.max_abs_z() < Z_LIMIT, f"\n{res}"
