"""Evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from repro.eval.metrics import (
    bernoulli_log_predictive,
    effective_sample_size,
    ess_bulk,
    ess_tail,
    mixture_log_predictive,
    potential_scale_reduction,
    rank_normalize,
    split_chains,
    split_potential_scale_reduction,
)


def test_mixture_log_predictive_single_component_matches_mvn():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(20, 2))
    mu = np.array([[0.5, -0.5]])
    cov = np.eye(2) * 2.0
    got = mixture_log_predictive(pts, mu, cov)
    expected = multivariate_normal(mu[0], cov).logpdf(pts).sum()
    assert got == pytest.approx(expected, rel=1e-10)


def test_mixture_log_predictive_weights():
    pts = np.array([[10.0, 10.0]])
    mu = np.array([[10.0, 10.0], [-10.0, -10.0]])
    cov = np.eye(2)
    lp_uniform = mixture_log_predictive(pts, mu, cov)
    lp_right = mixture_log_predictive(pts, mu, cov, pi=np.array([0.99, 0.01]))
    lp_wrong = mixture_log_predictive(pts, mu, cov, pi=np.array([0.01, 0.99]))
    assert lp_right > lp_uniform > lp_wrong


def test_mixture_log_predictive_per_cluster_covs():
    pts = np.array([[0.0, 0.0]])
    mu = np.zeros((2, 2))
    sigmas = np.stack([np.eye(2), np.eye(2) * 100.0])
    lp = mixture_log_predictive(pts, mu, sigmas)
    tight = multivariate_normal(np.zeros(2), np.eye(2)).logpdf(pts[0])
    wide = multivariate_normal(np.zeros(2), np.eye(2) * 100).logpdf(pts[0])
    expected = np.logaddexp(np.log(0.5) + tight, np.log(0.5) + wide)
    assert lp == pytest.approx(float(expected), rel=1e-10)


def test_bernoulli_log_predictive():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    theta = np.array([100.0, -100.0])
    # Point 0 has logit +100 (y=1 certain), point 1 logit -100 (y=0).
    got = bernoulli_log_predictive(x, np.array([1, 0]), theta, 0.0)
    assert got == pytest.approx(0.0, abs=1e-6)
    bad = bernoulli_log_predictive(x, np.array([0, 1]), theta, 0.0)
    assert bad < -50


def test_ess_iid_close_to_n():
    rng = np.random.default_rng(1)
    draws = rng.normal(size=4000)
    ess = effective_sample_size(draws)
    assert ess > 3000


def test_ess_correlated_chain_is_small():
    rng = np.random.default_rng(2)
    x = np.zeros(4000)
    for i in range(1, 4000):
        x[i] = 0.99 * x[i - 1] + rng.normal() * 0.1
    ess = effective_sample_size(x)
    assert ess < 400


def test_ess_degenerate_inputs():
    assert effective_sample_size(np.ones(100)) == 100.0
    assert effective_sample_size(np.array([1.0, 2.0])) == 2.0


def test_rhat_mixed_vs_unmixed():
    rng = np.random.default_rng(3)
    mixed = rng.normal(size=(4, 500))
    assert potential_scale_reduction(mixed) == pytest.approx(1.0, abs=0.05)
    unmixed = mixed + np.arange(4)[:, None] * 5.0
    assert potential_scale_reduction(unmixed) > 2.0


def test_rhat_requires_multiple_chains():
    with pytest.raises(ValueError):
        potential_scale_reduction(np.zeros((1, 100)))


# -- rank-normalized split diagnostics (Vehtari et al. 2021) ---------------


def test_split_chains_halves_and_drops_odd_middle():
    even = split_chains(np.arange(20.0).reshape(2, 10))
    assert even.shape == (4, 5)
    np.testing.assert_array_equal(even[0], np.arange(5.0))
    np.testing.assert_array_equal(even[2], np.arange(5.0, 10.0))
    odd = split_chains(np.arange(11.0)[None, :].repeat(2, axis=0))
    assert odd.shape == (4, 5)  # the middle draw is discarded
    with pytest.raises(ValueError):
        split_chains(np.zeros((2, 3)))


def test_rank_normalize_is_monotone_and_standardish():
    rng = np.random.default_rng(10)
    x = rng.standard_cauchy(size=(2, 500))  # infinite variance
    z = rank_normalize(x)
    assert z.shape == x.shape
    assert np.all(np.isfinite(z))
    assert abs(z.mean()) < 0.01
    assert z.std() == pytest.approx(1.0, abs=0.05)
    # Rank transform preserves ordering within the pooled draws.
    flat_x, flat_z = x.ravel(), z.ravel()
    order = np.argsort(flat_x)
    assert np.all(np.diff(flat_z[order]) >= 0)


def test_split_rhat_close_to_one_for_iid():
    rng = np.random.default_rng(11)
    chains = rng.normal(size=(4, 500))
    assert split_potential_scale_reduction(chains) == pytest.approx(1.0, abs=0.05)


def test_split_rhat_catches_within_chain_drift():
    rng = np.random.default_rng(12)
    drifting = rng.normal(size=(4, 500)) + np.linspace(0.0, 3.0, 500)
    # Every chain drifts identically, so the classic statistic sees
    # agreeing means and is blind to it; splitting is not.
    assert potential_scale_reduction(drifting) == pytest.approx(1.0, abs=0.05)
    assert split_potential_scale_reduction(drifting) > 1.1


def test_split_rhat_catches_scale_disagreement():
    rng = np.random.default_rng(13)
    chains = rng.normal(size=(4, 500))
    chains[0] *= 6.0  # same mean, very different spread
    assert split_potential_scale_reduction(chains) > 1.1


def test_split_rhat_robust_to_heavy_tails():
    rng = np.random.default_rng(14)
    chains = rng.standard_cauchy(size=(4, 500))
    r = split_potential_scale_reduction(chains)
    assert np.isfinite(r)
    assert r == pytest.approx(1.0, abs=0.05)


def test_split_rhat_constant_chains():
    assert split_potential_scale_reduction(np.ones((2, 8))) == 1.0


def test_split_rhat_of_chains_stuck_apart_is_infinite():
    # Each half chain's rank scores are all equal, so its within-chain
    # variance is exactly 0 however its mean rounds.
    chains = np.array([[7.0095506] * 48, [0.1] * 48])
    assert split_potential_scale_reduction(chains) == np.inf
    assert potential_scale_reduction(chains) == np.inf


def test_ess_bulk_iid_near_total():
    rng = np.random.default_rng(15)
    chains = rng.normal(size=(4, 500))
    assert ess_bulk(chains) > 0.5 * chains.size


@pytest.mark.parametrize(
    "chains", [np.full((1, 16), 3.0), np.full((2, 40), 1.0)],
    ids=["one-chain", "two-chains"],
)
def test_ess_bulk_is_zero_for_draws_that_never_move(chains):
    # A stuck chain carries no information beyond its start; reading it
    # as m*n independent draws would crown it in an ESS/s race.
    assert ess_bulk(chains) == 0.0


def test_ess_bulk_correlated_chains_much_smaller():
    rng = np.random.default_rng(16)
    m, n = 4, 2000
    x = np.zeros((m, n))
    for c in range(m):
        for i in range(1, n):
            x[c, i] = 0.95 * x[c, i - 1] + rng.normal()
    bulk = ess_bulk(x)
    # AR(0.95) has autocorrelation time ~ (1+rho)/(1-rho) = 39.
    assert bulk < 0.1 * x.size
    assert bulk == pytest.approx(x.size / 39, rel=0.7)


def test_ess_tail_within_total_and_positive():
    rng = np.random.default_rng(17)
    chains = rng.normal(size=(4, 500))
    tail = ess_tail(chains)
    assert 1.0 <= tail <= chains.size
    # Tail ESS also goes up with more iid draws.
    assert ess_tail(rng.normal(size=(4, 2000))) > tail
