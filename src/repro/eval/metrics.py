"""Evaluation metrics.

The Figure 10 metric is the log-predictive probability of held-out
points -- "a proxy for learning: as training time increases, the
algorithm should be able to make better predictions".  Effective sample
size is included for general chain diagnostics, as are the modern
(Vehtari et al. 2021) variants: rank-normalized split R-hat and
bulk/tail ESS, which stay calibrated for heavy-tailed posteriors and
detect within-chain non-stationarity that the classic Gelman-Rubin
statistic misses.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import multivariate_normal, rankdata


def mixture_log_predictive(
    holdout: np.ndarray,
    mu: np.ndarray,
    sigma,
    pi: np.ndarray | None = None,
) -> float:
    """Log predictive probability of held-out points under one posterior
    draw of a Gaussian mixture.

    ``sigma`` may be a single shared covariance ``(D, D)`` or per-cluster
    ``(K, D, D)``; ``pi`` defaults to uniform weights.
    """
    holdout = np.asarray(holdout, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    k = mu.shape[0]
    if pi is None:
        pi = np.full(k, 1.0 / k)
    sigma = np.asarray(sigma, dtype=np.float64)
    comp = np.empty((holdout.shape[0], k))
    for j in range(k):
        cov = sigma[j] if sigma.ndim == 3 else sigma
        comp[:, j] = multivariate_normal(mu[j], cov, allow_singular=True).logpdf(
            holdout
        )
    logits = comp + np.log(np.asarray(pi) + 1e-300)
    m = logits.max(axis=1, keepdims=True)
    return float(np.sum(m.squeeze(1) + np.log(np.exp(logits - m).sum(axis=1))))


def bernoulli_log_predictive(x, y, theta, bias) -> float:
    """Held-out log likelihood for a logistic-regression posterior draw."""
    logits = x @ np.asarray(theta) + float(bias)
    p = 1.0 / (1.0 + np.exp(-logits))
    eps = 1e-12
    y = np.asarray(y)
    return float(np.sum(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))


def effective_sample_size(draws: np.ndarray, max_lag: int | None = None) -> float:
    """ESS via the initial-positive-sequence autocorrelation estimator."""
    x = np.asarray(draws, dtype=np.float64)
    n = x.shape[0]
    if n < 4:
        return float(n)
    x = x - x.mean()
    var = float(np.sum(x * x)) / n
    if var == 0:
        return float(n)
    max_lag = max_lag or min(n - 2, 1000)
    # FFT autocorrelation.
    size = int(2 ** np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, size)
    acf = np.fft.irfft(f * np.conj(f))[: max_lag + 1].real / (n * var)
    # Sum consecutive pairs while positive (Geyer).
    rho_sum = 0.0
    for lag in range(1, max_lag, 2):
        pair = acf[lag] + (acf[lag + 1] if lag + 1 <= max_lag else 0.0)
        if pair < 0:
            break
        rho_sum += pair
    ess = n / (1.0 + 2.0 * rho_sum)
    return float(min(max(ess, 1.0), n))


def potential_scale_reduction(chains: np.ndarray) -> float:
    """Gelman-Rubin R-hat over ``(n_chains, n_draws)`` scalar chains."""
    chains = np.asarray(chains, dtype=np.float64)
    m, n = chains.shape
    if m < 2 or n < 2:
        raise ValueError("R-hat needs at least 2 chains of length 2")
    means = chains.mean(axis=1)
    b = n * means.var(ddof=1)
    within = chains.var(axis=1, ddof=1)
    # A chain whose draws are all equal has no spread; its rounded mean
    # can leave ``var`` a residue (1e-32 for rank scores), not 0.
    within[np.ptp(chains, axis=1) == 0] = 0.0
    w = within.mean()
    if w <= 0.0:
        return 1.0 if b <= 0.0 else float("inf")
    var_plus = (n - 1) / n * w + b / n
    return float(np.sqrt(var_plus / w))


def split_chains(chains: np.ndarray) -> np.ndarray:
    """Split ``(m, n)`` chains into ``(2m, n // 2)`` half chains.

    Splitting makes R-hat sensitive to within-chain non-stationarity
    (a chain still drifting looks like two disagreeing half chains).
    An odd middle draw is discarded.
    """
    chains = np.asarray(chains, dtype=np.float64)
    m, n = chains.shape
    half = n // 2
    if half < 2:
        raise ValueError("splitting needs at least 4 draws per chain")
    return np.concatenate([chains[:, :half], chains[:, n - half :]], axis=0)


def rank_normalize(chains: np.ndarray) -> np.ndarray:
    """Map draws to normal scores via pooled ranks (Vehtari et al. 2021).

    Ranks are taken over the pooled draws of all chains (average ties),
    then pushed through the normal quantile function with the Blom
    offset ``(r - 3/8) / (S + 1/4)``.  The result is standard-normal-ish
    regardless of the posterior's tails, which is what makes the
    rank-normalized diagnostics robust to infinite variance.
    """
    chains = np.asarray(chains, dtype=np.float64)
    ranks = rankdata(chains, method="average").reshape(chains.shape)
    return ndtri((ranks - 0.375) / (chains.size + 0.25))


def split_potential_scale_reduction(chains: np.ndarray) -> float:
    """Rank-normalized split R-hat (Vehtari et al. 2021).

    The reported value is the max of R-hat on the rank-normalized split
    chains (location disagreement) and on the folded draws
    ``|x - median|`` (scale disagreement), so it catches chains that
    agree in mean but differ in spread.
    """
    chains = np.asarray(chains, dtype=np.float64)
    bulk = potential_scale_reduction(rank_normalize(split_chains(chains)))
    folded = np.abs(chains - np.median(chains))
    scale = potential_scale_reduction(rank_normalize(split_chains(folded)))
    return float(max(bulk, scale))


def _multichain_ess(chains: np.ndarray) -> float:
    """Cross-chain ESS from combined autocovariances (Stan's estimator).

    Per-chain autocovariances are averaged and rescaled by the
    between-chain variance, then summed with Geyer's initial monotone
    positive sequence.
    """
    chains = np.asarray(chains, dtype=np.float64)
    m, n = chains.shape
    if n < 4:
        return float(m * n)
    size = int(2 ** np.ceil(np.log2(2 * n)))
    centered = chains - chains.mean(axis=1, keepdims=True)
    f = np.fft.rfft(centered, size, axis=1)
    acov = np.fft.irfft(f * np.conj(f), axis=1)[:, :n].real / n
    chain_var = acov[:, 0] * n / (n - 1)
    mean_var = float(chain_var.mean())
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += float(chains.mean(axis=1).var(ddof=1))
    if var_plus <= 0.0:
        return float(m * n)
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    # Geyer initial monotone positive sequence over consecutive pairs.
    tau = 1.0
    prev_pair = np.inf
    for lag in range(1, n - 1, 2):
        pair = float(rho[lag] + rho[lag + 1])
        if pair < 0.0:
            break
        pair = min(pair, prev_pair)  # enforce monotone decrease
        tau += 2.0 * pair
        prev_pair = pair
    ess = m * n / tau
    return float(min(max(ess, 1.0), m * n))


def ess_bulk(chains: np.ndarray) -> float:
    """Bulk ESS: cross-chain ESS of the rank-normalized split chains.

    Chains in which no draw differs from the first never moved, so they
    hold no information beyond their start: their bulk ESS is 0.
    """
    chains = np.asarray(chains, dtype=np.float64)
    if np.all(chains == chains.flat[0]):
        return 0.0
    return _multichain_ess(rank_normalize(split_chains(chains)))


def ess_tail(chains: np.ndarray) -> float:
    """Tail ESS: the worse of the 5% / 95% quantile-indicator ESSs.

    Measures how reliably the chains resolve tail quantiles, which the
    bulk estimator over-states for sticky tails.
    """
    split = split_chains(chains)
    q05, q95 = np.quantile(split, [0.05, 0.95])
    lower = _multichain_ess(rank_normalize((split <= q05).astype(np.float64)))
    upper = _multichain_ess(rank_normalize((split >= q95).astype(np.float64)))
    return float(min(lower, upper))
