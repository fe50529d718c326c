"""Statistics the suite reports and judges with.

Everything here is independent of the code under test: the bulk ESS
estimator is the suite's own (Vehtari et al. 2021, the estimator Stan
and ArviZ use), so a change to ``repro.eval.metrics`` cannot move the
benchmark's ``ess_per_s``.  Only NumPy and SciPy are needed.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_TAIL_SAMPLES = 10

#: A change "wins" a metric only when it reads better in at least this
#: share of the paired runs.
WIN_SHARE = 0.9


# ----------------------------------------------------------------------
# Percentiles and latency.
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation
    between order statistics (NumPy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples support reporting the ``q``-th percentile:
    at least :data:`MIN_TAIL_SAMPLES` of them must lie beyond it."""
    return n * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9


def mix_min(values, kinds) -> float:
    """The smallest value of each kind of sample, averaged with the
    kinds' sample counts as weights: the mean time of a mix whose every
    request is as fast as the fastest of its kind.

    A mix's kinds differ widely (a cached request against a fresh
    compile), so the smallest value overall would time only the cheapest
    kind; each kind's own minimum times that kind's work."""
    groups: dict = {}
    for value, kind in zip(values, kinds, strict=True):
        groups.setdefault(kind, []).append(value)
    if not groups:
        raise ValueError("mix_min of an empty sample")
    n = sum(len(g) for g in groups.values())
    return sum(len(g) * min(g) for g in groups.values()) / n


def due_time_latencies(due, done) -> list[float]:
    """Open-loop latency of each request, measured from when it was due
    to be sent (not when it was sent), so a stall in the generator or
    the server is charged to every request it delayed."""
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    return [d1 - d0 for d0, d1 in zip(due, done)]


# ----------------------------------------------------------------------
# Effective sample size.
# ----------------------------------------------------------------------


def _split(x):
    """Each chain's first and last halves as separate chains."""
    half = x.shape[1] // 2
    if half < 2:
        raise ValueError("splitting needs at least 4 draws per chain")
    return np.concatenate([x[:, :half], x[:, x.shape[1] - half:]], axis=0)


def _rank_normalize(x):
    """Normal scores of the pooled ranks along the leading two axes
    (chains, draws), independently for every trailing component."""
    from scipy.special import ndtri
    from scipy.stats import rankdata

    m, n = x.shape[:2]
    flat = x.reshape(m * n, -1)
    ranks = rankdata(flat, axis=0, method="average")
    return ndtri((ranks - 0.375) / (m * n + 0.25)).reshape(x.shape).astype(
        np.float64
    )


def ess_bulk(chains):
    """Bulk effective sample size of ``chains``.

    ``chains`` has shape ``(m, n)`` or ``(m, n, k)``: ``m`` chains of
    ``n`` draws of ``k`` scalar components.  Returns a float for 2-D
    input, else an array of ``k`` values.  The estimator splits every
    chain in half, rank-normalizes the pooled draws, and sums the
    combined autocorrelation with Geyer's initial monotone sequence.
    """
    x = np.asarray(chains, dtype=np.float64)
    scalar = x.ndim == 2
    if scalar:
        x = x[:, :, None]
    x = _split(x)
    m, n, k = x.shape
    z = _rank_normalize(x)
    size = 1 << (2 * n - 1).bit_length()
    centered = z - z.mean(axis=1, keepdims=True)
    f = np.fft.rfft(centered, size, axis=1)
    acov = np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n] / n
    chain_var = acov[:, 0] * n / (n - 1)
    mean_var = chain_var.mean(axis=0)
    var_plus = mean_var * (n - 1) / n + z.mean(axis=1).var(axis=0, ddof=1)
    out = np.full(k, float(m * n))
    for j in range(k):
        if var_plus[j] <= 0.0:
            continue
        rho = 1.0 - (mean_var[j] - acov[:, :, j].mean(axis=0)) / var_plus[j]
        tau, prev = 1.0, math.inf
        for lag in range(1, n - 1, 2):
            pair = float(rho[lag] + rho[lag + 1])
            if pair < 0.0:
                break
            pair = min(pair, prev)
            tau += 2.0 * pair
            prev = pair
        out[j] = min(max(m * n / tau, 1.0), m * n)
    return float(out[0]) if scalar else out


def split_rhat(chains) -> float:
    """Rank-normalized split R-hat of ``(m, n)`` scalar chains: the
    larger of the location (bulk) and scale (folded) statistics."""

    def rhat(z):
        n = z.shape[1]
        w = z.var(axis=1, ddof=1).mean()
        b = n * z.mean(axis=1).var(ddof=1)
        if w <= 0.0:
            return 1.0 if b <= 0.0 else math.inf
        return math.sqrt(((n - 1) / n * w + b / n) / w)

    x = np.asarray(chains, dtype=np.float64)
    bulk = rhat(_rank_normalize(_split(x)))
    folded = np.abs(x - np.median(x))
    return max(bulk, rhat(_rank_normalize(_split(folded))))


def per_second(amount: float, seconds: float) -> float:
    """``amount`` per second of wall time (ESS/s, draws/s, ...)."""
    if seconds <= 0.0:
        raise ValueError("per_second needs a positive wall time")
    return amount / seconds


# ----------------------------------------------------------------------
# Run-to-run spread and the compare verdicts.
# ----------------------------------------------------------------------


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (a single value is its own quartiles)."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def _better(a: float, b: float, direction: str) -> bool:
    """Whether ``b`` reads better than ``a``."""
    return b > a if direction == "higher" else b < a


def verdict(parent, change, direction: str, bound: float | None) -> str:
    """Judge ``change`` runs against ``parent`` runs of one metric.

    - ``better``: the change wins at least :data:`WIN_SHARE` of the
      pairs (ties count for neither) and the medians differ by more than
      the parent's interquartile distance.
    - ``unresolved``: no claim holds and either side's spread is wider
      than ``bound`` -- unless every change run reads better than every
      parent run, which is ``within``.  A metric without a bound
      (a per-layer number) is ``unresolved`` whenever its medians differ.
    - ``worse``: the change's median is worse than the parent's by more
      than ``bound`` (a share of the parent's median).
    - ``within``: otherwise.

    Runs pair up in the order given (the caller sorts both sides by
    seed); surplus runs on either side are left out of the win share.
    """
    if direction not in ("higher", "lower"):
        raise ValueError(f"direction must be 'higher' or 'lower', got {direction!r}")
    parent, change = list(parent), list(change)
    if not parent or not change:
        raise ValueError("verdict needs runs on both sides")
    pairs = list(zip(parent, change))
    wins = sum(_better(a, b, direction) for a, b in pairs)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    if wins >= WIN_SHARE * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "better"
    if bound is None:
        return "within" if c_med == p_med else "unresolved"
    if max(spread(parent), spread(change)) > bound:
        if direction == "higher":
            all_better = min(change) > max(parent)
        else:
            all_better = max(change) < min(parent)
        return "within" if all_better else "unresolved"
    worse_by = (p_med - c_med) if direction == "higher" else (c_med - p_med)
    if p_med != 0 and worse_by / abs(p_med) > bound:
        return "worse"
    return "within"
