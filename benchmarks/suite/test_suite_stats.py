"""Tests for the suite's statistics: run them by path, they are not part
of the tier-1 suite::

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite_stats.py -q
"""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest

from benchmarks.suite import stats
from benchmarks.suite.spans import self_times


# -- the ten-samples-beyond percentile rule ------------------------------


@pytest.mark.parametrize(
    "n, q, ok",
    [(100, 90, True), (99, 90, False), (200, 95, True), (199, 95, False),
     (1000, 99, True), (10, 0, True), (9, 0, False)],
)
def test_percentile_needs_ten_samples_beyond(n, q, ok):
    assert stats.supported(n, q) is ok


def test_percentile_matches_numpy_linear_interpolation():
    xs = np.random.default_rng(0).exponential(size=37).tolist()
    for q in (0, 10, 50, 90, 100):
        assert stats.percentile(xs, q) == pytest.approx(np.percentile(xs, q))


# -- due-time latency ---------------------------------------------------


def test_latency_runs_from_the_due_time():
    # Requests due every 100 ms; the second finds the connection busy
    # until t=0.35 and is charged that wait.
    due = [0.0, 0.1, 0.2]
    done = [0.35, 0.45, 0.5]
    assert stats.due_time_latencies(due, done) == pytest.approx([0.35, 0.35, 0.3])


def test_latency_needs_paired_times():
    with pytest.raises(ValueError):
        stats.due_time_latencies([0.0, 1.0], [1.0])


def test_mix_min_weights_each_kinds_minimum_by_its_count():
    # Five fast requests around 10 ms, four slow around 100 ms: the plain
    # minimum times only the fast kind; the mix minimum weights each
    # kind's fastest request by the kind's count.
    fast, slow = [9.0, 10.0, 10.0, 11.0, 12.0], [110.0, 90.0, 100.0, 100.0]
    values = fast + slow
    kinds = ["fast"] * 5 + ["slow"] * 4
    assert stats.mix_min(values, kinds) == pytest.approx((5 * 9.0 + 4 * 90.0) / 9)
    assert stats.mix_min(values, ["one"] * 9) == min(values)
    with pytest.raises(ValueError):
        stats.mix_min(values, kinds[:-1])
    with pytest.raises(ValueError):
        stats.mix_min([], [])


# -- ESS per second -----------------------------------------------------


def _ar1(rng, rho, n, m=1):
    x = np.empty((m, n))
    x[:, 0] = rng.standard_normal(m)
    noise = rng.standard_normal((m, n)) * math.sqrt(1 - rho * rho)
    for t in range(1, n):
        x[:, t] = rho * x[:, t - 1] + noise[:, t]
    return x


def test_ess_of_independent_draws_is_the_draw_count():
    draws = np.random.default_rng(1).standard_normal((4, 500))
    assert stats.ess_bulk(draws) == pytest.approx(2000, rel=0.15)


def test_ess_of_an_autocorrelated_chain():
    rho = 0.8
    draws = _ar1(np.random.default_rng(2), rho, 4000, m=2)
    expected = draws.size * (1 - rho) / (1 + rho)
    assert stats.ess_bulk(draws) == pytest.approx(expected, rel=0.3)


def test_ess_over_components_matches_one_at_a_time():
    rng = np.random.default_rng(3)
    x = np.stack([_ar1(rng, r, 300, m=3) for r in (0.0, 0.5, 0.9)], axis=-1)
    per = stats.ess_bulk(x)
    for j in range(3):
        assert per[j] == pytest.approx(stats.ess_bulk(x[:, :, j]))
    assert per[0] > per[1] > per[2]


def test_ess_matches_the_programs_estimator():
    metrics = pytest.importorskip("repro.eval.metrics")
    draws = _ar1(np.random.default_rng(4), 0.6, 400, m=3)
    assert stats.ess_bulk(draws) == pytest.approx(metrics.ess_bulk(draws), rel=1e-9)


def test_ess_per_second():
    draws = np.random.default_rng(5).standard_normal((2, 400))
    ess = stats.ess_bulk(draws)
    assert stats.per_second(ess, 2.0) == pytest.approx(ess / 2.0)
    with pytest.raises(ValueError):
        stats.per_second(ess, 0.0)


def test_split_rhat():
    rng = np.random.default_rng(6)
    mixed = rng.standard_normal((4, 400))
    assert stats.split_rhat(mixed) < 1.01
    stuck = mixed + np.array([0.0, 0.0, 0.0, 3.0])[:, None]
    assert stats.split_rhat(stuck) > 1.1


# -- spread and the compare verdicts ------------------------------------


def test_quartiles_and_spread_follow_statistics_quantiles():
    xs = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    assert stats.quartiles(xs) == (q1, med, q3)
    assert stats.spread(xs) == pytest.approx((q3 - q1) / med)


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.2]


def test_verdict_better_needs_the_win_share_and_a_gap_beyond_the_iqr():
    change = [x * 1.2 for x in PARENT]
    assert stats.verdict(PARENT, change, "higher", 0.1) == "better"
    # Lower is better: the same numbers are now a regression.
    assert stats.verdict(PARENT, change, "lower", 0.1) == "worse"


def test_verdict_no_claim_when_a_change_wins_too_few_pairs():
    change = list(PARENT)
    change[0] = 130.0  # wins one pair in ten
    assert stats.verdict(PARENT, change, "higher", 0.1) == "within"


def test_verdict_worse_only_beyond_the_bound():
    assert stats.verdict(PARENT, [x * 0.95 for x in PARENT], "higher", 0.1) == "within"
    assert stats.verdict(PARENT, [x * 0.8 for x in PARENT], "higher", 0.1) == "worse"
    assert stats.verdict(PARENT, [x * 1.05 for x in PARENT], "lower", 0.1) == "within"
    assert stats.verdict(PARENT, [x * 1.3 for x in PARENT], "lower", 0.1) == "worse"


def test_verdict_unresolved_when_the_spread_exceeds_the_bound():
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    change = [x * 0.9 for x in wide]
    assert stats.verdict(wide, change, "higher", 0.1) == "unresolved"


def test_verdict_wide_spread_but_every_change_run_better():
    parent = [90.0, 110.0, 95.0, 105.0, 100.0, 92.0, 108.0, 97.0, 103.0, 100.0]
    change = [110.5, 111.0, 110.6, 110.8, 110.7, 110.9, 110.5, 111.0, 110.6, 110.8]
    # Every change run beats every parent run, but the medians differ by
    # less than the parent's interquartile distance: not a claimed gain,
    # and not unresolved either.
    assert stats.verdict(parent, change, "higher", 0.05) == "within"


def test_verdict_without_a_bound():
    assert stats.verdict([7.0, 7.0], [7.0, 7.0], "lower", None) == "within"
    assert stats.verdict([7.0, 7.0, 7.0], [7.5, 7.0, 7.0], "lower", None) == "within"
    assert stats.verdict([7.0, 8.0, 7.0], [7.5, 8.5, 7.5], "lower", None) == "unresolved"


def test_verdict_rejects_a_bad_direction():
    with pytest.raises(ValueError):
        stats.verdict(PARENT, PARENT, "up", 0.1)


# -- trace self time ----------------------------------------------------


def test_self_time_subtracts_direct_children():
    def span(name, ts, dur, tid=1):
        return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 1, "tid": tid}

    events = [
        span("rep", 0, 1000),
        span("compile", 0, 200),
        span("exec", 50, 100),
        span("chunk", 300, 400),
        span("rep", 0, 500, tid=2),
        {"name": "mark", "ph": "i", "ts": 10, "pid": 1, "tid": 1},
    ]
    got = self_times(events)
    assert got["rep"] == pytest.approx((1000 - 200 - 400 + 500) / 1e3)
    assert got["compile"] == pytest.approx((200 - 100) / 1e3)
    assert got["exec"] == pytest.approx(0.1)
    assert got["chunk"] == pytest.approx(0.4)
