"""Online monitors: streaming moments, split R-hat/ESS, divergences,
NaN-reject warnings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compiler import compile_model
from repro.eval import models
from repro.eval.metrics import potential_scale_reduction, split_chains
from repro.telemetry.monitors import (
    ConvergenceMonitor,
    DivergenceTally,
    OnlineEss,
    SplitRhat,
    Welford,
)


# -- Welford ---------------------------------------------------------------


def test_welford_matches_numpy():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.0, size=500)
    w = Welford()
    for v in x:
        w.update(float(v))
    assert w.mean == pytest.approx(x.mean())
    assert w.var == pytest.approx(x.var(ddof=1))


def test_welford_merge_equals_single_stream():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=300), rng.normal(1.0, 3.0, size=200)
    wa, wb, w_all = Welford(), Welford(), Welford()
    for v in a:
        wa.update(float(v))
        w_all.update(float(v))
    for v in b:
        wb.update(float(v))
        w_all.update(float(v))
    wa.merge(wb)
    assert wa.n == w_all.n
    assert wa.mean == pytest.approx(w_all.mean)
    assert wa.var == pytest.approx(w_all.var)
    # Merging an empty accumulator is the identity either way.
    assert Welford().merge(wa).mean == pytest.approx(w_all.mean)
    assert wa.merge(Welford()).mean == pytest.approx(w_all.mean)


# -- online split R-hat ----------------------------------------------------


def test_online_split_rhat_matches_offline():
    rng = np.random.default_rng(2)
    chains = rng.normal(size=(3, 200))
    chains[1] += 0.8  # some disagreement
    sr = SplitRhat(n_chains=3, total_draws=200)
    for c in range(3):
        for d in range(200):
            sr.update(c, d, float(chains[c, d]))
    offline = potential_scale_reduction(split_chains(chains))
    assert sr.rhat() == pytest.approx(offline, rel=1e-12)


def test_online_split_rhat_detects_disagreement():
    rng = np.random.default_rng(3)
    good = SplitRhat(2, 100)
    bad = SplitRhat(2, 100)
    for d in range(100):
        good.update(0, d, float(rng.normal()))
        good.update(1, d, float(rng.normal()))
        bad.update(0, d, float(rng.normal()))
        bad.update(1, d, float(rng.normal(5.0)))
    assert good.rhat() < 1.1
    assert bad.rhat() > 1.5


def test_online_split_rhat_needs_data():
    sr = SplitRhat(2, 10)
    assert np.isnan(sr.rhat())
    with pytest.raises(ValueError):
        SplitRhat(2, 3)


# -- online ESS ------------------------------------------------------------


def test_online_ess_near_n_for_iid():
    rng = np.random.default_rng(4)
    ess = OnlineEss(batch_size=20)
    n = 2000
    for _ in range(n):
        ess.update(float(rng.normal()))
    assert 0.3 * n <= ess.ess() <= n


def test_online_ess_low_for_sticky_chain():
    rng = np.random.default_rng(5)
    ess = OnlineEss(batch_size=20)
    x = 0.0
    n = 2000
    for _ in range(n):
        x = 0.97 * x + rng.normal()
        ess.update(float(x))
    assert ess.ess() < 0.2 * n


def test_online_ess_warmup_is_nan():
    ess = OnlineEss(batch_size=10)
    for v in range(15):
        ess.update(float(v))
    assert np.isnan(ess.ess())  # only one full batch so far


# -- divergence tally ------------------------------------------------------


def _digest(divergent=None, n_sweeps=5, nan_rejects=0):
    entry = {"accept_rate": 0.8, "nan_rejects": nan_rejects,
             "n_sweeps": n_sweeps}
    if divergent is not None:
        entry["divergent"] = divergent
    return entry


def test_divergence_tally_threshold():
    tally = DivergenceTally(warn_rate=0.1)
    fired = [
        tally.observe({"HMC mu": _digest(divergent=d)}) for d in (1, 1, 1, 2)
    ]
    assert tally.rate == pytest.approx(0.25)
    # One crossing, reported once, and only from MIN_SWEEPS sweeps on.
    assert fired == [False, False, False, True]
    assert tally.exceeded
    assert "decrease the step size" in tally.warning
    quiet = DivergenceTally(warn_rate=0.5)
    quiet.observe({"HMC mu": _digest(divergent=0)})
    assert quiet.warning is None


def test_divergence_tally_counts_only_updates_that_can_diverge():
    tally = DivergenceTally()
    for _ in range(4):
        tally.observe({
            "HMC mu": _digest(divergent=5),
            "Gibbs z": _digest(nan_rejects=1),
        })
    assert (tally.divergent, tally.sweeps, tally.rate) == (20, 20, 1.0)
    assert tally.nan_rejects == 4
    assert tally.per_update == {"HMC mu": [20, 20, 0], "Gibbs z": [0, 0, 4]}
    assert tally.lines() == [
        f"  {'HMC mu':20s} divergence rate 100.0% (20/20 sweeps)",
        f"  {'Gibbs z':20s} nan-rejects 4",
    ]
    assert tally.observe(None) is False  # stats off: nothing to count


# -- the composed ConvergenceMonitor over real chains ----------------------


@pytest.fixture(scope="module")
def nn_sampler():
    rng = np.random.default_rng(0)
    y = rng.normal(2.0, 1.0, size=40)
    return compile_model(
        models.NORMAL_NORMAL,
        {"N": 40, "mu_0": 0.0, "v_0": 25.0, "v": 1.0},
        {"y": y},
    )


def make_monitor(n_chains, draws, emit=None):
    return ConvergenceMonitor(
        param_names=("mu",),
        n_chains=n_chains,
        total_draws=draws,
        emit=emit,
    )


def test_monitor_streams_during_sequential_chains(nn_sampler):
    lines = []
    monitor = make_monitor(3, 120, emit=lines.append)
    nn_sampler.sample_chains(
        3, num_samples=120, burn_in=20, seed=1,
        collect_stats=True, monitor=monitor,
    )
    assert len(lines) == 3  # one progress line per finished chain
    assert "worst split R-hat" in lines[-1]
    assert monitor.worst_rhat() < 1.1  # conjugate Gibbs mixes immediately
    assert monitor.min_ess() > 50
    assert monitor.warnings() == []
    report = monitor.report()
    assert "mu" in report and "all monitors within thresholds" in report
    # Chunk digests flowed into the divergence tally too; Gibbs cannot
    # diverge, so it adds no sweeps and no report line.
    assert monitor.divergence.per_update == {"Gibbs mu": [0, 0, 0]}
    assert "Gibbs mu" not in report


def test_parallel_monitor_agrees_with_sequential(nn_sampler):
    seq = make_monitor(3, 60)
    nn_sampler.sample_chains(
        3, num_samples=60, seed=7, collect_stats=True, monitor=seq
    )
    par = make_monitor(3, 60)
    nn_sampler.sample_chains(
        3, num_samples=60, seed=7, collect_stats=True, monitor=par,
        executor="processes", n_workers=2,
    )
    # The pool streams identical draws, so the online diagnostics
    # agree exactly with the sequential ones.
    assert par.worst_rhat() == pytest.approx(seq.worst_rhat(), rel=1e-12)
    assert par.min_ess() == pytest.approx(seq.min_ess(), rel=1e-12)


def test_monitor_flags_nonconverged_chains():
    monitor = make_monitor(2, 50)
    rng = np.random.default_rng(6)
    for d in range(50):
        monitor.observe(0, d, {"mu": rng.normal(0.0, 0.1)})
        monitor.observe(1, d, {"mu": rng.normal(8.0, 0.1)})
    assert monitor.worst_rhat() > 1.05
    assert any("not converged" in w for w in monitor.warnings())


def test_monitor_caps_vector_components():
    monitor = ConvergenceMonitor(
        param_names=("theta",), n_chains=1, total_draws=10, max_components=2
    )
    for d in range(10):
        monitor.observe(0, d, {"theta": np.arange(5.0) + d})
    assert set(monitor._rhat) == {"theta[0]", "theta[1]"}


# -- NaN-rejection accounting ----------------------------------------------


def nan_proposal(value, rng):
    """A broken user proposal that sometimes proposes NaN; the Normal
    log density of NaN is NaN, so the acceptance ratio comes out NaN."""
    if rng.uniform() < 0.5:
        return np.nan, 0.0
    return value + rng.normal(), 0.0


def mh_mu_sampler(proposal):
    rng = np.random.default_rng(0)
    y = rng.normal(2.0, 1.0, size=25)
    return compile_model(
        models.NORMAL_NORMAL,
        {"N": 25, "mu_0": 0.0, "v_0": 25.0, "v": 1.0},
        {"y": y},
        schedule="MH[proposal=user] mu",
        proposals={"mu": proposal},
    )


def test_nan_proposals_warn_and_count_without_stats():
    sampler = mh_mu_sampler(nan_proposal)
    with pytest.warns(RuntimeWarning, match="NaN log-acceptance"):
        sampler.sample(num_samples=30, seed=0)
    # The counter runs even with collect_stats off: silent NaN
    # rejection is a correctness hazard, not a telemetry feature.
    mh = sampler.updates[0]
    assert mh.stats.nan_rejected > 0
    assert mh.stats.nan_reject_rate > 0.01


def test_nan_rejects_surface_as_a_stat_column():
    sampler = mh_mu_sampler(nan_proposal)
    with pytest.warns(RuntimeWarning):
        res = sampler.sample(num_samples=30, seed=0, collect_stats=True)
    col = res.sample_stats["MH mu.nan_rejects"]
    assert col.sum() > 0
    text = "\n".join(res.stats.summary_lines())
    assert "nan-rejects" in text


def test_healthy_proposals_do_not_warn():
    def gaussian(value, rng):
        return value + rng.normal(), 0.0

    sampler = mh_mu_sampler(gaussian)
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("error", RuntimeWarning)
        sampler.sample(num_samples=20, seed=0)


def _stuck_and_mixing(monitor, draws=40):
    # ``a``: each chain stuck at its own value, so its split R-hat is
    # infinite; ``b``: both chains mix over the same distribution.
    rng = np.random.default_rng(2)
    for d in range(draws):
        for chain in (0, 1):
            monitor.observe(chain, d, {"a": float(chain), "b": rng.normal()})


def test_infinite_rhat_is_the_worst_value_not_unknown():
    lines = []
    monitor = ConvergenceMonitor(
        param_names=("a", "b"), n_chains=2, total_draws=40, emit=lines.append
    )
    _stuck_and_mixing(monitor)
    assert monitor._rhat["a"].rhat() == np.inf
    assert np.isfinite(monitor._rhat["b"].rhat())
    assert monitor._rhat["b"].rhat() < 1.1
    assert monitor.worst_rhat() == np.inf
    # The finite scalar alone would pass: an infinite one must not stop
    # the run early as converged.
    assert not monitor.converged(1.1)
    assert any("split R-hat inf exceeds" in w for w in monitor.warnings())
    report = monitor.report()
    assert "split R-hat   inf" in report and "<--" in report
    assert "all monitors within thresholds" not in report
    monitor.chain_done()
    assert "worst split R-hat inf" in lines[-1]


def test_stuck_gradient_chains_fail_the_monitor():
    # Step size 50 rejects every HMC proposal, so each chain's ``mu``
    # stays at its start.
    from tests.telemetry.test_explain import gmm_inputs

    hypers, data = gmm_inputs()
    sampler = compile_model(
        models.GMM, hypers, data,
        schedule="HMC[steps=3, step_size=50.0] mu (*) Gibbs z",
    )
    monitor = make_monitor(2, 40)
    sampler.sample_chains(2, num_samples=40, seed=1, monitor=monitor)
    assert monitor.worst_rhat() == np.inf
    assert "WARNING: split R-hat inf exceeds" in monitor.report()


def test_unknown_rhat_stays_unknown():
    monitor = make_monitor(2, 40)
    assert np.isnan(monitor.worst_rhat())
    assert "worst split R-hat n/a" in monitor.progress_line()
    assert monitor.warnings() == []
