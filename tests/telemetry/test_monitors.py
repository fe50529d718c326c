"""The convergence monitor (split R-hat and ESS over the chains'
stored common prefix), divergences, NaN-reject warnings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.chains import ChainChunk
from repro.core.compiler import compile_model
from repro.eval import models
from repro.eval.metrics import ess_bulk, split_potential_scale_reduction
from repro.telemetry import monitors
from repro.telemetry.monitors import (
    MIN_RHAT_DRAWS,
    ConvergenceMonitor,
    DivergenceTally,
)


def feed(monitor, chains, kept=None):
    """Post each chain's whole storage as one chunk of ``kept[c]``
    draws (all of them by default)."""
    for c, draws in enumerate(chains):
        stop = len(draws) if kept is None else kept[c]
        monitor.observe_chunk(ChainChunk(c, 0, stop, {"mu": draws}))


# -- split R-hat over the stored common prefix -------------------------------


def test_online_split_rhat_matches_offline():
    rng = np.random.default_rng(2)
    chains = rng.normal(size=(3, 200))
    chains[1] += 0.8  # some disagreement
    monitor = ConvergenceMonitor(("mu",), n_chains=3)
    # Chains hold different numbers of draws: the monitor judges the
    # first min(kept) of every chain, as the summary does.
    feed(monitor, chains, kept=[200, 150, 120])
    offline = split_potential_scale_reduction(chains[:, :120])
    assert monitor.worst_rhat() == offline
    assert monitor.min_ess() == ess_bulk(chains[:, :120])


def test_online_split_rhat_detects_disagreement():
    rng = np.random.default_rng(3)
    good = ConvergenceMonitor(("mu",), n_chains=2)
    bad = ConvergenceMonitor(("mu",), n_chains=2)
    feed(good, rng.normal(size=(2, 100)))
    feed(bad, [rng.normal(size=100), rng.normal(5.0, size=100)])
    assert good.worst_rhat() < 1.1
    assert bad.worst_rhat() > 1.5


def test_online_split_rhat_needs_data():
    rng = np.random.default_rng(4)
    monitor = ConvergenceMonitor(("mu",), n_chains=2)
    assert np.isnan(monitor.worst_rhat())
    feed(monitor, rng.normal(size=(2, 50)), kept=[50, MIN_RHAT_DRAWS - 1])
    assert np.isnan(monitor.worst_rhat())
    assert not monitor.converged(10.0)
    # One chain has no between-chain variance to compare: never judged.
    alone = ConvergenceMonitor(("mu",), n_chains=1)
    feed(alone, rng.normal(size=(1, 400)))
    assert np.isnan(alone.worst_rhat())
    assert not alone.converged(10.0)


# -- ESS -------------------------------------------------------------------


def test_online_ess_near_n_for_iid():
    rng = np.random.default_rng(4)
    monitor = ConvergenceMonitor(("mu",), n_chains=2)
    feed(monitor, rng.normal(size=(2, 1000)))
    assert 0.3 * 2000 <= monitor.min_ess() <= 2000


def test_online_ess_low_for_sticky_chain():
    rng = np.random.default_rng(5)
    chains = np.zeros((2, 1000))
    for c in range(2):
        x = 0.0
        for d in range(1000):
            x = 0.97 * x + rng.normal()
            chains[c, d] = x
    monitor = ConvergenceMonitor(("mu",), n_chains=2)
    feed(monitor, chains)
    assert monitor.min_ess() < 0.2 * 2000


def test_online_ess_warmup_is_nan():
    monitor = ConvergenceMonitor(("mu",), n_chains=2)
    feed(monitor, np.arange(30.0).reshape(2, 15), kept=[15, 3])
    assert np.isnan(monitor.min_ess())  # 3 common draws so far


@pytest.fixture
def judged(monkeypatch):
    """The prefix length of every R-hat the monitor computes."""
    calls = []
    measure = monitors.component_rhat

    def spy(series):
        calls.append(series.shape[1])
        return measure(series)

    monkeypatch.setattr(monitors, "component_rhat", spy)
    return calls


def test_judges_again_after_an_eighth_and_at_the_end(judged):
    rng = np.random.default_rng(6)
    chains = rng.normal(size=(2, 100))
    monitor = ConvergenceMonitor(("mu",), n_chains=2)
    for stop in (10, 11, 12, 13):
        feed(monitor, chains, kept=[100, stop])
        monitor.worst_rhat()
        monitor.worst_rhat()  # cached
    # 11 is less than an eighth past 10; 12 is not.
    assert judged == [10, 12]
    monitor.chain_done()
    monitor.chain_done()  # the last chain: judge the final prefix
    assert judged == [10, 12, 13]
    assert monitor.worst_rhat() == split_potential_scale_reduction(
        chains[:, :13]
    )
    # After the final judgement the monitor holds no draw storage.
    assert monitor._storage is None
    assert monitor.min_ess() == ess_bulk(chains[:, :13])


# -- divergence tally ------------------------------------------------------


def _digest(divergent=None, n_sweeps=5, nan_rejects=0):
    entry = {"accept_rate": 0.8, "nan_rejects": nan_rejects,
             "n_sweeps": n_sweeps}
    if divergent is not None:
        entry["divergent"] = divergent
    return entry


def test_divergence_tally_threshold():
    # The threshold is DEFAULT_DIVERGENCE_WARN, 5%: 2 of the first 20
    # sweeps cross it, and only once MIN_SWEEPS sweeps are in.
    tally = DivergenceTally()
    fired = [
        tally.observe({"HMC mu": _digest(divergent=d)})
        for d in (1, 1, 0, 0, 0)
    ]
    assert tally.rate == pytest.approx(0.08)
    # One crossing, reported once.
    assert fired == [False, False, False, True, False]
    assert tally.exceeded
    assert "exceeds 5% -- decrease the step size" in tally.warning
    quiet = DivergenceTally()
    for d in (1, 0, 0, 0, 0):
        assert quiet.observe({"HMC mu": _digest(divergent=d)}) is False
    assert quiet.rate == pytest.approx(0.04)
    assert quiet.warning is None and not quiet.exceeded


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


def make_monitor(n_chains, emit=None):
    return ConvergenceMonitor(
        param_names=("mu",),
        n_chains=n_chains,
        emit=emit,
    )


def test_monitor_streams_during_sequential_chains(nn_sampler):
    lines = []
    monitor = make_monitor(3, emit=lines.append)
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
    seq = make_monitor(3)
    nn_sampler.sample_chains(
        3, num_samples=60, seed=7, collect_stats=True, monitor=seq
    )
    par = make_monitor(3)
    nn_sampler.sample_chains(
        3, num_samples=60, seed=7, collect_stats=True, monitor=par,
        executor="processes", n_workers=2,
    )
    # The pool streams identical draws and the final judgement reads
    # the same common prefix, so the diagnostics agree exactly.
    assert par.worst_rhat() == seq.worst_rhat()
    assert par.min_ess() == seq.min_ess()


def test_monitor_flags_nonconverged_chains():
    monitor = make_monitor(2)
    rng = np.random.default_rng(6)
    feed(monitor, [rng.normal(0.0, 0.1, 50), rng.normal(8.0, 0.1, 50)])
    assert monitor.worst_rhat() > 1.05
    assert any("not converged" in w for w in monitor.warnings())


def test_monitor_caps_vector_components():
    monitor = ConvergenceMonitor(param_names=("theta",), n_chains=2)
    theta = np.arange(50.0).reshape(10, 5)
    for c in range(2):
        monitor.observe_chunk(ChainChunk(c, 0, 10, {"theta": theta + c}))
    monitor.worst_rhat()
    assert set(monitor._rhat) == {f"theta[{j}]" for j in range(4)}


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
    # The tally counts with collect_stats off too: silent NaN
    # rejection is a correctness hazard, not a telemetry feature.
    mh = sampler.updates[0]
    assert mh.tally["nan"] > 0.01 * mh.tally["proposed"]


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
    b = rng.normal(size=(2, draws))
    for chain in (0, 1):
        monitor.observe_chunk(ChainChunk(chain, 0, draws, {
            "a": np.full(draws, float(chain)), "b": b[chain],
        }))


def test_infinite_rhat_is_the_worst_value_not_unknown():
    lines = []
    monitor = ConvergenceMonitor(
        param_names=("a", "b"), n_chains=2, emit=lines.append
    )
    _stuck_and_mixing(monitor)
    assert monitor.worst_rhat() == np.inf
    assert monitor._rhat["a"] == np.inf
    assert np.isfinite(monitor._rhat["b"])
    assert monitor._rhat["b"] < 1.1
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
    monitor = make_monitor(2)
    sampler.sample_chains(2, num_samples=40, seed=1, monitor=monitor)
    assert monitor.worst_rhat() == np.inf
    assert "WARNING: split R-hat inf exceeds" in monitor.report()


def test_unknown_rhat_stays_unknown():
    monitor = make_monitor(2)
    assert np.isnan(monitor.worst_rhat())
    assert "worst split R-hat n/a" in monitor.progress_line()
    assert monitor.warnings() == []


@pytest.mark.parametrize("executor", ["sequential", "processes"])
def test_judgements_stay_few(nn_sampler, executor, judged):
    # The service's reads: one converged poll and one worst_rhat per
    # chunk.  Judging only after the prefix grows by an eighth keeps
    # 4 x 2000 draws in chunks of 25 (80 chunks per chain) to a few
    # dozen estimator runs.
    monitor = make_monitor(4)
    stream = nn_sampler.stream_chains(
        4, 2000, seed=3, chunk_size=25, monitor=monitor,
        executor=executor, n_workers=2,
    )
    for _ in stream:
        monitor.converged(1.0)
        monitor.worst_rhat()
    assert len(judged) <= 30
    assert judged[-1] == 2000  # the final judgement reads the last draws
    final = np.stack([r.array("mu") for r in stream.results])
    assert monitor.worst_rhat() == split_potential_scale_reduction(final)


LIFETIME_SCRIPT = """
import gc
import numpy as np
from repro.core.chains import shutdown_worker_pools
from repro.core.compiler import compile_model
from repro.eval import models
from repro.eval.metrics import split_potential_scale_reduction
from repro.telemetry.monitors import ConvergenceMonitor

y = np.random.default_rng(0).normal(2.0, 1.0, size=40)
sampler = compile_model(
    models.NORMAL_NORMAL, {"N": 40, "mu_0": 0.0, "v_0": 25.0, "v": 1.0},
    {"y": y},
)
run = dict(seed=3, executor="processes", n_workers=2, chunk_size=25)

# Read after the run's results (and with them its shared segment) die.
monitor = ConvergenceMonitor(("mu",), 2)
results = sampler.sample_chains(2, num_samples=200, monitor=monitor, **run)
want = split_potential_scale_reduction(
    np.stack([r.array("mu").copy() for r in results])
)
del results
gc.collect()
assert monitor.worst_rhat() == want
assert monitor.min_ess() > 0
assert "mu" in monitor.report()

# Read after a stream abandoned mid-run is collected: both chains hold
# draws nobody judged yet, so a monitor still holding them would read
# the unmapped segment.
monitor = ConvergenceMonitor(("mu",), 2)
stream = sampler.stream_chains(2, 2000, monitor=monitor, **run)
stops = [0, 0]
for chunk in stream:
    stops[chunk.chain] = chunk.stop
    if min(stops) >= 50:
        break
del stream, chunk
gc.collect()
monitor.worst_rhat(), monitor.min_ess(), monitor.report()
shutdown_worker_pools()
print("ok")
"""


def test_reads_after_the_run_touch_no_storage(run_isolated):
    code, out, err = run_isolated(LIFETIME_SCRIPT)
    assert code == 0, err
    assert out.strip() == "ok"


IMPORT_SCRIPT = """
import sys
import numpy as np
import repro
assert "scipy.stats" not in sys.modules, "import repro loaded scipy.stats"

from repro.eval import models
from repro.serve.protocol import parse_infer_request
from repro.serve.session import InferenceService

y = np.random.default_rng(0).normal(2.0, 1.0, size=40).tolist()
payload = {
    "model_source": models.NORMAL_NORMAL,
    "data": {"N": 40, "mu_0": 0.0, "v_0": 25.0, "v": 1.0, "y": y},
    "query": {"samples": 20, "chains": 1, "seed": 1},
}
service = InferenceService()
service.handle(parse_infer_request(payload))
payload["query"]["tune"] = True
service.handle(parse_infer_request(payload))
assert "scipy.stats" not in sys.modules, "a one-chain request did"
print("ok")
"""


def test_import_leaves_scipy_stats_unloaded(run_isolated):
    # eval.metrics imports scipy.stats (most of a second and about
    # 46 MB); only a judgement of two or more chains, or a gradient
    # trial of the tuner, pays for it.
    code, out, err = run_isolated(IMPORT_SCRIPT)
    assert code == 0, err
    assert out.strip() == "ok"
