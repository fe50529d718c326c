"""Per-sweep sampler statistics: capture, typing, and cross-chain merge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compiler import compile_model
from repro.eval import models
from repro.telemetry.stats import (
    BASE_FIELDS,
    UpdateStatsBuffer,
    allocate_stat_buffers,
    stack_chain_stats,
)


def gmm_inputs(seed=0, n=40):
    rng = np.random.default_rng(seed)
    true_mu = np.array([[-3.0, 0.0], [3.0, 0.0]])
    z = rng.integers(0, 2, size=n)
    x = true_mu[z] + rng.normal(0, 0.4, size=(n, 2))
    hypers = {
        "K": 2,
        "N": n,
        "mu_0": np.zeros(2),
        "Sigma_0": np.eye(2) * 16.0,
        "pis": np.array([0.5, 0.5]),
        "Sigma": np.eye(2) * 0.16,
    }
    return hypers, {"x": x}


def gmm_sampler(schedule):
    hypers, data = gmm_inputs()
    return compile_model(models.GMM, hypers, data, schedule=schedule)


#: (schedule, label of the mu update, extra fields it must report)
KERNEL_CASES = [
    ("MH mu (*) Gibbs z", "MH mu", {"mean_log_alpha"}),
    ("Slice mu (*) Gibbs z", "Slice mu", {"expansions", "shrinks"}),
    ("ESlice mu (*) Gibbs z", "ESlice mu", {"shrinks"}),
    (
        "HMC[steps=5, step_size=0.05] mu (*) Gibbs z",
        "HMC mu",
        {
            "log_alpha", "energy", "divergent", "n_leapfrog",
            "accept_stat", "step_size", "step_size_bar", "adapt_window",
        },
    ),
    (
        "NUTS[step_size=0.05] mu (*) Gibbs z",
        "NUTS mu",
        {
            "energy", "divergent", "n_leapfrog", "tree_depth",
            "accept_stat", "step_size", "step_size_bar", "adapt_window",
        },
    ),
]


ELEMENTS = """
(N, v0, v) => {
  param mu[n] ~ Normal(0.0, v0) for n <- 0 until N ;
  data y[n] ~ Normal(mu[n], v) for n <- 0 until N ;
}
"""


@pytest.mark.parametrize(
    "schedule",
    [
        "Gibbs mu", "HMC mu", "NUTS mu",
        "MH mu", "MH[batch=off] mu",
        "Slice mu", "Slice[batch=off] mu",
        "ESlice mu", "ESlice[batch=off] mu",
    ],
)
def test_acceptance_is_the_stat_columns_weighted_mean(schedule):
    # Each update keeps one tally: the call's acceptance and its
    # per-sweep accept_rate column read the same count (for NUTS, the
    # dual-averaging accept statistic), warmup sweeps included.
    y = np.random.default_rng(0).normal(1.0, 1.0, size=6)
    sampler = compile_model(
        ELEMENTS, {"N": 6, "v0": 4.0, "v": 1.0}, {"y": y}, schedule=schedule
    )
    (upd,) = sampler.updates
    kind = schedule.split()[0]
    assert upd.is_batched == (kind in ("MH", "Slice", "ESlice"))
    res = sampler.sample(num_samples=40, warmup=20, seed=7, collect_stats=True)
    cols = res.stats[upd.label]
    n = cols["n_proposed"]
    assert n.sum() > 0
    weighted = float(np.sum(cols["accept_rate"] * n) / np.sum(n))
    assert res.acceptance[upd.label] == pytest.approx(weighted, rel=1e-12)


@pytest.mark.parametrize("schedule,label,extra", KERNEL_CASES)
def test_every_base_kernel_reports_typed_stats(schedule, label, extra):
    sampler = gmm_sampler(schedule)
    res = sampler.sample(num_samples=10, burn_in=4, seed=0, collect_stats=True)
    stats = res.stats
    assert stats is not None
    assert set(stats.update_labels) == {label, "Gibbs z"}
    base = {f.name for f in BASE_FIELDS}
    assert set(stats[label]) == base | extra
    # Stats cover every sweep, burn-in included.
    assert stats.n_sweeps == 14
    cols = stats[label]
    assert np.all(cols["accept_rate"] >= 0.0)
    assert np.all(cols["accept_rate"] <= 1.0)
    assert np.all(cols["n_proposed"] >= 1)
    assert cols["n_proposed"].dtype == np.int64
    assert cols["accept_rate"].dtype == np.float64


def test_hmc_and_nuts_specific_columns():
    res = gmm_sampler(
        "HMC[steps=5, step_size=0.05] mu (*) Gibbs z"
    ).sample(num_samples=12, seed=1, collect_stats=True)
    cols = res.stats["HMC mu"]
    assert np.all(cols["n_leapfrog"] == 5)
    assert np.all(np.isfinite(cols["energy"]))

    res = gmm_sampler("NUTS[step_size=0.05] mu (*) Gibbs z").sample(
        num_samples=12, seed=1, collect_stats=True
    )
    cols = res.stats["NUTS mu"]
    assert np.all(cols["tree_depth"] >= 1)
    # A depth-d doubling tree uses 2^d - 1 leapfrog steps at most.
    assert np.all(cols["n_leapfrog"] <= 2 ** cols["tree_depth"])


def test_stats_off_by_default():
    res = gmm_sampler("ESlice mu (*) Gibbs z").sample(num_samples=5, seed=0)
    assert res.stats is None
    assert res.sample_stats == {}


def test_sample_stats_flat_dict_and_kept_slice():
    res = gmm_sampler("ESlice mu (*) Gibbs z").sample(
        num_samples=6, burn_in=4, thin=2, seed=0, collect_stats=True
    )
    flat = res.sample_stats
    assert set(flat) >= {"ESlice mu.accept_rate", "Gibbs z.accept_rate"}
    # burn_in + num_samples * thin sweeps recorded in full...
    assert flat["ESlice mu.accept_rate"].shape == (16,)
    # ...and kept_slice picks exactly the sweeps with stored draws.
    kept = flat["Gibbs z.n_proposed"][res.stats.kept_slice]
    assert kept.shape == (6,)


def test_summary_lines_mention_kernel_specifics():
    res = gmm_sampler(
        "NUTS[step_size=0.05] mu (*) Gibbs z"
    ).sample(num_samples=8, seed=0, collect_stats=True)
    text = "\n".join(res.stats.summary_lines())
    assert "NUTS mu" in text and "mean depth" in text
    assert "Gibbs z" in text


def test_duplicate_labels_get_distinct_buffers():
    class Fake:
        label = "Slice mu"

        def stat_fields(self):
            return BASE_FIELDS

    bufs = allocate_stat_buffers([Fake(), Fake()], n_sweeps=3)
    assert [b.label for b in bufs] == ["Slice mu", "Slice mu#1"]
    bufs[0]["accept_rate"][0] = 0.5
    assert bufs[1]["accept_rate"][0] == 0.0  # storage not shared


def test_buffer_write_ignores_unknown_fields():
    buf = UpdateStatsBuffer("u", BASE_FIELDS, 2)
    buf.write(0, {"accept_rate": 0.25, "not_a_field": 9.0})
    assert buf["accept_rate"][0] == 0.25


def test_stack_chain_stats_shapes_and_empty_case():
    sampler = gmm_sampler("ESlice mu (*) Gibbs z")
    results = sampler.sample_chains(
        3, num_samples=6, burn_in=2, seed=0, collect_stats=True
    )
    merged = stack_chain_stats(results)
    assert merged["ESlice mu.accept_rate"].shape == (3, 8)
    assert merged["Gibbs z.n_proposed"].shape == (3, 8)
    # Without collect_stats there is nothing to merge.
    plain = sampler.sample_chains(2, num_samples=4, seed=0)
    assert stack_chain_stats(plain) == {}
