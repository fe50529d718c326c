"""The HTML/JSON inference report and acceptance-range summaries."""

from __future__ import annotations

import json

import numpy as np

from repro.core.compiler import compile_model
from repro.eval import models
from repro.telemetry.report import render_html, report_data, write_report
from repro.telemetry.stats import acceptance_ranges


def gmm_sampler(schedule="MH mu (*) Gibbs z", n=30, seed=0):
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
    return compile_model(models.GMM, hypers, {"x": x}, schedule=schedule)


def test_report_data_bundles_every_surface():
    sampler = gmm_sampler()
    results = sampler.sample_chains(
        2, num_samples=20, burn_in=5, seed=0, collect_stats=True, profile=True
    )
    data = report_data(sampler, results)
    assert data["model_source"].strip().startswith("(")
    assert {s["name"] for s in data["statements"]} == {"mu", "z", "x"}
    assert all(s["line"] > 0 and s["text"] for s in data["statements"])
    assert data["ledger"], "report carries no decision ledger"
    assert len(data["chains"]) == 2
    assert all(c["n_draws"] == 20 for c in data["chains"])
    assert len(data["profiles"]) == 2
    assert "MH mu" in data["acceptance_ranges"]
    r = data["acceptance_ranges"]["MH mu"]
    assert 0.0 <= r["min"] <= r["mean"] <= r["max"] <= 1.0
    json.dumps(data)  # fully serialisable


def test_render_html_is_self_contained():
    sampler = gmm_sampler()
    res = sampler.sample(
        num_samples=15, seed=0, collect_stats=True, profile=True
    )
    html = render_html(report_data(sampler, [res]))
    assert html.startswith("<!DOCTYPE html>")
    for marker in (
        "Compiler decision ledger",
        "Sweep profile",
        "Acceptance rates",
        "param mu",
    ):
        assert marker in html, marker
    # Self-contained: no external scripts or stylesheets.
    assert "<script src" not in html and "<link" not in html


def test_write_report_emits_html_and_json_twin(tmp_path):
    sampler = gmm_sampler()
    res = sampler.sample(num_samples=10, seed=0, profile=True)
    out = tmp_path / "run.html"
    data = write_report(str(out), sampler, res)
    assert out.stat().st_size > 0
    twin = json.loads((tmp_path / "run.json").read_text())
    assert twin["ledger"] == data["ledger"]
    assert twin["profiles"] and twin["chains"]


def test_acceptance_ranges_cover_all_chains():
    sampler = gmm_sampler()
    results = sampler.sample_chains(
        3, num_samples=15, seed=1, collect_stats=True
    )
    ranges = acceptance_ranges(results)
    assert set(ranges) == {"MH mu", "Gibbs z"}
    lo, hi, mean = ranges["Gibbs z"]
    assert lo == hi == mean == 1.0  # Gibbs always accepts
    lo, hi, mean = ranges["MH mu"]
    assert 0.0 <= lo <= mean <= hi <= 1.0
