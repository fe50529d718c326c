"""Diagnostics: trace summaries, ASCII plots, R-hat reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.diagnostics import (
    ascii_series,
    rhat_report,
    trace_plot,
    trace_summary,
)


def test_ascii_series_basic_shape():
    out = ascii_series(np.sin(np.linspace(0, 6, 200)), width=40, height=8)
    lines = out.splitlines()
    assert len(lines) == 9  # 8 rows + footer
    assert "*" in out
    assert "draws" in lines[-1]


def test_ascii_series_constant_and_empty():
    assert "(empty series)" == ascii_series([])
    out = ascii_series(np.ones(10))
    assert "*" in out  # constant series still renders


def test_ascii_series_ignores_nonfinite():
    vals = np.array([0.0, np.inf, 1.0, np.nan, 2.0])
    out = ascii_series(vals)
    assert "*" in out


def test_trace_summary_columns():
    rng = np.random.default_rng(0)
    samples = {"mu": rng.normal(2.0, 0.5, size=(500, 2)), "s": rng.gamma(2, size=500)}
    text = trace_summary(samples)
    assert "mu[0]" in text and "mu[1]" in text
    assert "ESS" in text
    # The reported means are sane.
    line = next(l for l in text.splitlines() if l.startswith("mu[0]"))
    assert float(line.split()[1]) == pytest.approx(2.0, abs=0.1)


def test_trace_summary_truncates_components():
    samples = {"big": np.zeros((50, 20))}
    text = trace_summary(samples, max_components=4)
    assert "more components" in text


def test_trace_plot_selects_component():
    draws = np.stack([np.linspace(0, 1, 30), np.linspace(5, 6, 30)], axis=1)
    out = trace_plot({"theta": draws}, "theta", component=(1,))
    assert "theta[1]" in out


def test_rhat_report_flags_divergence():
    rng = np.random.default_rng(1)
    good = [ {"mu": rng.normal(size=300)} for _ in range(3) ]
    text = rhat_report(good, "mu")
    assert "OK" in text
    bad = [
        {"mu": rng.normal(size=300)},
        {"mu": rng.normal(size=300) + 10.0},
    ]
    text = rhat_report(bad, "mu")
    assert "NOT CONVERGED" in text


def test_rhat_report_stuck_chains_read_infinite():
    chains = [{"mu": np.full(48, 7.0095506)}, {"mu": np.full(48, 0.1)}]
    text = rhat_report(chains, "mu")
    assert "mu: inf" in text
    assert "worst: inf -- NOT CONVERGED" in text


def test_rhat_report_vector_parameter():
    rng = np.random.default_rng(2)
    chains = [{"theta": rng.normal(size=(200, 3))} for _ in range(2)]
    text = rhat_report(chains, "theta")
    assert "theta[0]" in text and "theta[2]" in text
