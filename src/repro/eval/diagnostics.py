"""Chain diagnostics and terminal-friendly trace plots.

The paper verifies samplers by inspecting trace plots (Section 7.2,
"we visually verified the trace plots of each system"); this module
makes that workflow available in a terminal: ASCII traces, per-parameter
summaries with effective sample sizes, and multi-chain R-hat reports.
"""

from __future__ import annotations

import numpy as np

from repro.eval.metrics import (
    effective_sample_size,
    ess_bulk,
    ess_tail,
    potential_scale_reduction,
    split_potential_scale_reduction,
)
from repro.telemetry.monitors import DEFAULT_RHAT


def ascii_series(
    values,
    width: int = 64,
    height: int = 12,
    label: str = "",
) -> str:
    """Render a 1-D series as an ASCII line chart."""
    y = np.asarray(values, dtype=np.float64).ravel()
    if y.size == 0:
        return "(empty series)"
    finite = y[np.isfinite(y)]
    if finite.size == 0:
        return "(no finite values)"
    lo, hi = float(finite.min()), float(finite.max())
    if hi - lo < 1e-300:
        hi = lo + 1.0
    # Downsample to the display width.
    idx = np.linspace(0, y.size - 1, num=min(width, y.size)).astype(int)
    ys = y[idx]
    rows = [[" "] * len(ys) for _ in range(height)]
    for c, v in enumerate(ys):
        if not np.isfinite(v):
            continue
        r = int((v - lo) / (hi - lo) * (height - 1))
        rows[height - 1 - r][c] = "*"
    lines = []
    if label:
        lines.append(label)
    lines.append(f"{hi:>12.4g} +" + "".join(rows[0]))
    for row in rows[1:-1]:
        lines.append(" " * 13 + "|" + "".join(row))
    lines.append(f"{lo:>12.4g} +" + "".join(rows[-1]))
    lines.append(" " * 14 + f"1 .. {y.size} (draws)")
    return "\n".join(lines)


def _scalar_traces(draws: np.ndarray) -> dict[str, np.ndarray]:
    """Flatten a (draws, *shape) array into named scalar traces."""
    draws = np.asarray(draws)
    if draws.ndim == 1:
        return {"": draws}
    flat = draws.reshape(draws.shape[0], -1)
    out = {}
    for j in range(flat.shape[1]):
        idx = np.unravel_index(j, draws.shape[1:])
        out["[" + ",".join(map(str, idx)) + "]"] = flat[:, j]
    return out


def trace_summary(samples: dict[str, np.ndarray], max_components: int = 8) -> str:
    """Per-parameter posterior summary: mean, sd, 5/95 %, ESS."""
    lines = [
        f"{'parameter':22s} {'mean':>10s} {'sd':>10s} {'5%':>10s} "
        f"{'95%':>10s} {'ESS':>8s}"
    ]
    for name, draws in samples.items():
        traces = _scalar_traces(np.asarray(draws, dtype=np.float64))
        shown = 0
        for comp, tr in traces.items():
            if shown >= max_components:
                lines.append(f"{name}(...) {len(traces) - shown} more components")
                break
            q5, q95 = np.percentile(tr, [5, 95])
            lines.append(
                f"{name + comp:22s} {tr.mean():10.4g} {tr.std():10.4g} "
                f"{q5:10.4g} {q95:10.4g} {effective_sample_size(tr):8.0f}"
            )
            shown += 1
    return "\n".join(lines)


def trace_plot(samples: dict[str, np.ndarray], parameter: str, component=None) -> str:
    """ASCII trace plot of one (component of one) parameter."""
    draws = np.asarray(samples[parameter], dtype=np.float64)
    if draws.ndim > 1:
        if component is None:
            component = (0,) * (draws.ndim - 1)
        series = draws[(slice(None),) + tuple(component)]
        label = f"trace of {parameter}[{','.join(map(str, component))}]"
    else:
        series = draws
        label = f"trace of {parameter}"
    return ascii_series(series, label=label)


def rhat_report(
    chain_results, parameter: str, threshold: float = DEFAULT_RHAT
) -> str:
    """Rank-normalized split R-hat + bulk/tail ESS for every scalar
    component of ``parameter`` across chains, judged converged when the
    worst is at or below ``threshold``.

    Chains shorter than 4 draws cannot be split; they fall back to the
    classic Gelman-Rubin statistic (flagged in the header) with ESS
    columns omitted.
    """
    chains = [np.asarray(r[parameter], dtype=np.float64) for r in chain_results]
    stacked = np.stack(chains)  # (chains, draws, *shape)
    flat = stacked.reshape(stacked.shape[0], stacked.shape[1], -1)
    split = flat.shape[1] >= 4
    kind = "split R-hat" if split else "R-hat (too few draws to split)"
    lines = [f"{kind} for {parameter!r} over {flat.shape[0]} chains:"]
    worst = 0.0
    for j in range(flat.shape[2]):
        comp = flat[:, :, j]
        idx = np.unravel_index(j, stacked.shape[2:]) if stacked.ndim > 2 else ()
        tag = "[" + ",".join(map(str, idx)) + "]" if idx else ""
        if split:
            r = split_potential_scale_reduction(comp)
            lines.append(
                f"  {parameter}{tag}: {r:.3f}  "
                f"(bulk ESS {ess_bulk(comp):.0f}, tail ESS {ess_tail(comp):.0f})"
            )
        else:
            r = potential_scale_reduction(comp)
            lines.append(f"  {parameter}{tag}: {r:.3f}")
        worst = max(worst, r)
    verdict = f"OK (<= {threshold})" if worst <= threshold else "NOT CONVERGED"
    lines.append(f"  worst: {worst:.3f} -- {verdict}")
    return "\n".join(lines)
