"""Shared experiment plumbing."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np


def full_scale() -> bool:
    """Paper-scale runs are opt-in via ``REPRO_FULL=1``."""
    return os.environ.get("REPRO_FULL", "0") == "1"


@dataclass
class Series:
    """A (cumulative seconds, metric) learning curve for one system."""

    system: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, t: float, v: float) -> None:
        self.times.append(t)
        self.values.append(v)

    def final(self) -> tuple[float, float]:
        return self.times[-1], self.values[-1]


def hgmm_hypers(k: int, d: int) -> dict:
    return {
        "K": k,
        "alpha": np.full(k, 1.0),
        "mu_0": np.zeros(d),
        "Sigma_0": np.eye(d) * 100.0,
        "nu": float(d + 2),
        "Psi": np.eye(d),
    }


def format_table(headers: list[str], rows: list[list]) -> str:
    """Fixed-width table for benchmark stdout (paper-style)."""
    cols = [headers] + [[str(c) for c in r] for r in rows]
    widths = [max(len(row[i]) for row in cols) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append(
            "  ".join(str(c).ljust(w) for c, w in zip(r, widths))
        )
    return "\n".join(lines)
