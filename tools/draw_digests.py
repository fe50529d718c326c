#!/usr/bin/env python
"""Draw digests: SHA-256 of the draws of fixed sampling runs.

A change meant to leave the samplers' arithmetic alone must print the
same digests before and after; CHANGES.md records the output wherever a
change moved one, with the reason.  Run from a checkout:

    PYTHONPATH=src python tools/draw_digests.py

The first nine lines (HLR, GMM, EXP_NORMAL, GPU HLR) are the cases the
digests have been compared on since the packed flat HMC/NUTS state.
The rest cover loop nests: grouped means (a rectangular nest) under
conjugate Gibbs and batched MH, and NUTS on a ragged block through the
CPU target's fused gradient and the GPU target's separate log-density
and gradient kernels.  A case that raises prints its error in place of
a digest.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.compiler import compile_model
from repro.core.options import CompileOptions
from repro.eval import models
from repro.eval.datasets import german_credit_like
from repro.eval.experiments.hlr import _hlr_inputs
from repro.runtime.vectors import RaggedArray

GROUPED_MEANS = """
(N, J, v0, v) => {
  param mu[n] ~ Normal(0.0, v0)
    for n <- 0 until N ;
  data y[n][j] ~ Normal(mu[n], v)
    for n <- 0 until N, j <- 0 until J ;
}
"""

RAGGED_ELEMENTS = """
(D, L, v0, v) => {
  param t[d][j] ~ Normal(0.0, v0) for d <- 0 until D, j <- 0 until L[d] ;
  data y[d][j] ~ Normal(t[d][j], v) for d <- 0 until D, j <- 0 until L[d] ;
}
"""


def digest(results, names):
    h = hashlib.sha256()
    for r in results:
        for k in names:
            h.update(np.ascontiguousarray(r.array(k), dtype=np.float64).tobytes())
    return h.hexdigest()


def ragged_digest(results, name):
    h = hashlib.sha256()
    for r in results:
        for draw in r.samples[name]:
            h.update(np.ascontiguousarray(draw.flat, dtype=np.float64).tobytes())
    return h.hexdigest()


def flat_state_cases():
    hlr = _hlr_inputs(german_credit_like(n=60, d=4))
    rng = np.random.default_rng(0)
    gmm = ({"K": 2, "N": 20, "mu_0": np.zeros(2), "Sigma_0": np.eye(2) * 4.0,
            "pis": np.full(2, 0.5), "Sigma": np.eye(2) * 0.5}, {"x": rng.normal(size=(20, 2))})
    exp_normal = ({"N": 6, "lam": 1.5}, {"y": rng.normal(size=6)})
    HLR_V = ("sigma2", "b", "theta")
    CASES = [
        ("hlr NUTS warmup", models.HLR, hlr, "NUTS (sigma2, b, theta)", HLR_V, dict(num_samples=20, warmup=40)),
        ("hlr HMC", models.HLR, hlr, "HMC[steps=10, step_size=0.02] (sigma2, b, theta)", HLR_V, dict(num_samples=30)),
        ("gmm HMC*Gibbs", models.GMM, gmm, "HMC[steps=3, step_size=0.05] mu (*) Gibbs z", ("mu", "z"), dict(num_samples=30)),
        ("exp_normal HMC", models.EXP_NORMAL, exp_normal, "HMC[steps=10, step_size=0.2] v", ("v",), dict(num_samples=60)),
    ]
    for label, src, (hy, da), sched, names, kw in CASES:
        s = compile_model(src, hy, da, schedule=sched)
        for executor in ("sequential", "processes"):
            res = s.sample_chains(2, seed=5, executor=executor, n_workers=2, **kw)
            print(f"{label:16s} {executor:10s} {digest(res, names)}")
    gpu = compile_model(models.HLR, *hlr, schedule="HMC[steps=10, step_size=0.02] (sigma2, b, theta)",
                        options=CompileOptions(target="gpu"))
    res = gpu.sample(num_samples=15, seed=3)
    print(f"{'hlr HMC gpu':16s} {'sequential':10s} {digest([res], HLR_V)} device_s={gpu.device.elapsed!r}")


def grouped_means_cases():
    for n, j in ((2000, 4), (500, 20)):
        rng = np.random.default_rng(n + j)
        y = rng.normal(0.0, 5.0, size=n)[:, None] + rng.normal(size=(n, j))
        hypers = {"N": n, "J": j, "v0": 25.0, "v": 1.0}
        for sched in ("Gibbs mu", "MH mu"):
            s = compile_model(GROUPED_MEANS, hypers, {"y": y}, schedule=sched)
            for executor in ("sequential", "processes"):
                res = s.sample_chains(2, num_samples=20, seed=5,
                                      executor=executor, n_workers=2)
                label = f"grouped {n}x{j} {sched}"
                print(f"{label:25s} {executor:10s} {digest(res, ('mu',))}")


def ragged_nuts_cases():
    rng = np.random.default_rng(0)
    lengths = rng.integers(1, 30, size=200)
    hypers = {"D": 200, "L": lengths, "v0": 4.0, "v": 1.0}
    data = {"y": RaggedArray.from_rows([rng.normal(size=k) for k in lengths])}
    for path, options in (
        ("fused", CompileOptions()),
        ("gpu", CompileOptions(target="gpu")),
    ):
        label = f"ragged D=200 NUTS {path}"
        try:
            s = compile_model(RAGGED_ELEMENTS, hypers, data, schedule="NUTS t",
                              options=options)
            res = s.sample(num_samples=20, seed=3, warmup=30)
        except Exception as exc:  # the report shows which path fails
            print(f"{label:25s} {'sequential':10s} {type(exc).__name__}: {exc}")
            continue
        extra = f" device_s={s.device.elapsed!r}" if path == "gpu" else ""
        print(f"{label:25s} {'sequential':10s} {ragged_digest([res], 't')}{extra}")


def main() -> None:
    flat_state_cases()
    grouped_means_cases()
    ragged_nuts_cases()


if __name__ == "__main__":
    main()
