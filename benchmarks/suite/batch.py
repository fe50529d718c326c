"""The batch workloads: one process compiles a model and samples it.

Each workload calls the public entry points only -- ``compile_model``
and ``CompiledSampler.stream_chains`` -- and times those calls from
outside.  Its measured phase is a number of repetitions of one short
sampling call: fresh chains on a chain seed of their own, or, after an
untimed burn-in, the same chains continued where the last repetition
stopped.  The number of repetitions follows from ``--seconds`` and the
repetition's duration on the reference host, so a run does the same
work on every commit.  The timings come from the run's fastest
repetition (see :func:`run`).

Why these three (see README.md for the numbers):

- ``hlr_nuts`` spends almost all its time on the gradient path: the
  fused ``ll_grad`` code, the flat-state leapfrog and NUTS tree, and
  warmup adaptation.  The chain engine does nothing here.
- ``hgmm_chains`` runs the Figure 11 model with all-Gibbs sweeps, four
  chains on a one-worker process pool: enumeration Gibbs plus the chain
  engine's pool dispatch, shared-memory draws and chunk shipping.  The
  gradient code does nothing here.
- ``grouped_gibbs`` is one scalar conjugate draw per group, driven from
  Python by the heuristic schedule: the element-parallel gap the paper
  is about.
"""

from __future__ import annotations

import gc
import math
import re
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from benchmarks.suite import stats

GROUPED_MODEL = """
(N, J, v0, v) => {
  param mu[n] ~ Normal(0.0, v0)
    for n <- 0 until N ;
  data y[n][j] ~ Normal(mu[n], v)
    for n <- 0 until N, j <- 0 until J ;
}
"""

#: Program tracer span name -> compile stage reported as
#: ``compile.<stage>_ms``.
COMPILE_STAGES = {
    "frontend.parse": "frontend",
    "frontend.analyze": "frontend",
    "density.extract": "density",
    "kernel.select": "kernel_select",
    "codegen.updates": "codegen",
    "codegen.verify": "verify",
    "backend.plan": "plan",
    "backend.emit": "emit",
    "backend.exec": "exec",
}
STAGE_NAMES = tuple(dict.fromkeys(COMPILE_STAGES.values()))

#: Bench-side thread ids for per-chain chunk spans in the trace.
CHAIN_TID_BASE = 1000

#: Cold starts (fresh interpreters, or server launches on serve_mixed)
#: whose median is ``setup_s``.
SETUPS = 7


@dataclass
class Problem:
    """Generated inputs plus the generator's truth for the checks."""

    source: str
    hypers: dict
    data: dict
    schedule: str | None
    truth: dict


@dataclass(frozen=True)
class RunShape:
    """One repetition's ``stream_chains`` arguments."""

    n_chains: int
    num_samples: int
    burn_in: int = 0
    warmup: int = 0
    executor: str = "sequential"
    n_workers: int | None = None
    collect: tuple | None = None


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _label(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text).strip("_")


class BatchWorkload:
    name = ""
    shape: RunShape
    #: Seconds one repetition takes on the reference host (2-vCPU Xeon,
    #: see README.md); sizes the repetition count from ``--seconds``.
    nominal_rep_s = 1.0
    #: Sweeps per chain run once, untimed, before the first repetition.
    #: With a lead-in every repetition continues the chains where the
    #: last one stopped; without one it starts fresh chains.
    lead_in = 0

    def build(self, seed: int) -> Problem:
        raise NotImplementedError

    def init(self, problem: Problem, sampler) -> dict | None:
        """A fixed starting state for every chain, or ``None`` to start
        from a prior draw."""
        return None

    def ess_series(self, result) -> np.ndarray:
        """``(draws, k)`` scalar series the ESS statistic is taken over."""
        raise NotImplementedError

    def ess_reduce(self, per_component: np.ndarray) -> float:
        # The mean over components: each one's ESS is capped at the draw
        # count, and most sit at the cap (the median did on hlr_nuts and
        # grouped_gibbs), so only the mean still moves with mixing.
        return float(np.mean(per_component))

    def check_rep(self, problem: Problem, results) -> list[tuple]:
        """``(name, ok, detail)`` correctness checks on one repetition."""
        return []

    def check_pooled(self, problem: Problem, series: np.ndarray,
                     reps: list) -> list[tuple]:
        """Checks over the whole run: ``series`` is the ESS series of
        every chain of every repetition, ``(chains, draws, k)``, and
        ``reps`` the repetitions' :class:`Rep` records."""
        return []

    def check_once(self, problem: Problem, sampler, seed: int) -> list[tuple]:
        """Checks run once, outside the timed phase."""
        return []

    def chain_seed(self, seed: int, r: int) -> int:
        """The chain seed of repetition ``r`` of the run for ``seed``."""
        return seed + r

    def work(self, rep: "Rep") -> float:
        """The work one repetition did, in units whose cost does not
        depend on the chain seed; repetitions differ in wall time by
        their work and by the host's speed, and :func:`run` separates
        the two."""
        return 1.0

    def reps(self, seconds: float) -> int:
        return max(2, round(seconds / self.nominal_rep_s))


class HlrNuts(BatchWorkload):
    name = "hlr_nuts"
    # A short adapted run: 60 warmup sweeps were enough for every seed
    # tried (no divergence, held-out fit as with 150), and short
    # repetitions let a run hold enough of them (see ``run``).
    shape = RunShape(n_chains=1, num_samples=30, warmup=60,
                     collect=("theta", "b"))
    nominal_rep_s = 1.7
    n, d, holdout = 4000, 48, 1000

    def build(self, seed):
        # One fixed dataset whatever the seed, as the paper's German
        # Credit data is.  The ESS depends on the dataset: drawing one
        # per seed spread it 5-10% between seeds, against 3% on one
        # dataset, and put ess_per_s past its bound.
        from repro.eval import models
        from repro.eval.datasets import german_credit_like

        ds = german_credit_like(n=self.n + self.holdout, d=self.d)
        x, y = ds.x[: self.n], ds.y[: self.n]
        return Problem(
            models.HLR,
            {"N": self.n, "D": self.d, "lam": 1.0, "x": x},
            {"y": y},
            "NUTS (sigma2, b, theta)",
            {"x": ds.x[self.n:], "y": ds.y[self.n:],
             "theta": ds.true_theta, "bias": ds.true_bias},
        )

    def init(self, problem, sampler):
        # Chains start at the prior mean: from some prior draws
        # (chain seed 4 on the default dataset) NUTS adaptation
        # collapses the step size to 0 and every draw diverges.
        return {"sigma2": 1.0, "b": 0.0, "theta": np.zeros(self.d)}

    def ess_series(self, result):
        # The minimum over the 48 components spread 70% between seeds
        # (77 to 184 effective draws of 600), too wide to gate anything.
        return np.asarray(result.samples["theta"], dtype=np.float64)

    def check_rep(self, problem, results):
        t = problem.truth
        out = []
        for r in results:
            theta = np.asarray(r.samples["theta"])
            b = np.asarray(r.samples["b"])
            post = float(np.mean([
                _bernoulli_loglik(t["x"], t["y"], theta[i], b[i])
                for i in range(len(b))
            ]))
            true = _bernoulli_loglik(t["x"], t["y"], t["theta"], t["bias"])
            # Calibrated on the reference host: the posterior trails the
            # generator's own theta by 12-20 nats (6-9%) on 1000 points.
            tol = 0.15 * abs(true)
            out.append(("holdout_logpred", post >= true - tol,
                        f"posterior {post:.1f} vs true {true:.1f} (tol {tol:.1f})"))
        return out

    def check_pooled(self, problem, series, reps):
        # Over the whole run: 1% of one repetition's 30 kept draws would
        # allow no divergence at all.
        div = sum(rep.divergences for rep in reps)
        kept = sum(rep.kept for rep in reps)
        return [("divergences", div <= 0.01 * kept,
                 f"{div} divergent of {kept} kept")]

    def chain_seed(self, seed, r):
        # The same chains whatever the seed.  NUTS work depends on the
        # chain seed: a repetition took 830 to 1370 gradient steps, so
        # nine repetitions on seeds ``seed + r`` did up to 8% more or
        # less work from one seed to the next, as much spread as a third
        # of the bound allows, before the host's own.
        return r

    def work(self, rep):
        # Gradient steps, warmup included: repetitions on different
        # chain seeds differ in them, and their wall times follow.
        return rep.leapfrogs_all


class HgmmChains(BatchWorkload):
    name = "hgmm_chains"
    # One pool worker: with two, each repetition waits for the slower of
    # the host's two vCPUs, and the fastest repetition of a run spread
    # 0.23 over ten seeds, against 0.07-0.09 for the single-process
    # workloads.  The chains still go through pool dispatch, shared
    # memory and chunk shipping, once per repetition.  20 burn-in sweeps
    # (the lead-in): after 5 or 10, some seeds' chains had not yet
    # repaired the redrawn labels.  Repetitions then continue the same
    # chains 10 sweeps at a time, short enough that a run of 16 s holds
    # more than 30 of them.
    shape = RunShape(n_chains=4, num_samples=10, executor="processes",
                     n_workers=1, collect=("pi", "mu"))
    lead_in = 20
    nominal_rep_s = 0.45
    k, d, n = 6, 4, 4000
    #: Share of the starting labels drawn at random instead of taken
    #: from the generator.
    relabel = 0.25
    #: Least distance between two generator centres (the within-cluster
    #: sd is 0.8).  The generator draws centres at random, and on seeds
    #: whose closest pair was 2.1-3.5 apart some chains had not found the
    #: clusters after 25 burn-in sweeps, and the checks failed.
    min_separation = 5.0

    def build(self, seed):
        from repro.eval import models
        from repro.eval.datasets import hgmm_synthetic
        from repro.eval.experiments.common import hgmm_hypers

        # Redraw, on seeds derived from this one, until the clusters are
        # well separated, as in the paper's synthetic HGMM data.
        for attempt in range(100):
            ds = hgmm_synthetic(k=self.k, d=self.d, n=self.n,
                                seed=seed * 100 + attempt, holdout_frac=0.0)
            gaps = np.linalg.norm(ds.mu[:, None] - ds.mu[None], axis=-1)
            if gaps[np.triu_indices(self.k, 1)].min() >= self.min_separation:
                break
        rng = np.random.default_rng([seed, 1])
        z0 = ds.z.copy()
        moved = rng.random(self.n) < self.relabel
        z0[moved] = rng.integers(0, self.k, int(moved.sum()))
        return Problem(
            models.HGMM,
            dict(hgmm_hypers(self.k, self.d), N=self.n),
            {"y": ds.y},
            None,
            {"mu": ds.mu, "z0": z0, "y": ds.y},
        )

    def init(self, problem, sampler):
        # Chains start from the generator's labels with a quarter of them
        # redrawn at random.  From a prior draw, all-Gibbs on six clusters
        # settles in a local mode (two true clusters merged) on most
        # seeds, and no chain engine work is worth timing on a run whose
        # answer is wrong.  The redrawn labels pull every starting mean
        # units away from its centre, so unless the z update repairs
        # them, aligned_mu fails.
        from repro.runtime.rng import Rng

        template = sampler.init_state(Rng(0))
        z, y = problem.truth["z0"], problem.truth["y"]
        counts = np.bincount(z, minlength=self.k)
        mu = np.stack([y[z == j].mean(axis=0) for j in range(self.k)])
        sigma = np.stack([
            np.cov(y[z == j].T) + 1e-6 * np.eye(self.d) for j in range(self.k)
        ])
        state = {"pi": counts / counts.sum(), "mu": mu, "Sigma": sigma, "z": z}
        return {
            name: np.asarray(state[name], dtype=np.asarray(v).dtype)
            for name, v in template.items()
        }

    def ess_series(self, result):
        # With well-separated clusters the sorted pi are drawn almost
        # independently, so most components sit at the draw count and
        # ess_per_s reads close to draws_per_s unless mixing gets worse.
        # The minimum over them moved with the estimator's own noise and
        # spread 12% over ten seeds.
        pi = np.asarray(result.samples["pi"], dtype=np.float64)
        return -np.sort(-pi, axis=1)

    def check_rep(self, problem, results):
        true = problem.truth["mu"]
        mus = np.stack([aligned_mu(r.samples["mu"], true) for r in results])
        err = float(np.abs(mus.mean(axis=(0, 1)) - true).max())
        return [("aligned_mu", err <= 0.25, f"max |mu - true| = {err:.3f}")]

    def check_pooled(self, problem, series, reps):
        # Each chain's series runs through every repetition.
        rhat = max(stats.split_rhat(series[:, :, j]) for j in range(series.shape[2]))
        return [("split_rhat", rhat <= 1.05, f"max split R-hat of sorted pi {rhat:.4f}")]

    def check_once(self, problem, sampler, seed):
        # A 20-draw prefix on the process pool must equal the same
        # prefix run in this process, bit for bit.
        init = self.init(problem, sampler)
        runs = {}
        for executor in ("sequential", "processes"):
            runs[executor] = sampler.stream_chains(
                2, num_samples=20, seed=seed, executor=executor, n_workers=2,
                resume=_resume_points(init, seed, 2),
            ).drain()
        same = all(
            np.array_equal(np.asarray(a.samples[name]), np.asarray(b.samples[name]))
            for a, b in zip(runs["sequential"], runs["processes"])
            for name in a.samples
        )
        return [("prefix_parity", same,
                 "processes == sequential" if same else "draws differ")]


class GroupedGibbs(BatchWorkload):
    name = "grouped_gibbs"
    shape = RunShape(n_chains=1, num_samples=50)
    nominal_rep_s = 0.7
    groups, obs, v0, v = 2000, 4, 25.0, 1.0

    def build(self, seed):
        rng = np.random.default_rng(seed)
        mu = rng.normal(0.0, math.sqrt(self.v0), size=self.groups)
        y = mu[:, None] + rng.normal(0.0, math.sqrt(self.v), (self.groups, self.obs))
        return Problem(
            GROUPED_MODEL,
            {"N": self.groups, "J": self.obs, "v0": self.v0, "v": self.v},
            {"y": y},
            None,
            {"y": y},
        )

    def ess_series(self, result):
        return np.asarray(result.samples["mu"], dtype=np.float64)

    def check_pooled(self, problem, series, reps):
        # Closed-form conjugate posterior per group; the draws of one
        # group are independent, so the sd of their mean is sd/sqrt(n).
        # Once over the whole run: each check of 2000 groups exceeds 5 by
        # chance with probability 1e-3.
        y = problem.truth["y"]
        prec = 1.0 / self.v0 + self.obs / self.v
        mean = y.sum(axis=1) / self.v / prec
        sd = math.sqrt(1.0 / prec)
        draws = series.reshape(-1, series.shape[-1])
        z = (draws.mean(axis=0) - mean) / (sd / math.sqrt(len(draws)))
        worst = float(np.abs(z).max())
        return [("conjugate_z", worst <= 5.0,
                 f"max |z| = {worst:.2f} over {len(draws)} draws")]


WORKLOADS = {w.name: w for w in (HlrNuts(), HgmmChains(), GroupedGibbs())}


def _bernoulli_loglik(x, y, theta, bias) -> float:
    logits = x @ np.asarray(theta, dtype=np.float64) + float(bias)
    return float(np.sum(y * logits - np.logaddexp(0.0, logits)))


def _divergent_kept(result) -> int:
    total = 0
    for label in result.stats.update_labels:
        cols = result.stats[label]
        if "divergent" in cols:
            total += int((cols["divergent"][result.stats.kept_slice] > 0).sum())
    return total


def aligned_mu(mu, centres) -> np.ndarray:
    """Per-draw cluster means relabelled to the closest assignment onto
    ``centres`` (undoes label switching)."""
    from scipy.optimize import linear_sum_assignment

    mu = np.asarray(mu, dtype=np.float64)
    out = np.empty_like(mu)
    for i, draw in enumerate(mu):
        cost = ((draw[:, None, :] - centres[None, :, :]) ** 2).sum(axis=-1)
        rows, cols = linear_sum_assignment(cost)
        out[i, cols] = draw[rows]
    return out


def _resume_points(init, seed, n_chains):
    """Start every chain from ``init`` on the streams ``stream_chains``
    would fork from ``seed``: a resume point at sweep 0 is the engine's
    way to take a starting state on every executor."""
    if init is None:
        return None
    from repro.core.chains import ChainResume
    from repro.runtime.rng import Rng

    return [
        ChainResume(init=init, rng_spec=rng.state_spec(),
                    start_sweep=0, start_kept=0)
        for rng in Rng(seed).fork(n_chains)
    ]


def _continued(results):
    """Resume points that pick every chain of ``results`` up where it
    stopped: its last state and its random stream's position."""
    from repro.core.chains import ChainResume

    return [
        ChainResume(init=r.final_state, rng_spec=r.rng_state,
                    start_sweep=0, start_kept=0)
        for r in results
    ]


# ----------------------------------------------------------------------
# Set-up probe (runs in a fresh interpreter).
# ----------------------------------------------------------------------


def setup_probe(name: str, seed: int) -> float:
    """Seconds from before ``import repro`` to the first completed sweep
    of the workload's run, excluding the benchmark's own input
    generation."""
    t0 = time.perf_counter()
    import repro

    t1 = time.perf_counter()
    wl = WORKLOADS[name]
    problem = wl.build(seed)
    t2 = time.perf_counter()
    sampler = repro.compile_model(
        problem.source, problem.hypers, problem.data, schedule=problem.schedule
    )
    shape = wl.shape
    chain_seed = wl.chain_seed(seed, 0)
    stream = sampler.stream_chains(
        shape.n_chains, num_samples=shape.num_samples, warmup=shape.warmup,
        seed=chain_seed, collect=shape.collect, executor=shape.executor,
        n_workers=shape.n_workers, chunk_size=1,
        resume=_resume_points(wl.init(problem, sampler), chain_seed,
                              shape.n_chains),
    )
    next(stream)
    t3 = time.perf_counter()
    stream.request_stop()
    stream.drain()
    return (t1 - t0) + (t3 - t2)


# ----------------------------------------------------------------------
# The measured phase.
# ----------------------------------------------------------------------


@dataclass
class Rep:
    """What one repetition leaves behind once its results are dropped."""

    wall: float
    first_chunk: float
    kept: int = 0
    sweep_ms: list = field(default_factory=list)
    chain_walls: list = field(default_factory=list)
    leapfrogs_kept: int = 0
    leapfrogs_all: int = 0
    divergences: int = 0
    unkept_s: float = 0.0
    sweep_s: float = 0.0
    profile_rows: list = field(default_factory=list)
    profile_sweeps: int = 0
    profile_sweep_s: float = 0.0
    ess_series: list = field(default_factory=list)


def _run_rep(wl, sampler, resume, seed, profile, recorder):
    shape = wl.shape
    t0 = time.perf_counter()
    stream = sampler.stream_chains(
        shape.n_chains, num_samples=shape.num_samples, burn_in=shape.burn_in,
        warmup=shape.warmup, seed=seed, collect=shape.collect,
        executor=shape.executor, n_workers=shape.n_workers,
        collect_stats=True, profile=profile, resume=resume,
    )
    first = None
    last = {}
    for chunk in stream:
        now = time.perf_counter()
        if first is None and chunk.stop > chunk.start:
            first = now - t0
        if recorder is not None:
            start = last.get(chunk.chain, t0)
            recorder.add("chunk", "chains", start, now - start,
                         tid=CHAIN_TID_BASE + chunk.chain, chain=chunk.chain,
                         start=chunk.start, stop=chunk.stop)
            last[chunk.chain] = now
    wall = time.perf_counter() - t0
    results = stream.results
    rep = Rep(wall, first if first is not None else wall)
    lead = shape.warmup + shape.burn_in
    for r in results:
        rep.kept += r.n_kept
        rep.sweep_ms.extend((r.sweep_times[lead:] * 1e3).tolist())
        rep.chain_walls.append(r.wall_time)
        rep.unkept_s += float(r.sweep_times[:lead].sum())
        rep.sweep_s += float(r.sweep_times.sum())
        for label in r.stats.update_labels:
            cols = r.stats[label]
            if "n_leapfrog" in cols:
                rep.leapfrogs_all += int(cols["n_leapfrog"].sum())
                rep.leapfrogs_kept += int(cols["n_leapfrog"][r.stats.kept_slice].sum())
        rep.divergences += _divergent_kept(r)
        if r.profile is not None:
            rep.profile_rows.extend(r.profile.updates)
            rep.profile_sweeps += r.profile.n_sweeps
            rep.profile_sweep_s += r.profile.sweep_seconds
        rep.ess_series.append(wl.ess_series(r).copy())
    return rep, results


def compile_problem(problem, recorder, traced):
    """Compile cold (cache cleared), then again for a cache hit; with
    ``traced`` also return the compile-layer metrics."""
    from repro.core.compiler import (
        clear_compile_cache,
        compile_cache_stats,
        compile_model,
    )
    from repro.telemetry.trace import enable_tracing, get_tracer

    if traced:
        enable_tracing(reset=False)
    clear_compile_cache()
    args = (problem.source, problem.hypers, problem.data)
    t0 = time.perf_counter()
    sampler = compile_model(*args, schedule=problem.schedule)
    cold = time.perf_counter() - t0
    t1 = time.perf_counter()
    compile_model(*args, schedule=problem.schedule)
    hit = time.perf_counter() - t1
    out = {}
    if recorder is not None:
        recorder.add("compile", "compiler", t0, cold, cache="miss")
        recorder.add("compile", "compiler", t1, hit, cache="hit")
    if traced:
        stages = dict.fromkeys(STAGE_NAMES, 0.0)
        for e in get_tracer().events:
            stage = COMPILE_STAGES.get(e.name)
            # The cold compile's stages only: the hit re-runs exec.
            if stage is not None and e.cat == "compile" and t0 <= e.ts < t1:
                stages[stage] += e.dur
        cache = compile_cache_stats()
        out.update({
            "compile.cold_ms": metric(cold * 1e3, "ms"),
            "compile.hit_ms": metric(hit * 1e3, "ms"),
            "compile.cache_hits": metric(cache.hits, "count"),
            "compile.cache_misses": metric(cache.misses, "count"),
            "compile.source_kb": metric(len(sampler.source) / 1024.0, "KiB"),
        })
        for stage, seconds in stages.items():
            out[f"compile.{stage}_ms"] = metric(seconds * 1e3, "ms")
    return sampler, out


def run(wl: BatchWorkload, seed: int, seconds: float, traced: bool,
        recorder, log):
    """Run one batch workload's measured phase; returns the metrics,
    checks and operation counts (set-up is measured by the caller)."""
    from repro.telemetry.trace import disable_tracing, enable_tracing

    name = wl.name
    problem = wl.build(seed)
    sampler, metrics = compile_problem(problem, recorder, traced)
    init = wl.init(problem, sampler)
    shape = wl.shape
    pool = None
    if shape.executor == "processes":
        from repro.core.chains import get_worker_pool

        t0 = time.perf_counter()
        pool = get_worker_pool(sampler.spec, shape.n_workers)
        spawn = time.perf_counter() - t0
        metrics["chains.spawn_ms"] = metric(spawn * 1e3, "ms")
        if recorder is not None:
            recorder.add("pool.spawn", "chains", t0, spawn)
        pids = pool.pids()

    n_reps = wl.reps(seconds)
    profile = None
    attempted = failed = 0
    checks = []
    reps: list[Rep] = []
    resume = None
    if wl.lead_in:
        chain_seed = wl.chain_seed(seed, 0)
        resume = _continued(sampler.stream_chains(
            shape.n_chains, num_samples=wl.lead_in, seed=chain_seed,
            collect=shape.collect, executor=shape.executor,
            n_workers=shape.n_workers,
            resume=_resume_points(init, chain_seed, shape.n_chains),
        ).drain())
    for r in range(n_reps):
        chain_seed = wl.chain_seed(seed, r)
        if not wl.lead_in:
            resume = _resume_points(init, chain_seed, shape.n_chains)
        attempted += shape.n_chains
        t0 = time.perf_counter()
        try:
            rep, results = _run_rep(wl, sampler, resume, chain_seed, traced, recorder)
        except Exception as exc:  # count it, keep measuring the rest
            failed += shape.n_chains
            log(f"{name} rep {r}: {type(exc).__name__}: {exc}")
            continue
        if recorder is not None:
            recorder.add("rep", "bench", t0, rep.wall, rep=r, seed=chain_seed)
        short = sum(1 for x in results if x is None or x.n_kept < shape.num_samples)
        failed += short
        checks.extend(wl.check_rep(problem, results))
        reps.append(rep)
        log(f"{name} rep {r + 1}/{n_reps}: {rep.kept} draws in {rep.wall:.3f} s")
        last = (resume, chain_seed)
        if wl.lead_in and not short:
            resume = _continued(results)
        del results
        gc.collect()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_wall = None
    if traced and reps:
        # Untraced reference for the tracing overhead: the last traced
        # repetition's work again, so both sides run warm.
        disable_tracing()
        ref, results = _run_rep(wl, sampler, *last, False, None)
        ref_wall = ref.wall
        del results
        enable_tracing(reset=False)
    respawned = 0 if pool is None else sum(
        a != b for a, b in zip(pids, pool.pids()))
    metrics["chains.pool_respawns"] = metric(respawned, "count")
    checks.extend(wl.check_once(problem, sampler, seed))
    if not reps:
        return {"metrics": metrics, "checks": checks,
                "attempted": attempted, "failed": failed}

    # Fresh chains are series of their own; continued chains run through
    # every repetition.
    series = np.concatenate(
        [np.stack(rep.ess_series) for rep in reps], axis=1 if wl.lead_in else 0
    )
    ess = wl.ess_reduce(np.atleast_1d(stats.ess_bulk(series)))
    checks.extend(wl.check_pooled(problem, series, reps))
    sweeps = [ms for rep in reps for ms in rep.sweep_ms]
    kept = sum(rep.kept for rep in reps)
    # Rates and latency time the run's work at its fastest repetition's
    # speed (work per second).  The host only ever adds time, in slow
    # spells of seconds to minutes, and with the median repetition the
    # rates of ten seeds spread up to 34% -- past any bound worth
    # setting; the fastest of many short repetitions spread far less
    # (README.md).
    speed = max(wl.work(rep) / rep.wall for rep in reps)
    span = sum(wl.work(rep) for rep in reps) / speed
    metrics.update({
        "draws_per_s": metric(stats.per_second(kept, span), "1/s"),
        "ess_per_s": metric(stats.per_second(ess, span), "1/s"),
        "latency_ms": metric(span / len(reps) * 1e3, "ms"),
        "latency.samples": metric(len(reps), "count"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "sampler.ess": metric(ess, "draws"),
        "sampler.sweep_ms_p50": metric(stats.percentile(sweeps, 50), "ms"),
        "sampler.sweep_ms_p90": metric(stats.percentile(sweeps, 90), "ms"),
        "sampler.sweeps": metric(len(sweeps), "count"),
    })
    sweep_s = sum(rep.sweep_s for rep in reps)
    # Chain i runs on worker i % workers (sequential: one "worker").
    workers = shape.n_workers or 1
    tails, busy = [], []
    for rep in reps:
        per_worker = [sum(rep.chain_walls[w::workers]) for w in range(workers)]
        tails.append(rep.wall - max(per_worker))
        busy.append(sum(rep.chain_walls) / (workers * rep.wall))
    metrics.update({
        "mcmc.leapfrogs_per_draw": metric(
            sum(rep.leapfrogs_kept for rep in reps) / kept, "count"),
        "mcmc.divergences": metric(sum(rep.divergences for rep in reps), "count"),
        "mcmc.leapfrogs_per_s": metric(
            sum(rep.leapfrogs_all for rep in reps) / sweep_s, "1/s"),
        "sampler.warmup_share": metric(
            sum(rep.unkept_s for rep in reps) / sweep_s, "ratio"),
        "chains.first_chunk_ms": metric(
            statistics.median([rep.first_chunk for rep in reps]) * 1e3, "ms"),
        "chains.tail_ms": metric(statistics.median(tails) * 1e3, "ms"),
        "chains.worker_busy_share": metric(statistics.median(busy), "ratio"),
    })
    if traced:
        profile_metrics, profile = _profile(reps)
        metrics.update(profile_metrics)
        metrics["telemetry.trace_overhead_pct"] = metric(
            (reps[-1].wall / ref_wall - 1.0) * 100.0, "%")
    return {"metrics": metrics, "checks": checks, "profile": profile,
            "attempted": attempted, "failed": failed}


def _profile(reps) -> tuple[dict, list]:
    """Per-update attribution from the sweep profiler, pooled over every
    chain of every repetition: the metrics, and one row per update for
    the trace file."""
    per_update: dict[str, float] = {}
    for rep in reps:
        for row in rep.profile_rows:
            per_update[row["name"]] = per_update.get(row["name"], 0.0) + row["seconds"]
    n_sweeps = sum(rep.profile_sweeps for rep in reps)
    sweep_s = sum(rep.profile_sweep_s for rep in reps)
    top = max(per_update, key=per_update.get)
    out = {
        "sampler.top_update_ms": metric(per_update[top] / n_sweeps * 1e3, "ms"),
        "sampler.top_update_share": metric(per_update[top] / sweep_s, "ratio"),
        "sampler.loop_overhead_ms": metric(
            (sweep_s - sum(per_update.values())) / n_sweeps * 1e3, "ms"),
    }
    rows = []
    for label, seconds in per_update.items():
        out[f"sampler.update_ms.{_label(label)}"] = metric(
            seconds / n_sweeps * 1e3, "ms")
        rows.append({"update": label, "seconds": seconds,
                     "ms_per_sweep": seconds / n_sweeps * 1e3,
                     "share": seconds / sweep_s})
    return out, rows

