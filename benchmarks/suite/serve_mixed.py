"""The mixed service load: ``python -m repro serve`` under an open loop,
then a closed loop.

One process generates the load over one connection.  Phase 1 is an
open loop: requests are due at a fixed rate (:data:`RATE`) whatever the
server does, and each request's latency runs from when it was due, so a
stall is charged to every request it delays.  Phase 2 is a closed loop that
sends a fixed number of operations back to back, which measures
capacity.

Two connections would let a GMM request fork a new warm pool while
another request holds the ``multiprocessing`` resource-tracker lock;
the forked worker inherits the held lock and deadlocks on its first
shared-memory attach (Python < 3.13), and the request never answers.

The request mix comes in blocks with fixed class shares; the seed draws
the order inside a block and the data.  The shares are chosen, not
measured: nothing in the repository records real traffic.

- ``repeat`` (45%): NORMAL_NORMAL on the sequential executor or, every
  other one, a one-chain GMM on the process pool, drawing from four
  fixed datasets -- compile cache hits and warm-pool reuse.
- ``fresh`` (30%): the same models on new data.  The compile cache key
  hashes data values, so these miss; under ``processes`` they also spawn
  a new warm pool and evict an old one.
- ``novel`` (10%): an unrolled HMM of 10-30 steps, 20 draws -- dominated
  by compilation, which grows with the number of declarations.
- ``resume`` (10%): a ``max_draws`` leg that checkpoints, then a resume
  leg that completes -- checkpoint save, load and delete.
- ``tuned`` (5%): ``"tune": true`` on a fixed shape -- verdict-cache hits.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from benchmarks.suite import batch, stats
from benchmarks.suite.batch import metric

CLASSES = (
    ("repeat", 0.45), ("fresh", 0.30), ("novel", 0.10),
    ("resume", 0.10), ("tuned", 0.05),
)
#: Open-loop arrival rate, operations per second: about a third of the
#: closed loop's capacity for this mix on the reference host (median
#: 31 operations/s over ten seeds; README.md).  At 21/s, 0.7 of it, the
#: host's slow spells pushed the load past capacity: the generator fell
#: up to 1.1 s behind and ``latency_ms`` spread 100% over five seeds.
RATE = 10.0
#: Latency limit for ``serve.slo_attainment``.
SLO_S = 0.5
#: The open loop takes this share of ``--seconds``, in whole blocks
#: (120 operations at 16 s), and sends at least MIN_OPEN operations so
#: its 90th percentile has ten samples beyond it.
OPEN_SHARE = 0.75
MIN_OPEN = 100
#: Closed-loop blocks per second of ``--seconds``: a fixed amount of
#: work in whole blocks, so its composition never depends on how far a
#: time limit got (6 blocks, about 4 s on the reference host at 16 s).
CLOSED_BLOCKS_PER_S = 0.4
REQUEST_TIMEOUT_S = 60.0

NN_N, NN_SAMPLES = 50, 500
GMM_N, GMM_SAMPLES, GMM_BURN = 200, 100, 20
HMM_SAMPLES = 20
#: Operations per stratified block of the mix.
BLOCK = 20


# ----------------------------------------------------------------------
# The server under test.
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve`` process.  It stays in the benchmark's process
    group, so the group kill that ends a benchmark run also reaches any
    warm-pool worker a crashed server leaves behind."""

    def __init__(self, workdir: str, tag: str, log_path: str | None = None):
        os.makedirs(workdir, exist_ok=True)
        cmd = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--checkpoint-dir", os.path.join(workdir, "ckpt"),
        ]
        if log_path is not None:
            cmd += ["--log-json", log_path, "--log-level", "info"]
        self._out = os.path.join(workdir, f"server-{tag}.out")
        with open(self._out, "w") as out:
            self.proc = subprocess.Popen(cmd, stdout=out, stdin=subprocess.DEVNULL)
        self.maxrss_mb = None
        try:
            self.port = self._wait_port()
        except BaseException:
            self.close()
            raise

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self._out) as f:
                for line in f:
                    if line.startswith("serving on "):
                        return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before "
                    "announcing a port")
            time.sleep(0.01)
        raise RuntimeError("server did not announce a port")

    def call(self, method: str, path: str, body=None):
        """``(status, decoded JSON or None)``; connection errors raise."""
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request(method, path,
                         body=json.dumps(body) if body is not None else None)
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        try:
            return resp.status, json.loads(data)
        except ValueError:
            return resp.status, None

    def close(self) -> None:
        """Ask for a graceful stop (which also stops the server's worker
        pools), kill it if that takes too long, and reap it; records the
        server's peak RSS."""
        if self.proc.returncode is not None:
            return
        try:
            self.call("POST", "/v1/shutdown")
        except (OSError, http.client.HTTPException):
            pass
        deadline = time.monotonic() + 30.0
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.maxrss_mb = usage.ru_maxrss / 1024.0
                return
            if time.monotonic() > deadline:
                self.proc.kill()
                deadline = math.inf
            time.sleep(0.02)


# ----------------------------------------------------------------------
# The request mix.
# ----------------------------------------------------------------------


@dataclass
class Op:
    """One client operation: one request, or two for ``resume``."""

    cls: str
    model: str
    bodies: list
    #: Analytic posterior ``(mean, sd)`` of ``mu`` for NORMAL_NORMAL.
    posterior: tuple | None = None


def _nn_data(rng) -> tuple[dict, tuple]:
    y = rng.normal(rng.normal(0.0, 3.0), 1.0, NN_N)
    mu0, v0, v = 0.0, 25.0, 1.0
    prec = 1.0 / v0 + NN_N / v
    post = ((mu0 / v0 + y.sum() / v) / prec, math.sqrt(1.0 / prec))
    data = {"N": NN_N, "mu_0": mu0, "v_0": v0, "v": v, "y": y.tolist()}
    return data, post


def _gmm_data(rng) -> dict:
    centres = np.array([[-4.0, 0.0], [4.0, 0.0]]) + rng.normal(0.0, 0.5, 2)
    z = rng.integers(0, 2, GMM_N)
    x = centres[z] + rng.normal(0.0, 0.5, (GMM_N, 2))
    return {
        "K": 2, "N": GMM_N, "mu_0": [0.0, 0.0],
        "Sigma_0": (np.eye(2) * 25.0).tolist(), "pis": [0.5, 0.5],
        "Sigma": (np.eye(2) * 0.25).tolist(), "x": x.tolist(),
    }


def _hmm_data(rng, steps: int) -> dict:
    data = {
        "pi0": [0.5, 0.5], "trans": [[0.9, 0.1], [0.1, 0.9]],
        "means": [-1.0, 1.0], "v": 0.5,
    }
    for t in range(steps):
        data[f"y{t}"] = float(rng.normal(rng.choice([-1.0, 1.0]), 0.7))
    return data


class Mix:
    """Builds operations from a seeded stream; the four ``repeat``
    datasets are fixed per seed."""

    def __init__(self, seed: int):
        from repro.eval import models

        self.models = models
        self.rng = np.random.default_rng(seed)
        self.fixed_nn = [_nn_data(self.rng) for _ in range(2)]
        self.fixed_gmm = [_gmm_data(self.rng) for _ in range(2)]
        self._ids = 0
        self._novel = 0

    def _id(self, cls: str) -> str:
        self._ids += 1
        return f"{cls}-{self._ids}"

    def _seed(self) -> int:
        return int(self.rng.integers(2**31))

    def nn(self, cls: str, dataset=None, **query) -> Op:
        data, post = dataset or _nn_data(self.rng)
        body = {
            "request_id": self._id(cls),
            "model_source": self.models.NORMAL_NORMAL, "data": data,
            "query": dict(samples=NN_SAMPLES, seed=self._seed(), **query),
            "return_draws": True,
        }
        return Op(cls, "nn", [body], post)

    def gmm(self, cls: str, data=None) -> Op:
        # No return_draws: returning draws from a process-pool request
        # crashes the server (the draws are views of a shared-memory
        # segment that is gone by the time the response is encoded).
        # One chain, so one pool worker: with two, a request waits for
        # the slower of the host's two vCPUs, and ``latency_ms`` spread
        # 13.5% over ten seeds, against 7.5% with one.
        body = {
            "request_id": self._id(cls),
            "model_source": self.models.GMM,
            "data": data if data is not None else _gmm_data(self.rng),
            "query": {
                "samples": GMM_SAMPLES, "burn_in": GMM_BURN, "chains": 1,
                "executor": "processes", "collect": ["mu"],
                "seed": self._seed(),
            },
        }
        return Op(cls, "gmm", [body])

    def op(self, cls: str, model: str, arg: int) -> Op:
        """One operation; ``arg`` picks the fixed dataset, or the number
        of steps of a ``novel`` HMM."""
        if model == "hmm":
            from repro.eval.models import make_unrolled_hmm

            body = {
                "request_id": self._id(cls),
                "model_source": make_unrolled_hmm(arg),
                "data": _hmm_data(self.rng, arg),
                "query": {"samples": HMM_SAMPLES, "seed": self._seed()},
            }
            return Op(cls, "hmm", [body])
        if cls == "resume":
            op = self.nn(cls, self.fixed_nn[arg])
            first = dict(op.bodies[0], return_draws=False,
                         budget={"max_draws": NN_SAMPLES // 2})
            op.bodies = [first, op.bodies[0]]
            return op
        if cls == "tuned":
            return self.nn(cls, self.fixed_nn[arg], tune=True)
        fixed = cls == "repeat"
        if model == "nn":
            return self.nn(cls, self.fixed_nn[arg] if fixed else None)
        return self.gmm(cls, self.fixed_gmm[arg] if fixed else None)

    def sequence(self, n: int) -> list[Op]:
        """``n`` operations in seeded order, built in blocks of
        :data:`BLOCK`.  Within a block the class counts match the shares
        (largest remainder); ``repeat`` and ``fresh`` alternate between
        NORMAL_NORMAL and GMM, and the dataset picks alternate too; HMM
        lengths walk over 10-30 in a fixed order.  Two seeds therefore
        differ in order and data but not in composition."""
        raw = [share * BLOCK for _, share in CLASSES]
        counts = [int(r) for r in raw]
        by_remainder = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
        for i in by_remainder[: BLOCK - sum(counts)]:
            counts[i] += 1
        block = []
        for (cls, _), k in zip(CLASSES, counts):
            if cls in ("repeat", "fresh"):
                block += [(cls, ("nn", "gmm")[i % 2], (i // 2) % 2)
                          for i in range(k)]
            else:
                model = "hmm" if cls == "novel" else "nn"
                block += [(cls, model, i % 2 if cls == "resume" else 0)
                          for i in range(k)]
        ops = []
        while len(ops) < n:
            for i in self.rng.permutation(len(block))[: n - len(ops)]:
                cls, model, arg = block[i]
                if model == "hmm":
                    arg = 10 + (self._novel * 8) % 21
                    self._novel += 1
                ops.append(self.op(cls, model, arg))
        return ops


# ----------------------------------------------------------------------
# Running operations.
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    op: Op
    due: float
    sent: float = 0.0
    done: float = 0.0
    statuses: list = field(default_factory=list)
    responses: list = field(default_factory=list)
    request_s: list = field(default_factory=list)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(s == 200 for s in self.statuses)


def _execute(server: Server, op: Op, due: float, recorder) -> Outcome:
    out = Outcome(op, due, sent=time.perf_counter())
    try:
        for body in op.bodies:
            t0 = time.perf_counter()
            status, payload = server.call("POST", "/v1/infer", body)
            dt = time.perf_counter() - t0
            out.statuses.append(status)
            out.responses.append(payload if isinstance(payload, dict) else {})
            out.request_s.append(dt)
            if recorder is not None:
                recorder.add("request", "serve", t0, dt, rid=body["request_id"],
                             cls=op.cls, status=status)
    except (OSError, http.client.HTTPException) as exc:
        out.error = f"{type(exc).__name__}: {exc}"
    out.done = time.perf_counter()
    return out


def open_loop(server, ops, recorder) -> list[Outcome]:
    """Send ``ops`` at :data:`RATE` per second.  A request that falls
    due while the connection is busy waits for it, but its latency still
    runs from its due time."""
    start = time.perf_counter() + 0.05
    outcomes = []
    for i, op in enumerate(ops):
        due = start + i / RATE
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        outcomes.append(_execute(server, op, due, recorder))
    return outcomes


def closed_loop(server, ops, recorder) -> list[Outcome]:
    """Send ``ops`` back to back, each as soon as the last is answered."""
    return [_execute(server, op, time.perf_counter(), recorder) for op in ops]


# ----------------------------------------------------------------------
# Checks and metrics.
# ----------------------------------------------------------------------


def _nn_z(op: Op, final: dict) -> float:
    """|z| of the pooled posterior mean against the analytic posterior,
    with the analytic sd over the number of draws (Gibbs on this model
    draws independently)."""
    comp = final["summary"]["mu"]["components"]["mu"]
    n = sum(final["draws"]["kept"])
    mean, sd = op.posterior
    return abs(comp["mean"] - mean) / (sd / math.sqrt(n))


def check(outcomes) -> tuple[list, int]:
    """Correctness checks over every operation; returns the checks and
    the number of failed operations."""
    failed = 0
    incomplete = unresumed = 0
    worst_z = 0.0
    for o in outcomes:
        if not o.ok:
            failed += 1
            continue
        final = o.responses[-1]
        if o.op.cls == "resume":
            first = o.responses[0]
            if first.get("complete") or not first.get("checkpointed"):
                unresumed += 1
            if not final.get("resumed"):
                unresumed += 1
        if not final.get("complete"):
            incomplete += 1
        if o.op.posterior is not None:
            worst_z = max(worst_z, _nn_z(o.op, final))
    n = len(outcomes)
    return [
        ("responses_ok", failed == 0, f"{n - failed}/{n} answered 200"),
        ("responses_complete", incomplete == 0, f"{incomplete} incomplete"),
        ("resume_legs", unresumed == 0, f"{unresumed} resume legs off"),
        ("conjugate_z", worst_z <= 5.0, f"max |z| = {worst_z:.2f}"),
    ], failed


def _ess(o: Outcome) -> float:
    """Bulk ESS of ``mu`` over the returned draws (NORMAL_NORMAL only)."""
    final = o.responses[-1]
    if o.op.model != "nn" or "draws_data" not in final:
        return 0.0
    chains = np.array([c["mu"] for c in final["draws_data"]], dtype=np.float64)
    return stats.ess_bulk(chains)


def _kept(o: Outcome) -> int:
    return sum(o.responses[-1].get("draws", {}).get("kept", []))


def _p50_ms(values) -> float:
    return stats.percentile(values, 50) * 1e3 if values else 0.0


def _kinds(outcomes) -> list[tuple]:
    """Request type of each operation: its class and model."""
    return [(o.op.cls, o.op.model) for o in outcomes]


def _service_rate(outcomes, amount) -> float:
    """``amount(outcome)`` summed over the answered operations, per
    second of serving them all with every request type at its fastest
    service time (send to last answer) in ``outcomes``."""
    durations = [o.done - o.sent for o in outcomes]
    service_s = len(outcomes) * stats.mix_min(durations, _kinds(outcomes))
    return stats.per_second(sum(amount(o) for o in outcomes if o.ok), service_s)


def measure_metrics(open_out, closed, all_out) -> dict:
    # The end-to-end timings take each request type's fastest operation,
    # as the batch workloads take their fastest repetition's speed: slow spells
    # of the host last seconds to minutes, and with medians (of types or
    # of closed-loop blocks) the rates of ten seeds spread 13-31%.
    due = [o.due for o in open_out]
    lat = stats.due_time_latencies(due, [o.done for o in open_out])
    lag = stats.due_time_latencies(due, [o.sent for o in open_out])
    measured = open_out + closed
    met = {
        "latency_ms": metric(stats.mix_min(lat, _kinds(open_out)) * 1e3, "ms"),
        "latency.samples": metric(len(lat), "count"),
        "serve.slo_attainment": metric(
            sum(1 for o, x in zip(open_out, lat) if o.ok and x <= SLO_S)
            / len(open_out), "ratio"),
        "loadgen.lag_ms_max": metric(max(lag) * 1e3, "ms"),
    }
    if stats.supported(len(lat), 90):
        met["latency_p90_ms"] = metric(stats.percentile(lat, 90) * 1e3, "ms")
        met["loadgen.lag_ms_p90"] = metric(stats.percentile(lag, 90) * 1e3, "ms")
    met.update({
        "draws_per_s": metric(_service_rate(measured, _kept), "1/s"),
        "ess_per_s": metric(_service_rate(measured, _ess), "1/s"),
        "serve.throughput_rps": metric(
            len(closed) / (closed[-1].done - closed[0].sent), "1/s"),
    })
    for cls, _ in CLASSES:
        xs = [x for o, x in zip(open_out, lat) if o.op.cls == cls]
        if xs:
            met[f"serve.latency_ms_p50.{cls}"] = metric(_p50_ms(xs), "ms")
    queue, sampling, overhead, transport, hit = [], [], [], [], []
    for o in open_out:
        if not o.ok:
            continue
        for resp, client_s in zip(o.responses, o.request_s):
            t = resp["timing"]
            queue.append(t["queue_wait_s"])
            sampling.append(t["sampling_s"])
            overhead.append(t["total_s"] - t["compile_s"] - t["sampling_s"])
            transport.append(client_s - t["queue_wait_s"] - t["total_s"])
    for o in all_out:
        for resp in o.responses:
            if resp.get("cache", {}).get("compile_cache_hit"):
                hit.append(resp["timing"]["compile_s"])
    met.update({
        "serve.queue_wait_ms_p50": metric(_p50_ms(queue), "ms"),
        "serve.sampling_ms_p50": metric(_p50_ms(sampling), "ms"),
        "serve.handler_overhead_ms_p50": metric(_p50_ms(overhead), "ms"),
        "serve.transport_ms_p50": metric(_p50_ms(transport), "ms"),
        "compile.hit_ms": metric(_p50_ms(hit), "ms"),
        "serve.errors": metric(
            sum(1 for o in all_out for s in o.statuses if s >= 400), "count"),
    })
    return met


# ----------------------------------------------------------------------
# The workload.
# ----------------------------------------------------------------------


def setup_launch(workdir: str, tag: str, mix: Mix) -> tuple[float, Server]:
    """Seconds from launching the server to its first answered request."""
    # Built without the mix's random stream, so the number of launches
    # does not change the requests that follow.
    body = {"model_source": mix.models.NORMAL_NORMAL,
            "data": mix.fixed_nn[0][0], "query": {"samples": NN_SAMPLES}}
    t0 = time.perf_counter()
    server = Server(workdir, tag)
    try:
        status, _ = server.call("POST", "/v1/infer", body)
        if status != 200:
            raise RuntimeError(f"first request answered {status}")
    except BaseException:
        server.close()
        raise
    return time.perf_counter() - t0, server


def run(seed: int, seconds: float, traced: bool, workdir: str,
        recorder, log) -> dict:
    mix = Mix(seed)
    metrics: dict = {}
    log_path = os.path.join(workdir, "events.jsonl") if traced else None
    if traced:
        server = Server(workdir, "traced", log_path=log_path)
    else:
        times = []
        for i in range(batch.SETUPS):
            t, server = setup_launch(workdir, str(i), mix)
            times.append(t)
            if i < batch.SETUPS - 1:
                server.close()
        metrics["setup_s"] = metric(statistics.median(times), "s")
        log(f"serve_mixed setup: {', '.join(f'{t:.3f}' for t in times)} s")
    try:
        warm = [mix.nn("warmup", d) for d in mix.fixed_nn]
        warm += [mix.gmm("warmup", d) for d in mix.fixed_gmm]
        warm.append(mix.nn("warmup", mix.fixed_nn[0], tune=True))
        warm_out = [_execute(server, op, time.perf_counter(), None) for op in warm]
        n_open = BLOCK * max(MIN_OPEN // BLOCK,
                             round(RATE * OPEN_SHARE * seconds / BLOCK))
        open_out = open_loop(server, mix.sequence(n_open), recorder)
        log(f"serve_mixed open loop: {n_open} operations at {RATE:g}/s")
        n_closed = BLOCK * max(1, round(CLOSED_BLOCKS_PER_S * seconds))
        t0 = time.perf_counter()
        closed = closed_loop(server, mix.sequence(n_closed), recorder)
        log(f"serve_mixed closed loop: {n_closed} operations in "
            f"{time.perf_counter() - t0:.2f} s")
        status, snap = server.call("GET", "/v1/metrics")
    finally:
        server.close()
    all_out = warm_out + open_out + closed
    checks, failed = check(all_out)
    metrics.update(measure_metrics(open_out, closed, all_out))
    if server.maxrss_mb is not None:
        metrics["peak_rss_mb"] = metric(server.maxrss_mb, "MB")
    if status == 200 and snap:
        cc, tc = snap["compile_cache"], snap["tuning_cache"]
        metrics.update({
            "compile.cache_hits": metric(cc["hits"], "count"),
            "compile.cache_misses": metric(cc["misses"], "count"),
            "serve.tune_cache_hits": metric(tc["hits"], "count"),
        })
    profile = None
    if traced:
        probe, profile = _layer_probe(seed, recorder, log)
        metrics.update(probe)
        _adopt_event_log(log_path, recorder)
    return {"metrics": metrics, "checks": checks, "profile": profile,
            "attempted": len(all_out), "failed": failed}


class GmmRequestShape(batch.BatchWorkload):
    """The ``fresh``/``repeat`` GMM request, run in-process by the layer
    probe through the same ``stream_chains`` call the server makes."""

    name = "serve_gmm"
    shape = batch.RunShape(n_chains=1, num_samples=GMM_SAMPLES,
                           burn_in=GMM_BURN, executor="processes",
                           n_workers=1, collect=("mu",))

    def build(self, seed):
        from repro.eval import models

        raw = _gmm_data(np.random.default_rng(seed))
        hypers = {k: np.asarray(v, dtype=np.float64) for k, v in raw.items()
                  if k not in ("K", "N", "x")}
        hypers.update(K=raw["K"], N=raw["N"])
        return batch.Problem(models.GMM, hypers, {"x": np.asarray(raw["x"])},
                             None, {})

    def ess_series(self, result):
        mu = np.asarray(result.samples["mu"], dtype=np.float64)
        return np.sort(mu[:, :, 0], axis=1)

    def reps(self, seconds):
        return 5


#: Per-layer rows the probe reports; compile cache rows and hit times
#: come from the server itself.
_PROBE_LAYERS = ("sampler.", "mcmc.", "chains.", "telemetry.")


def _layer_probe(seed, recorder, log) -> tuple[dict, list]:
    """Compile and sampler layers, measured in this process on the mix's
    own request shapes: the server reports no per-sweep or per-stage
    timing.  Compile rows come from a cold compile of the novel class's
    20-step HMM, sampler and chain rows from the GMM class's run on the
    process pool."""
    from repro.eval.models import make_unrolled_hmm

    out = batch.run(GmmRequestShape(), seed, 0.0, True, recorder, log)
    metrics = {k: v for k, v in out["metrics"].items()
               if k.startswith(_PROBE_LAYERS)}
    raw = _hmm_data(np.random.default_rng(seed), 20)
    hypers = {k: np.asarray(raw.pop(k), dtype=np.float64)
              for k in ("pi0", "trans", "means")}
    hypers["v"] = raw.pop("v")
    hmm = batch.Problem(make_unrolled_hmm(20), hypers, raw, None, {})
    _, compiled = batch.compile_problem(hmm, recorder, traced=True)
    metrics.update({k: v for k, v in compiled.items()
                    if k not in ("compile.hit_ms", "compile.cache_hits",
                                 "compile.cache_misses")})
    return metrics, out["profile"]


def _adopt_event_log(path, recorder) -> None:
    """The server's event log, as instants on the bench's clock."""
    if recorder is None or not os.path.exists(path):
        return
    offset = time.time() - time.perf_counter()
    with open(path) as f:
        for line in f:
            try:
                ev = json.loads(line)
            except ValueError:
                continue
            args = {k: v for k, v in ev.items()
                    if k not in ("ts", "event", "pid") and v is not None}
            recorder.instant(ev["event"], "serve.log", ev["ts"] - offset,
                             pid=ev["pid"], **args)
