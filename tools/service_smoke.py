#!/usr/bin/env python
"""CI smoke test for the inference service.

Starts ``repro serve`` as a subprocess, then checks the three
behaviours the service exists for:

1. Two identical requests: the second must be a compile-cache hit
   (verified from the response's ledger excerpt) and, on the process
   executor, land on the same warm-pool worker pids.
2. A deadline-limited request: returns a partial-but-valid result
   (``stopped_early`` + checkpoint) within the budget plus slack.
3. Resuming the deadline-limited request by id: completes it and the
   finished draws match a never-interrupted reference bitwise.

Plus warmup-through-deadline resume (4), schedule tuning (5), an
online R-hat target whose stop agrees with the verdict (6), and the
observability stack (7): the Prometheus exposition parses and counts
requests, the structured event log correlates one request id across
parent and worker pids, and killed/failed requests dump
flight-recorder post-mortem artifacts.

Leaves the per-request reports, the event log, and any flight-recorder
post-mortems on disk for CI upload.

Usage: PYTHONPATH=src python tools/service_smoke.py [--artifact-dir DIR]
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

MODEL = """
(K : int, N : int, mu_0 : real, v_0 : real, v : real) => {
  param mu ~ Normal(mu_0, v_0) ;
  data y[N] : real ;
  y[i] ~ Normal(mu, v) for i <- 0 until N ;
}
"""


def wait_for_port(proc) -> int:
    """Read the announced port off the server's first stdout line."""
    deadline = time.monotonic() + 60
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "serving on" in line:
            return int(line.rsplit(":", 1)[1])
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    raise SystemExit(f"server did not announce a port (last line: {line!r})")


def call(port, method, path, body=None, timeout=120):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            method, path, body=json.dumps(body) if body is not None else None
        )
        resp = conn.getresponse()
        data = resp.read()
    finally:
        conn.close()
    if resp.headers.get("Content-Type", "").startswith("application/json"):
        return resp.status, json.loads(data)
    return resp.status, data


def model_source():
    try:
        from repro.eval import models

        return models.NORMAL_NORMAL
    except Exception:
        return MODEL


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--artifact-dir", default="SERVICE_artifacts")
    args = parser.parse_args()
    os.makedirs(args.artifact_dir, exist_ok=True)

    rng = np.random.default_rng(0)
    data = {
        "N": 40, "mu_0": 0.0, "v_0": 25.0, "v": 1.0,
        "y": rng.normal(2.0, 1.0, size=40).tolist(),
    }
    executor = "processes" if (os.cpu_count() or 1) >= 2 else "sequential"
    payload = {
        "model_source": model_source(),
        "data": data,
        "query": {
            "samples": 200, "chains": 2, "seed": 7, "chunk_size": 25,
            "executor": executor,
        },
    }

    ckpt_dir = tempfile.mkdtemp(prefix="repro-smoke-ckpt-")
    log_path = os.path.join(args.artifact_dir, "SERVICE_events.jsonl")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--checkpoint-dir", ckpt_dir,
            "--artifact-dir", args.artifact_dir,
            "--log-json", log_path, "--log-level", "debug",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    try:
        port = wait_for_port(server)
        print(f"service up on port {port} (executor={executor})")

        # 1. Identical requests: second is a compile-cache hit.
        status, first = call(
            port, "POST", "/v1/infer", dict(payload, request_id="warm-1")
        )
        assert status == 200 and first["complete"], first
        status, second = call(
            port, "POST", "/v1/infer", dict(payload, request_id="warm-2")
        )
        assert status == 200, second
        assert second["cache"]["compile_cache_hit"], (
            "second identical request recompiled"
        )
        ledger = second["cache"]["ledger"]
        assert any(e["choice"] == "hit" for e in ledger), ledger
        if executor == "processes":
            assert (
                second["cache"]["pool_pids"] == first["cache"]["pool_pids"]
            ), "worker pool was respawned between identical requests"
        print(
            "compile cache: second request hit "
            f"(pids {second['cache'].get('pool_pids')})"
        )

        # 2. Deadline-limited request: partial result inside budget+slack.
        deadline_s = 0.05
        big = dict(payload, request_id="deadline-1")
        big["query"] = dict(
            payload["query"], samples=2_000_000, chunk_size=200,
            executor="sequential",
        )
        big["budget"] = {"deadline_s": deadline_s}
        t0 = time.monotonic()
        status, partial = call(port, "POST", "/v1/infer", big)
        elapsed = time.monotonic() - t0
        assert status == 200, partial
        assert partial["stopped_early"] and partial["stop_reason"] == "deadline"
        assert partial["checkpointed"], partial
        sampling_s = partial["timing"]["sampling_s"]
        slack = deadline_s * 1.1 + 0.5  # chunk-boundary + scheduling slack
        assert sampling_s <= slack, (
            f"deadline {deadline_s}s but sampled for {sampling_s:.3f}s"
        )
        print(
            f"deadline: kept {partial['draws']['kept']} draws, "
            f"sampling {sampling_s*1e3:.0f} ms "
            f"(budget {deadline_s*1e3:.0f} ms, wall {elapsed:.2f} s)"
        )

        # 3. Bitwise resume: finish a budget-capped request and compare
        # against a never-interrupted run of the same seed.  The
        # reference returns its draws from the host's executor (the
        # pool on a multi-CPU host).  The capped legs run sequentially:
        # on the pool both chains can finish before the 60-draw budget
        # lands, leaving nothing to resume.  The bitwise comparison
        # then also covers cross-executor parity.
        ref = dict(payload, return_draws=True)
        status, reference = call(port, "POST", "/v1/infer", ref)
        assert status == 200, reference
        capped = dict(payload, request_id="resume-1")
        capped["query"] = dict(payload["query"], executor="sequential")
        capped["budget"] = {"max_draws": 60}
        status, leg1 = call(port, "POST", "/v1/infer", capped)
        assert status == 200 and leg1["stop_reason"] == "draw_budget", leg1
        assert leg1["checkpointed"], leg1
        del capped["budget"]
        capped["return_draws"] = True
        status, leg2 = call(port, "POST", "/v1/infer", capped)
        assert status == 200 and leg2["complete"] and leg2["resumed"], leg2
        for chain_ref, chain_res in zip(
            reference["draws_data"], leg2["draws_data"]
        ):
            for name in chain_ref:
                np.testing.assert_array_equal(
                    np.asarray(chain_res[name]), np.asarray(chain_ref[name])
                )
        print("resume: draws bitwise-identical to uninterrupted run")

        # 4. Adaptive warmup through the deadline/checkpoint machinery:
        # a NUTS request with warmup exhausts its deadline mid-warmup
        # (zero kept draws), checkpoints the adaptation state, and the
        # resumed leg finishes bitwise-identical to a never-interrupted
        # run of the same geometry.
        nuts_query = dict(
            payload["query"], samples=40, chunk_size=5, seed=11,
            executor="sequential", schedule="NUTS mu",
            warmup=3000, target_accept=0.8,
        )
        nuts_ref = dict(payload, return_draws=True)
        nuts_ref["query"] = nuts_query
        status, nuts_reference = call(port, "POST", "/v1/infer", nuts_ref)
        assert status == 200 and nuts_reference["complete"], nuts_reference
        interrupted = dict(payload, request_id="adapt-1")
        interrupted["query"] = nuts_query
        interrupted["budget"] = {"deadline_s": 0.05}
        status, mid = call(port, "POST", "/v1/infer", interrupted)
        assert status == 200, mid
        assert mid["stopped_early"] and mid["stop_reason"] == "deadline", mid
        assert mid["checkpointed"], mid
        kept = mid["draws"]["kept"]
        kept_per_chain = kept if isinstance(kept, list) else [kept]
        assert all(k == 0 for k in kept_per_chain), (
            f"expected the deadline to land mid-warmup: {mid['draws']}"
        )
        resume_leg = dict(payload, request_id="adapt-1", return_draws=True)
        resume_leg["query"] = nuts_query
        status, done = call(port, "POST", "/v1/infer", resume_leg)
        assert status == 200 and done["complete"] and done["resumed"], done
        for chain_ref, chain_res in zip(
            nuts_reference["draws_data"], done["draws_data"]
        ):
            for name in chain_ref:
                np.testing.assert_array_equal(
                    np.asarray(chain_res[name]), np.asarray(chain_ref[name])
                )
        print(
            "adaptive warmup: deadline landed mid-warmup, "
            "resumed draws bitwise-identical"
        )

        # 5. Per-request schedule tuning: two identical tuned requests;
        # the first runs the race (its Gibbs schedule has no gradient
        # block, so no trial), the second must be answered from the
        # shape-keyed verdict cache.
        tuned = dict(payload, request_id="tuned-1")
        tuned["query"] = dict(
            payload["query"], samples=40, executor="sequential", tune=True,
        )
        status, tuned_1 = call(port, "POST", "/v1/infer", tuned)
        assert status == 200 and tuned_1["complete"], tuned_1
        assert tuned_1["tuning"]["cache"] == "miss", tuned_1["tuning"]
        tuned["request_id"] = "tuned-2"
        status, tuned_2 = call(port, "POST", "/v1/infer", tuned)
        assert status == 200, tuned_2
        assert tuned_2["tuning"]["cache"] == "hit", (
            "second identical tuned request re-ran the tournament"
        )
        assert tuned_2["cache"]["tuning_cache_hit"], tuned_2["cache"]
        assert tuned_2["tuning"]["schedule"] == tuned_1["tuning"]["schedule"]
        print(
            "schedule tuning: winner "
            f"{tuned_1['tuning']['schedule']!r} "
            f"(margin {tuned_1['tuning']['margin']:+.1%}), "
            "second request hit the verdict cache"
        )

        # 6. Online R-hat target: the monitor judges the stored draws
        # with the summary's estimator, so sequentially a converged stop
        # reads verdict converged and the two R-hats agree.
        target = dict(payload, request_id="target-1")
        target["query"] = dict(
            payload["query"], samples=400, chunk_size=10,
            executor="sequential",
        )
        target["budget"] = {"target_rhat": 1.01}
        status, judged = call(port, "POST", "/v1/infer", target)
        assert status == 200, judged
        if judged["stop_reason"] == "converged":
            assert judged["verdict"] == "converged", judged["verdict"]
        summary_worst = [
            e["worst_rhat"] for e in judged["summary"].values()
            if "worst_rhat" in e
        ]
        assert judged["monitor"]["worst_rhat"] == (
            None if None in summary_worst else max(summary_worst)
        ), (judged["monitor"], judged["summary"])
        print(
            f"target_rhat: stop {judged['stop_reason']}, verdict "
            f"{judged['verdict']}, kept {judged['draws']['kept']}, "
            f"R-hat {judged['monitor']['worst_rhat']}"
        )

        # 7. Observability: the Prometheus exposition, the correlated
        # event log, and the flight recorder's post-mortem artifacts.
        flight = dict(payload, request_id="flight-1")
        flight["query"] = dict(
            payload["query"], samples=2_000_000, chunk_size=200,
        )
        flight["budget"] = {"deadline_s": 0.05}
        status, killed = call(port, "POST", "/v1/infer", flight)
        assert status == 200 and killed["stop_reason"] == "deadline", killed

        broken = dict(payload, request_id="broken-1")
        broken["model_source"] = "this is not a model"
        status, err = call(port, "POST", "/v1/infer", broken)
        assert status == 400, err

        status, prom = call(port, "GET", "/v1/metrics?format=prometheus")
        assert status == 200 and isinstance(prom, bytes), type(prom)
        text = prom.decode()
        assert text.endswith("# EOF\n"), "exposition must end with # EOF"
        lines = text.splitlines()

        def sample_value(name):
            for line in lines:
                if line.startswith(name + " "):
                    return float(line.split()[-1])
            raise AssertionError(f"{name} missing from the exposition")

        assert sample_value("repro_requests_total") > 0
        assert sample_value("repro_request_errors_total") >= 1
        assert sample_value("repro_flight_dumps_total") >= 2
        bucket_families = {
            line.split("_bucket{", 1)[0] for line in lines
            if "_bucket{" in line
        }
        assert len(bucket_families) >= 4, bucket_families

        from glob import glob

        dumps = glob(os.path.join(args.artifact_dir, "*.flight.json"))
        assert len(dumps) >= 2, dumps
        killed_dump = next(
            d for d in dumps
            if os.path.basename(d).startswith("flight-1")
        )
        doc = json.load(open(killed_dump))
        assert doc["reason"] == "deadline" and doc["entries"], doc["reason"]
        assert {e["rid"] for e in doc["events"]} == {"flight-1"}
        dump_pids = {e["pid"] for e in doc["events"]}
        if executor == "processes":
            assert len(dump_pids) >= 2, (
                f"expected parent + worker pids in the trail: {dump_pids}"
            )
        err_dump = next(
            d for d in dumps
            if os.path.basename(d).startswith("broken-1")
        )
        doc = json.load(open(err_dump))
        assert doc["reason"] == "error" and doc["error"]["traceback"]

        with open(log_path) as f:
            records = [json.loads(line) for line in f]
        flight_recs = [r for r in records if r.get("rid") == "flight-1"]
        assert flight_recs, "the event log must carry the request's events"
        log_pids = {r["pid"] for r in flight_recs}
        if executor == "processes":
            assert len(log_pids) >= 2, (
                f"one grep for the rid should span processes: {log_pids}"
            )
        print(
            f"observability: {len(bucket_families)} histogram families, "
            f"{len(dumps)} flight dumps, rid 'flight-1' spans "
            f"{len(log_pids)} pid(s) in {len(flight_recs)} events"
        )

        # Artifacts + metrics sanity.
        status, report = call(port, "GET", "/v1/report/warm-1")
        assert status == 200 and report.lstrip().startswith(b"<!DOCTYPE html>")
        status, metrics = call(port, "GET", "/v1/metrics")
        assert metrics["requests"] >= 8
        assert metrics["errors"] >= 1
        assert metrics["flight_dumps"] >= 2
        assert any(
            e["request_id"] == "broken-1" for e in metrics["recent_errors"]
        )
        assert metrics["compile_cache"]["hits"] >= 4
        assert metrics["stops"]["deadline"] >= 1
        assert metrics["tuning_cache"]["requests"] >= 2
        assert metrics["tuning_cache"]["hits"] >= 1
        with open(
            os.path.join(args.artifact_dir, "SERVICE_metrics.json"), "w"
        ) as f:
            json.dump(metrics, f, indent=2)
        print(
            f"metrics: {metrics['requests']} requests, "
            f"{metrics['compile_cache']['hits']} cache hits, "
            f"{metrics['sweeps_per_s']:.0f} sweeps/s"
        )

        status, _ = call(port, "POST", "/v1/shutdown")
        assert status == 200
        server.wait(timeout=30)
        print("service smoke: OK")
        return 0
    finally:
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        else:
            sys.stdout.write(server.stdout.read() or "")
        shutil.rmtree(ckpt_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
