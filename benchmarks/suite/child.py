"""One workload in a fresh interpreter (started by ``cli.py``).

``python -m benchmarks.suite.child run ...`` measures one workload and
writes its result JSON; ``python -m benchmarks.suite.child setup ...``
is one cold start of a batch workload and prints its set-up seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from benchmarks.suite import batch, serve_mixed
from benchmarks.suite.batch import metric
from benchmarks.suite.spans import SpanRecorder

SETUP_TIMEOUT_S = 60.0


def psm_segments() -> set[str]:
    """Shared-memory segments ``multiprocessing`` names ``psm_*``."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def log(msg: str) -> None:
    print(f"  {msg}", flush=True)


def batch_setup(name: str, seed: int) -> dict:
    """Median cold start over :data:`batch.SETUPS` fresh interpreters."""
    times = []
    for _ in range(batch.SETUPS):
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.suite.child", "setup",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    log(f"{name} setup: {', '.join(f'{t:.3f}' for t in times)} s")
    return {"setup_s": metric(statistics.median(times), "s")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="benchmarks.suite.child")
    p.add_argument("mode", choices=("run", "setup"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-file")
    p.add_argument("--workdir")
    p.add_argument("--result")
    args = p.parse_args(argv)

    if args.mode == "setup":
        print(f"{batch.setup_probe(args.workload, args.seed):.9f}")
        return 0

    traced = bool(args.trace)
    recorder = SpanRecorder() if traced else None
    shm_before = psm_segments()
    os.makedirs(args.workdir, exist_ok=True)
    t0 = time.perf_counter()
    try:
        if args.workload == "serve_mixed":
            out = serve_mixed.run(args.seed, args.seconds, traced,
                                  args.workdir, recorder, log)
        else:
            setup = {} if traced else batch_setup(args.workload, args.seed)
            out = batch.run(batch.WORKLOADS[args.workload], args.seed,
                            args.seconds, traced, recorder, log)
            out["metrics"].update(setup)
        from repro.core.chains import shutdown_worker_pools

        shutdown_worker_pools()
        gc.collect()
        out["metrics"]["chains.shm_leaked"] = metric(
            len(psm_segments() - shm_before), "count")
        out["wall_s"] = time.perf_counter() - t0
        out["checks"] = [(n, bool(ok), str(d)) for n, ok, d in out["checks"]]
        profile = out.pop("profile", None)
        if traced:
            from repro.telemetry.trace import get_tracer

            recorder.adopt_program(get_tracer().to_chrome())
            recorder.write(args.trace_file, {"workload": args.workload,
                                             "seed": args.seed,
                                             "profile": profile})
        with open(args.result, "w") as f:
            json.dump(out, f)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
