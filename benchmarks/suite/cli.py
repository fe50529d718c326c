"""Run the benchmark workloads and compare recorded runs.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py --workload hlr_nuts --seed 1
    python3 benchmarks/suite/run.py --workload all --seed 1 --trace 1
    python3 -m benchmarks.suite compare .bench_out/runs-a .bench_out/runs-b

A run starts every workload in a fresh interpreter (``child.py``),
prints every metric by name and unit, records the run as JSON under
``--out``, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and the ``end_to_end`` metrics of ``BENCHMARK.json`` (or,
with ``--trace 1``, its ``per_layer`` metrics).  It exits 1 when a
correctness check fails and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.suite import stats
from benchmarks.suite.batch import metric

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"
#: A run, with its set-up and checks, must end within 180 s; the child
#: is stopped after this long.
CHILD_LIMIT_S = 165.0
TRACKER_ERROR = "KeyError: '/psm_"


def load_spec() -> dict:
    with open(SPEC_PATH) as f:
        return json.load(f)


def kill_group(pgid: int, wait_s: float = 5.0) -> None:
    """SIGKILL whatever is left in a process group, then wait (bounded)
    until the group is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def run_workload(name: str, args, host: dict) -> dict | None:
    """One workload in a fresh interpreter; ``None`` if it crashed or
    ran out of time."""
    from benchmarks.suite.host import speed_probe_ms

    tag = f"{name}-s{args.seed}-{os.getpid()}"
    workdir = OUT_DIR / f"work-{tag}"
    result_path = OUT_DIR / f"child-{tag}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    cmd = [
        sys.executable, "-m", "benchmarks.suite.child", "run",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
        "--result", str(result_path),
    ]
    if args.trace:
        trace_file = OUT_DIR / f"trace-{name}-s{args.seed}.json"
        if args.trace_file:
            # One file per workload when a run covers several.
            path = Path(args.trace_file)
            trace_file = (path if args.workload == name
                          else path.with_name(f"{path.stem}-{name}{path.suffix}"))
        cmd += ["--trace-file", str(trace_file)]
    OUT_DIR.mkdir(exist_ok=True)
    probe_start = speed_probe_ms()
    print(f"workload {name} seed {args.seed} ({args.seconds:g} s, "
          f"trace {args.trace})", flush=True)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        _, err = proc.communicate()
        err += f"\nbenchmark: {name} stopped after {CHILD_LIMIT_S:g} s\n"
    finally:
        kill_group(proc.pid)
    sys.stderr.write(err)
    probe_end = speed_probe_ms()
    try:
        if proc.returncode != 0:
            return None
        with open(result_path) as f:
            result = json.load(f)
    finally:
        result_path.unlink(missing_ok=True)
    result["metrics"].update({
        "chains.tracker_errors": metric(err.count(TRACKER_ERROR), "count"),
        "host.speed_probe_ms": metric(probe_start, "ms"),
        "host.speed_probe_end_ms": metric(probe_end, "ms"),
    })
    result["correct"] = result["failed"] == 0 and all(c[1] for c in result["checks"])
    result.update(workload=name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, host=host)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{name}-s{args.seed}-t{args.trace}.json", "w") as f:
        json.dump(result, f, indent=1)
    return result


def print_result(result: dict, spec: dict) -> None:
    contract = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = result["metrics"]
    for section, names in (
        ("end-to-end", [m["name"] for m in spec["end_to_end"]]),
        ("per-layer", [m["name"] for m in spec["per_layer"]]),
        ("more", sorted(set(metrics) - contract)),
    ):
        shown = [n for n in names if n in metrics]
        if not shown:
            continue
        print(f"  {section}:")
        for n in shown:
            m = metrics[n]
            print(f"    {n:<34} {m['value']:>14.6g} {m['unit']}")
    groups: dict[str, list] = {}
    for name, ok, detail in result["checks"]:
        groups.setdefault(name, []).append((ok, detail))
    for name, items in groups.items():
        bad = [d for ok, d in items if not ok]
        status = "ok" if not bad else "FAILED"
        detail = bad[0] if bad else items[-1][1]
        print(f"  check {name}: {status} ({len(items) - len(bad)}/{len(items)}; {detail})")
    rate = result["failed"] / max(result["attempted"], 1)
    print(f"  operations: {result['attempted']} attempted, {result['failed']} "
          f"failed (error rate {rate:g})", flush=True)


def run_main(argv) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(prog="benchmarks.suite")
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="measured time per workload (default %(default)s)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report the per-layer metrics from a traced run")
    p.add_argument("--trace-file", help="Chrome trace path for --trace 1; "
                   "with --workload all, PATH gains a -<workload> suffix "
                   "(default .bench_out/trace-<workload>-s<seed>.json)")
    p.add_argument("--out", default=str(OUT_DIR / "runs"),
                   help="directory the run's JSON record is written to")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: no program to run ({ROOT / 'src' / 'repro'} "
              "is missing)", file=sys.stderr)
        return 2
    from benchmarks.suite.host import host_metadata

    host = host_metadata()
    print("host: " + " ".join(f"{k}={v!r}" for k, v in host.items()), flush=True)
    selected = spec["per_layer"] if args.trace else spec["end_to_end"]
    todo = names if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in todo:
        result = run_workload(name, args, host)
        if result is None:
            print(f"benchmark: workload {name} did not finish", file=sys.stderr)
            return 2
        print_result(result, spec)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for m in selected:
            got = result["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                print(f"benchmark: {name} did not report {m['name']} "
                      f"in {m['unit']}", file=sys.stderr)
                return 2
            key = m["name"] if len(todo) == 1 else f"{name}.{m['name']}"
            summary["metrics"][key] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def load_runs(directory: str, trace: int) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        if rec.get("trace") == trace:
            runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def _fmt(values) -> str:
    q1, med, q3 = stats.quartiles(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare_main(argv) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(prog="benchmarks.suite compare")
    p.add_argument("parent", help="directory of the parent's run records")
    p.add_argument("change", help="directory of the change's run records")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="compare traced runs' per-layer metrics")
    args = p.parse_args(argv)
    defs = [(m["name"], m["better"], m.get("bound"))
            for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]
    parent, change = load_runs(args.parent, args.trace), load_runs(args.change, args.trace)
    worse = 0
    print(f"{'workload':<14} {'metric':<28} {'parent median [q1, q3]':<40} "
          f"{'change median [q1, q3]':<40} verdict")
    for workload in sorted(set(parent) & set(change)):
        for name, better, bound in defs:
            a = [r["metrics"][name]["value"] for r in parent[workload]
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in change[workload]
                 if name in r["metrics"]]
            if not a or not b:
                continue
            v = stats.verdict(a, b, better, bound)
            worse += v == "worse"
            print(f"{workload:<14} {name:<28} {_fmt(a):<40} {_fmt(b):<40} {v}")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    return run_main(argv)
