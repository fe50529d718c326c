"""Command-line interface: compile and sample models from the shell.

::

    python -m repro sample model.augur inputs.json --samples 500 \
        --schedule "ESlice mu (*) Gibbs z" --out draws.npz --summary
    python -m repro sample model.augur inputs.json --samples 500 \
        --chains 4 --executor processes --out draws.npz
    python -m repro inspect model.augur inputs.json --source

With ``--chains N`` (N > 1) the chains fan out over the selected
executor, an R-hat report is printed per collected parameter, and
draws are saved under ``chainI__name`` keys.

Telemetry flags: ``--stats`` records per-sweep sampler statistics and
prints a summary; ``--monitor`` streams online convergence diagnostics
(split R-hat / ESS / divergence rates) during multi-chain runs;
``--trace FILE`` writes a chrome://tracing JSON covering every compiler
stage and runtime phase (open via ``chrome://tracing`` or Perfetto);
``--trace-plot NAME`` prints an ASCII trace plot of a parameter;
``--profile`` attributes sweep wall-time to every update, generated
declaration, and model statement; ``--explain`` prints the compiler
decision ledger (``--explain-json FILE`` writes it machine-readable);
``--report FILE`` writes a self-contained HTML inference report with a
``.json`` twin.

Inputs are a single ``.json`` or ``.npz`` file providing a value for
every hyper-parameter and observed variable; the model's declarations
decide which is which.  JSON nested lists with unequal row lengths load
as ragged arrays.  Draws are written to ``.npz`` (ragged variables are
stored as a flat buffer plus offsets).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from repro.core.chains import EXECUTORS
from repro.core.compiler import compile_model
from repro.core.options import CompileOptions
from repro.core.frontend.parser import parse_model
from repro.errors import ReproError
from repro.runtime.vectors import RaggedArray


def _coerce_json_value(v):
    if isinstance(v, bool):
        raise ReproError("booleans are not model values")
    if isinstance(v, (int, float)):
        return v
    if isinstance(v, list):
        if v and all(isinstance(r, list) for r in v):
            lengths = {len(r) for r in v}
            inner_is_list = any(isinstance(x, list) for r in v for x in r)
            if len(lengths) > 1 and not inner_is_list:
                dtype = (
                    np.int64
                    if all(isinstance(x, int) for r in v for x in r)
                    else np.float64
                )
                return RaggedArray.from_rows(v, dtype=dtype)
        arr = np.asarray(v)
        if arr.dtype == object:
            raise ReproError("could not interpret a JSON value as an array")
        return arr
    raise ReproError(f"unsupported JSON value of type {type(v).__name__}")


def load_inputs(path: str) -> dict:
    """Load a values file (.json or .npz) into model-ready values."""
    if path.endswith(".json"):
        with open(path) as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise ReproError("the inputs file must hold an object at top level")
        return {k: _coerce_json_value(v) for k, v in raw.items()}
    if path.endswith(".npz"):
        out = {}
        with np.load(path) as data:
            for k in data.files:
                v = data[k]
                out[k] = v.item() if v.ndim == 0 else v
        return out
    raise ReproError(f"unsupported inputs format: {path!r} (use .json or .npz)")


def split_inputs(source: str, values: dict) -> tuple[dict, dict]:
    model = parse_model(source)
    hypers = {h: values[h] for h in model.hypers if h in values}
    data = {d.name: values[d.name] for d in model.data if d.name in values}
    missing = [h for h in model.hypers if h not in values] + [
        d.name for d in model.data if d.name not in values
    ]
    if missing:
        raise ReproError(f"inputs file is missing values for: {missing}")
    return hypers, data


def _collect_arrays(out: dict, samples: dict, prefix: str = "") -> None:
    for name, draws in samples.items():
        if isinstance(draws, np.ndarray):
            out[prefix + name] = draws
        elif draws and isinstance(draws[0], RaggedArray):
            out[prefix + name + "__flat"] = np.stack([d.flat for d in draws])
            out[prefix + name + "__offsets"] = draws[0].offsets
        else:
            out[prefix + name] = np.asarray(draws)


def save_draws(path: str, samples: dict) -> None:
    arrays: dict = {}
    _collect_arrays(arrays, samples)
    np.savez(path, **arrays)


def save_chain_draws(path: str, results: list) -> None:
    """Write every chain's draws to one ``.npz`` (``chainI__name`` keys)."""
    arrays: dict = {}
    for i, res in enumerate(results):
        _collect_arrays(arrays, res.samples, prefix=f"chain{i}__")
    np.savez(path, **arrays)


def _build(args) -> "tuple":
    with open(args.model) as f:
        source = f.read()
    values = load_inputs(args.inputs)
    hypers, data = split_inputs(source, values)
    options = CompileOptions(target=args.target)
    if getattr(args, "tune", False):
        from repro.tune import autotune

        sampler = autotune(
            source, hypers, data, options=options, schedule=args.schedule
        )
    else:
        sampler = compile_model(
            source, hypers, data, options=options, schedule=args.schedule
        )
    return source, sampler


def _print_tournament(sampler) -> None:
    if getattr(sampler, "tune_report", None) is not None:
        from repro.tune import render_tournament

        print(render_tournament(sampler.tune_report))


def _resolve_warmup(args, sampler) -> int:
    """The run's warmup sweep count.

    ``--warmup N`` wins outright.  Left unset, warmup defaults *on*
    (``min(samples, 1000)`` sweeps) whenever the schedule contains an
    HMC/NUTS update whose step size was not pinned in the model text --
    those are exactly the runs dual averaging exists for -- and off
    everywhere else, keeping fixed-step runs bitwise identical.
    """
    if getattr(args, "warmup", None) is not None:
        return args.warmup
    from repro.core.backend.drivers import GradBlockDriver

    adaptive = any(
        isinstance(u, GradBlockDriver) and not u.user_step_size
        for u in sampler.updates
    )
    return min(args.samples, 1000) if adaptive else 0


def _write_pipeline_trace(path: str) -> None:
    from repro.telemetry.trace import get_tracer, write_trace

    write_trace(path)
    print(f"wrote pipeline trace ({len(get_tracer().events)} events) to {path}")


def cmd_sample(args) -> int:
    if args.chains < 1:
        raise ReproError(f"--chains must be positive, got {args.chains}")
    # Flags only one of the two paths reads would otherwise do nothing.
    if args.chains == 1:
        ignored = [
            ("--stream", args.stream),
            ("--monitor", args.monitor),
            ("--early-stop-rhat", args.early_stop_rhat is not None),
            ("--chunk-size", args.chunk_size is not None),
            ("--workers", args.workers is not None),
        ]
        needs = "--chains > 1"
    else:
        ignored = [
            ("--summary", args.summary),
            ("--trace-plot", args.trace_plot is not None),
        ]
        needs = "--chains 1"
    for flag, given in ignored:
        if given:
            raise ReproError(f"{flag} needs {needs}")
    if args.trace:
        from repro.telemetry.trace import enable_tracing

        enable_tracing()
    if args.log_json:
        from repro.telemetry.obslog import configure_event_log

        configure_event_log(path=args.log_json, level="debug")
    _, sampler = _build(args)
    if args.explain:
        print(sampler.explain())
        _print_tournament(sampler)
    if args.explain_json:
        with open(args.explain_json, "w") as f:
            json.dump(sampler.explain_json(), f, indent=2)
        print(f"wrote explain ledger to {args.explain_json}")
    warmup = _resolve_warmup(args, sampler)
    if args.chains > 1:
        return _sample_chains(args, sampler, warmup)
    want_profile = args.profile or bool(args.report)
    result = sampler.sample(
        num_samples=args.samples,
        burn_in=args.burn_in,
        thin=args.thin,
        seed=args.seed,
        collect=tuple(args.collect.split(",")) if args.collect else None,
        collect_stats=args.stats or bool(args.report),
        profile=want_profile,
        warmup=warmup,
        target_accept=args.target_accept,
    )
    print(
        f"compiled in {sampler.compile_seconds*1e3:.1f} ms; "
        f"schedule: {sampler.schedule_description()}"
    )
    if warmup:
        print(
            f"warmup: {warmup} adaptation sweeps "
            f"(target accept {args.target_accept:.2f})"
        )
        for label, st in sorted((result.adapt_state or {}).items()):
            if st.get("step_size") is not None:
                print(f"  adapted step size {label}: {st['step_size']:.4g}")
    print(
        f"drew {args.samples} samples in {result.wall_time:.2f} s "
        f"({args.samples / max(result.wall_time, 1e-9):.1f} samples/s)"
    )
    for upd, rate in result.acceptance.items():
        print(f"  acceptance {upd}: {rate:.3f}")
    if args.stats and result.stats is not None:
        print("sample stats (per-sweep means):")
        for line in result.stats.summary_lines():
            print(line)
    if args.profile and result.profile is not None:
        print(result.profile.table(sampler.source_map))
    if args.report:
        from repro.telemetry.report import write_report

        write_report(args.report, sampler, [result])
        print(f"wrote inference report to {args.report}")
    if args.out:
        save_draws(args.out, result.samples)
        print(f"wrote draws to {args.out}")
    if args.summary:
        from repro.eval.diagnostics import trace_summary

        print()
        print(trace_summary(result.samples))
    if args.trace_plot:
        from repro.eval.diagnostics import trace_plot

        print()
        print(trace_plot(result.samples, args.trace_plot))
    if args.trace:
        _write_pipeline_trace(args.trace)
    return 0


def _stream_line(chunk) -> str:
    """One plain ``[stream]`` line per chunk, for a redirected stderr."""
    phase = chunk.phase
    if phase is not None and phase["phase"] == "warmup":
        line = (
            f"[stream] chain {chunk.chain}: warmup "
            f"{phase['sweep']}/{phase['warmup']}"
        )
        if phase["step_size"] is not None:
            line += f" | step {phase['step_size']:.3g}"
        return line
    line = f"[stream] chain {chunk.chain}: draws {chunk.start}..{chunk.stop}"
    bits = []
    for label, entry in sorted((chunk.info or {}).items()):
        rate = entry.get("accept_rate")
        if rate is not None and rate == rate:
            bits.append(f"{label} accept {rate:.2f}")
        div = entry.get("divergent", 0)
        if div:
            bits.append(f"{label} divergent {div}")
        nan = entry.get("nan_rejects", 0)
        if nan:
            bits.append(f"{label} nan-rejects {nan}")
    if bits:
        line += " | " + ", ".join(bits)
    return line


def _sample_chains(args, sampler, warmup: int = 0) -> int:
    collect = tuple(args.collect.split(",")) if args.collect else None
    # On a TTY, --stream keeps one status line up; every whole line on
    # stderr (the monitor's, the divergence WARNING) then goes through
    # it so that none lands glued onto the status line.
    progress = None
    if args.stream and sys.stderr.isatty():
        from repro.telemetry.progress import StreamProgress

        progress = StreamProgress(args.chains, args.samples)
        emit = progress.emit
    else:
        def emit(line):
            print(line, file=sys.stderr)
    monitor = None
    if args.monitor or args.early_stop_rhat is not None:
        from repro.telemetry.monitors import ConvergenceMonitor

        monitor = ConvergenceMonitor(
            param_names=collect or sampler.param_names,
            n_chains=args.chains,
            emit=emit if args.monitor else None,
        )
    want_profile = args.profile or bool(args.report)
    common = dict(
        n_chains=args.chains,
        num_samples=args.samples,
        burn_in=args.burn_in,
        thin=args.thin,
        seed=args.seed,
        collect=collect,
        executor=args.executor,
        n_workers=args.workers,
        # --stream wants per-chunk acceptance/divergence digests too.
        collect_stats=(
            args.stats or args.monitor or args.stream or bool(args.report)
        ),
        monitor=monitor,
        profile=want_profile,
        chunk_size=args.chunk_size,
        early_stop_rhat=args.early_stop_rhat,
        warmup=warmup,
        target_accept=args.target_accept,
    )
    if warmup:
        print(
            f"warmup: {warmup} adaptation sweeps per chain "
            f"(target accept {args.target_accept:.2f})",
            file=sys.stderr,
        )
    if args.stream or args.monitor:
        stream = sampler.stream_chains(**common)
        warned = False
        for chunk in stream:
            if progress is not None:
                progress.update(chunk, stream)
            elif args.stream:
                print(_stream_line(chunk), file=sys.stderr)
            # The run's one live WARNING, when its rate first crosses.
            if stream.divergence.exceeded and not warned:
                warned = True
                emit(f"WARNING: {stream.divergence.warning}")
        if progress is not None:
            progress.close()
        results = stream.results
    else:
        results = sampler.sample_chains(**common)
    total = sum(r.wall_time for r in results)
    longest = max(r.wall_time for r in results)
    print(
        f"compiled in {sampler.compile_seconds*1e3:.1f} ms; "
        f"schedule: {sampler.schedule_description()}"
    )
    print(
        f"ran {args.chains} chains x {args.samples} samples "
        f"({args.executor}): {total:.2f} s chain time, "
        f"longest chain {longest:.2f} s"
    )
    if any(r.stopped_early for r in results):
        kept = [r.n_kept for r in results]
        print(
            f"early stop: split R-hat converged below "
            f"{args.early_stop_rhat}; chains kept {kept} draws"
        )
    from repro.eval.diagnostics import rhat_report
    from repro.telemetry.monitors import DEFAULT_RHAT

    # Judged against the early-stop target when one is set, as the
    # service judges against ``target_rhat``.
    threshold = (
        args.early_stop_rhat if args.early_stop_rhat is not None
        else DEFAULT_RHAT
    )
    # Early-stopped chains can hold unequal draw counts; cross-chain
    # reports use the common prefix.
    report_results = results
    min_kept = min(r.n_kept for r in results)
    if any(r.n_kept != min_kept for r in results) and min_kept > 0:
        report_results = [
            {name: vals[:min_kept] for name, vals in r.samples.items()}
            for r in results
        ]
    for name in collect or sampler.param_names:
        print(rhat_report(report_results, name, threshold))
    if args.stats:
        from repro.telemetry.stats import stack_chain_stats

        merged = stack_chain_stats(results)
        if merged:
            print("sample stats (cross-chain per-sweep means):")
            for key in sorted(merged):
                vals = np.asarray(merged[key], dtype=np.float64)
                print(f"  {key:32s} mean {np.nanmean(vals):10.4f}")
    if args.stats or args.monitor:
        from repro.telemetry.stats import acceptance_ranges

        ranges = acceptance_ranges(results)
        if ranges:
            print("acceptance rates (per sweep, all chains):")
            for label, (lo, hi, mean) in sorted(ranges.items()):
                print(
                    f"  {label:32s} mean {mean:.3f} "
                    f"(range {lo:.3f}-{hi:.3f})"
                )
    if monitor is not None:
        print(monitor.report(threshold))
    if args.profile and results and results[0].profile is not None:
        print(results[0].profile.table(sampler.source_map))
    if args.report:
        from repro.telemetry.report import write_report

        write_report(args.report, sampler, results)
        print(f"wrote inference report to {args.report}")
    if args.out:
        save_chain_draws(args.out, results)
        print(f"wrote draws to {args.out}")
    if args.trace:
        _write_pipeline_trace(args.trace)
    return 0


def cmd_inspect(args) -> int:
    source, sampler = _build(args)
    print("schedule:", sampler.schedule_description())
    print()
    print(sampler.plan.describe())
    if args.explain:
        print()
        print(sampler.explain())
        print()
        _print_tournament(sampler)
    if args.source:
        print()
        print(sampler.source)
    return 0


def cmd_serve(args) -> int:
    """Run the long-lived inference service (see docs/serving.md)."""
    from repro.serve.server import ReproServer
    from repro.serve.session import InferenceService

    service = InferenceService(
        checkpoint_dir=args.checkpoint_dir,
        artifact_dir=args.artifact_dir,
    )
    server = ReproServer(
        host=args.host,
        port=args.port,
        service=service,
        max_workers=args.request_workers,
        log_path=args.log_json,
        log_level=args.log_level,
    )

    def announce(srv):
        # Machine-readable first line: the CI smoke harness (and shell
        # scripts) read the bound port from it, so keep it stable.
        print(f"serving on http://{srv.host}:{srv.port}", flush=True)
        if args.checkpoint_dir:
            print(f"checkpoints: {args.checkpoint_dir}", flush=True)
        if args.artifact_dir:
            print(f"report artifacts: {args.artifact_dir}", flush=True)
        if args.log_json:
            print(f"event log: {args.log_json}", flush=True)

    try:
        server.run(announce=announce)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_request(args) -> int:
    """Send one inference request to a running ``repro serve``."""
    import http.client
    import urllib.parse

    with open(args.model) as f:
        source = f.read()
    with open(args.inputs) as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ReproError("the inputs file must hold an object at top level")

    query: dict = {
        "samples": args.samples,
        "burn_in": args.burn_in,
        "thin": args.thin,
        "chains": args.chains,
        "seed": args.seed,
        "executor": args.executor,
    }
    if args.collect:
        query["collect"] = args.collect.split(",")
    if args.chunk_size is not None:
        query["chunk_size"] = args.chunk_size
    if args.warmup is not None:
        query["warmup"] = args.warmup
    if args.target_accept is not None:
        query["target_accept"] = args.target_accept
    budget: dict = {}
    if args.deadline is not None:
        budget["deadline_s"] = args.deadline
    if args.max_draws is not None:
        budget["max_draws"] = args.max_draws
    if args.target_rhat is not None:
        budget["target_rhat"] = args.target_rhat
    if args.schedule:
        query["schedule"] = args.schedule
    if args.tune:
        query["tune"] = True
    payload: dict = {
        "model_source": source,
        "data": raw,
        "query": query,
        "budget": budget,
        "resume": not args.no_resume,
        "return_draws": args.return_draws,
    }
    if args.request_id:
        payload["request_id"] = args.request_id

    parsed = urllib.parse.urlparse(args.url)
    if parsed.scheme not in ("http", ""):
        raise ReproError(f"unsupported URL scheme {parsed.scheme!r}")
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 80
    conn = http.client.HTTPConnection(host, port, timeout=args.timeout)
    try:
        conn.request(
            "POST", "/v1/infer", body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        http_resp = conn.getresponse()
        body = http_resp.read()
    finally:
        conn.close()
    try:
        response = json.loads(body)
    except json.JSONDecodeError:
        raise ReproError(
            f"server returned non-JSON ({http_resp.status}): {body[:200]!r}"
        )
    if http_resp.status != 200 or response.get("status") != "ok":
        raise ReproError(
            f"request failed ({http_resp.status}): "
            f"{response.get('error', body[:200])}"
        )

    draws = response.get("draws", {})
    print(
        f"verdict: {response.get('verdict')}  "
        f"complete: {response.get('complete')}  "
        f"stop: {response.get('stop_reason') or 'all draws taken'}"
    )
    print(
        f"draws: kept {draws.get('kept')} of {draws.get('requested')} "
        f"requested ({draws.get('new')} new this call)"
    )
    cache = response.get("cache", {})
    timing = response.get("timing", {})
    print(
        f"compile cache hit: {cache.get('compile_cache_hit')}; "
        f"compile {timing.get('compile_s', 0.0)*1e3:.1f} ms, "
        f"sampling {timing.get('sampling_s', 0.0):.2f} s"
    )
    tuning = response.get("tuning")
    if tuning:
        margin = tuning.get("margin")
        print(
            f"tuning cache {tuning.get('cache')}; "
            f"winner schedule: {tuning.get('schedule')}"
            + (f" ({margin:+.1%} vs. baseline)" if margin else "")
        )
    if response.get("checkpointed"):
        print(
            "checkpointed: rerun the same request id to continue "
            "where it stopped"
        )
    for name, entry in response.get("summary", {}).items():
        for comp, vals in entry.get("components", {}).items():
            rhat = math.inf if vals.get("stuck") else vals.get("rhat")
            rhat_s = f"  rhat {rhat:.4f}" if rhat is not None else ""
            print(
                f"  {comp:24s} mean {vals['mean']:10.4f} "
                f"std {vals['std']:9.4f}{rhat_s}"
            )
    if args.fetch_report:
        conn = http.client.HTTPConnection(host, port, timeout=args.timeout)
        try:
            rid = payload.get("request_id")
            if not rid:
                raise ReproError("--fetch-report needs --request-id")
            conn.request("GET", f"/v1/report/{urllib.parse.quote(rid)}")
            rep = conn.getresponse()
            data = rep.read()
        finally:
            conn.close()
        if rep.status != 200:
            raise ReproError(f"report fetch failed ({rep.status})")
        with open(args.fetch_report, "wb") as f:
            f.write(data)
        print(f"wrote report artifact to {args.fetch_report}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(response, f, indent=2)
        print(f"wrote full response to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AugurV2-style MCMC compilation from the command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("model", help="path to the model source file")
        p.add_argument("inputs", help=".json or .npz with hypers + data")
        p.add_argument("--schedule", default=None, help="user MCMC schedule")
        p.add_argument("--target", default="cpu", choices=["cpu", "gpu"])
        p.add_argument(
            "--tune",
            action="store_true",
            help="autotune the schedule: race the heuristic's (or "
            "--schedule's) HMC/NUTS choice for each gradient block on trial "
            "sweeps, compile the measured winner; verdicts are cached by "
            "model shape",
        )

    ps = sub.add_parser("sample", help="compile and draw posterior samples")
    common(ps)
    ps.add_argument("--samples", type=int, default=1000)
    ps.add_argument("--burn-in", type=int, default=0)
    ps.add_argument("--thin", type=int, default=1)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument(
        "--warmup", type=int, default=None, metavar="N",
        help="adaptation sweeps before burn-in (dual-averaging step size "
        "+ mass matrix for HMC/NUTS); defaults on for HMC/NUTS "
        "schedules without a pinned step size, 0 otherwise",
    )
    ps.add_argument(
        "--target-accept", type=float, default=0.8, metavar="A",
        help="dual-averaging acceptance target (default 0.8)",
    )
    ps.add_argument("--collect", default=None, help="comma-separated parameters")
    ps.add_argument("--chains", type=int, default=1, help="number of chains")
    ps.add_argument(
        "--executor",
        default="processes",
        choices=EXECUTORS,
        help="how multi-chain runs fan out (with --chains > 1)",
    )
    ps.add_argument(
        "--workers", type=int, default=None, help="worker pool size for --chains"
    )
    ps.add_argument(
        "--stream",
        action="store_true",
        help="stream per-chain draw chunks to stderr as workers post them",
    )
    ps.add_argument(
        "--early-stop-rhat",
        type=float,
        default=None,
        metavar="R",
        help="stop all chains once the worst split R-hat falls below R",
    )
    ps.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help="kept draws per streamed chunk (with --chains > 1)",
    )
    ps.add_argument("--out", default=None, help="write draws to this .npz")
    ps.add_argument("--summary", action="store_true", help="print posterior summary")
    ps.add_argument(
        "--stats",
        action="store_true",
        help="collect per-sweep sampler statistics and print a summary",
    )
    ps.add_argument(
        "--monitor",
        action="store_true",
        help="online convergence monitoring for multi-chain runs",
    )
    ps.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a chrome://tracing JSON of the compile + run pipeline",
    )
    ps.add_argument(
        "--trace-plot", default=None, help="ASCII trace plot of a parameter"
    )
    ps.add_argument(
        "--profile",
        action="store_true",
        help="attribute sweep wall-time per update / decl / model statement",
    )
    ps.add_argument(
        "--explain",
        action="store_true",
        help="print the compiler decision ledger (what was chosen and why)",
    )
    ps.add_argument(
        "--explain-json",
        default=None,
        metavar="FILE",
        help="write the decision ledger as JSON",
    )
    ps.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write a self-contained HTML inference report (+ .json twin)",
    )
    ps.add_argument(
        "--log-json",
        default=None,
        metavar="FILE",
        help="append structured JSON-lines events (all levels) to FILE",
    )
    ps.set_defaults(fn=cmd_sample)

    pi = sub.add_parser("inspect", help="show the compiled sampler's plan")
    common(pi)
    pi.add_argument("--source", action="store_true", help="print generated code")
    pi.add_argument(
        "--explain",
        action="store_true",
        help="print the compiler decision ledger",
    )
    pi.set_defaults(fn=cmd_inspect)

    pv = sub.add_parser(
        "serve",
        help="run the long-lived inference service (HTTP + JSON)",
    )
    pv.add_argument("--host", default="127.0.0.1")
    pv.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (0 binds an ephemeral port, announced on stdout)",
    )
    pv.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for request checkpoints (enables resume)",
    )
    pv.add_argument(
        "--artifact-dir", default=None,
        help="directory for per-request HTML/JSON reports",
    )
    pv.add_argument(
        "--request-workers", type=int, default=4,
        help="concurrent requests handled by the thread pool",
    )
    pv.add_argument(
        "--log-json", default=None, metavar="FILE",
        help="append the structured JSON-lines event log to FILE",
    )
    pv.add_argument(
        "--log-level", default="info",
        choices=["debug", "info", "warning", "error"],
        help="minimum level kept in the event log (default info)",
    )
    pv.set_defaults(fn=cmd_serve)

    pq = sub.add_parser(
        "request",
        help="send one inference request to a running 'repro serve'",
    )
    pq.add_argument("url", help="service base URL, e.g. http://127.0.0.1:8080")
    pq.add_argument("model", help="path to the model source file")
    pq.add_argument("inputs", help=".json with hypers + data")
    pq.add_argument("--schedule", default=None, help="user MCMC schedule")
    pq.add_argument(
        "--tune", action="store_true",
        help="ask the service to autotune the schedule (verdicts cached "
        "server-side by model shape)",
    )
    pq.add_argument("--samples", type=int, default=500)
    pq.add_argument("--burn-in", type=int, default=0)
    pq.add_argument("--thin", type=int, default=1)
    pq.add_argument("--chains", type=int, default=1)
    pq.add_argument("--seed", type=int, default=0)
    pq.add_argument(
        "--warmup", type=int, default=None, metavar="N",
        help="adaptation sweeps before burn-in (HMC/NUTS)",
    )
    pq.add_argument(
        "--target-accept", type=float, default=None, metavar="A",
        help="dual-averaging acceptance target (default 0.8)",
    )
    pq.add_argument("--collect", default=None, help="comma-separated parameters")
    pq.add_argument(
        "--executor", default="sequential",
        choices=EXECUTORS,
    )
    pq.add_argument("--chunk-size", type=int, default=None, metavar="N")
    pq.add_argument(
        "--request-id", default=None,
        help="stable id enabling checkpoint/resume across calls",
    )
    pq.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; partial results checkpoint for resume",
    )
    pq.add_argument(
        "--max-draws", type=int, default=None, metavar="N",
        help="cap on new kept draws this call",
    )
    pq.add_argument(
        "--target-rhat", type=float, default=None, metavar="R",
        help="stop early once the worst split R-hat falls below R",
    )
    pq.add_argument(
        "--no-resume", action="store_true",
        help="ignore any existing checkpoint for this request id",
    )
    pq.add_argument(
        "--return-draws", action="store_true",
        help="embed the raw draws in the JSON response",
    )
    pq.add_argument(
        "--fetch-report", default=None, metavar="PATH",
        help="download the request's HTML report artifact to PATH",
    )
    pq.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the full JSON response to PATH",
    )
    pq.add_argument("--timeout", type=float, default=600.0)
    pq.set_defaults(fn=cmd_request)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
