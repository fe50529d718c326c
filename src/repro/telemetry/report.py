"""The inference report: one self-contained HTML (+ JSON) artifact.

Bundles everything the observability layer knows about a finished run
-- the model source with per-statement provenance, the compiler
decision ledger, the sweep profiler's attribution tables, per-update
acceptance ranges, and per-chain run metadata -- into a single file
with no external assets, so it can be archived as a CI artifact or
mailed around.

``repro sample --report out.html`` produces it from the CLI;
:func:`write_report` is the library entry point.  Next to every ``.html`` a machine-readable ``.json`` twin is
written with the same payload.
"""

from __future__ import annotations

import html
import json
import time


def report_data(sampler, results) -> dict:
    """The machine-readable report payload for one finished run.

    ``results`` is the list of per-chain ``SampleResult``s (a single
    ``sample`` call passes a one-element list).
    """
    from repro.telemetry.stats import acceptance_ranges

    statements = [
        {"name": sl.name, "line": sl.line, "text": sl.text}
        for sl in sampler.source_map.values()
    ]
    chains = []
    for i, r in enumerate(results):
        n_draws = len(next(iter(r.samples.values()))) if r.samples else 0
        chains.append(
            {
                "chain": i,
                "n_draws": int(n_draws),
                "wall_time": float(r.wall_time),
                "acceptance": {
                    k: (None if v != v else float(v))
                    for k, v in r.acceptance.items()
                },
            }
        )
    profiles = [r.profile.to_dict() for r in results if r.profile is not None]
    ranges = {
        label: {"min": lo, "max": hi, "mean": mean}
        for label, (lo, hi, mean) in acceptance_ranges(results).items()
    }
    adaptation = _adaptation_data(results)
    spec = getattr(sampler, "spec", None)
    return {
        "generated_at": time.strftime("%Y-%m-%d %H:%M:%S"),
        "model_source": spec.source if spec is not None else "",
        "statements": statements,
        "schedule": sampler.schedule_description(),
        "compile_seconds": float(sampler.compile_seconds),
        "ledger": sampler.explain_json(),
        "chains": chains,
        "acceptance_ranges": ranges,
        "adaptation": adaptation,
        "profiles": profiles,
        "tournament": getattr(sampler, "tune_report", None),
    }


#: Longest step-size trace embedded in the report; longer warmups are
#: strided down so the artifact stays small.
_TRACE_POINTS = 256


def _adaptation_data(results) -> list[dict]:
    """Per-chain, per-update warmup adaptation summaries.

    Final state comes from ``SampleResult.adapt_state``; the per-sweep
    step-size trace rides in the stats buffers when the run collected
    them (``collect_stats=True``).
    """
    out: list[dict] = []
    for i, r in enumerate(results):
        saved = getattr(r, "adapt_state", None)
        if not saved:
            continue
        stats = getattr(r, "stats", None)
        for label, st in sorted(saved.items()):
            warmup = int(st.get("warmup", 0))
            trace: list[float] = []
            if stats is not None and label in stats.update_labels:
                cols = stats[label]
                if "step_size" in cols:
                    raw = cols["step_size"][:warmup]
                    stride = max(1, len(raw) // _TRACE_POINTS)
                    trace = [
                        float(v) for v in raw[::stride] if v == v and v > 0
                    ]
            inv_mass = st.get("inv_mass")
            step = st.get("step_size")
            out.append(
                {
                    "chain": i,
                    "update": label,
                    "warmup": warmup,
                    "target_accept": float(st.get("target_accept", 0.8)),
                    "step_size": None if step is None else float(step),
                    "windows_closed": int(st.get("window_index", 0)),
                    "n_windows": int(st.get("n_windows", 0)),
                    "inv_mass": (
                        None
                        if inv_mass is None
                        else {
                            "dim": int(len(inv_mass)),
                            "min": float(inv_mass.min()),
                            "max": float(inv_mass.max()),
                        }
                    ),
                    "step_size_trace": trace,
                }
            )
    return out


def _esc(s) -> str:
    return html.escape(str(s), quote=True)


_STYLE = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 70em; color: #222; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 2em; border-bottom: 1px solid #ddd; }
table { border-collapse: collapse; width: 100%; margin: 0.5em 0; }
th, td { text-align: left; padding: 0.25em 0.7em; border-bottom: 1px solid #eee; vertical-align: top; }
th { background: #f6f6f6; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
pre { background: #f6f6f6; padding: 0.8em; overflow-x: auto; border-radius: 4px; }
.reason { color: #555; } .origin { color: #777; font-size: 0.92em; }
.muted { color: #888; }
"""


def _pct(x: float | None) -> str:
    return "-" if x is None or x != x else f"{100.0 * x:.1f}%"


def _ledger_rows(ledger: list[dict]) -> str:
    rows = []
    for e in ledger:
        prov = e.get("provenance") or {}
        origin = prov.get("stmt", "")
        rows.append(
            "<tr>"
            f"<td>{_esc(e['decision'])}</td>"
            f"<td>{_esc(e['subject'])}</td>"
            f"<td><b>{_esc(e['choice'])}</b></td>"
            f"<td class='reason'>{_esc(e['reason'])}</td>"
            f"<td class='origin'>{_esc(origin)}</td>"
            "</tr>"
        )
    return "".join(rows)


def _sparkline(values: list, width: int = 560, height: int = 64) -> str:
    """An inline SVG polyline of the (log-scale) step-size trace."""
    import math

    vals = [v for v in values if v == v and v > 0]
    if len(vals) < 2:
        return ""
    logs = [math.log(v) for v in vals]
    lo, hi = min(logs), max(logs)
    span = (hi - lo) or 1.0
    n = len(logs)
    pts = " ".join(
        f"{width * i / (n - 1):.1f},"
        f"{height - 4 - (height - 8) * (v - lo) / span:.1f}"
        for i, v in enumerate(logs)
    )
    return (
        f"<svg width='{width}' height='{height}' viewBox='0 0 {width} "
        f"{height}' role='img' aria-label='step-size trace'>"
        f"<rect width='{width}' height='{height}' fill='#f6f6f6'/>"
        f"<polyline points='{pts}' fill='none' stroke='#36c' "
        "stroke-width='1.5'/></svg>"
    )


def _fmt_step(x) -> str:
    return "-" if x is None else f"{x:.4g}"


def _adaptation_section(entries: list[dict]) -> str:
    """The warmup-adaptation summary table plus per-chain step-size
    trace sparklines."""
    if not entries:
        return ""
    rows = []
    for e in entries:
        im = e.get("inv_mass")
        mass = (
            "-" if im is None
            else f"dim {im['dim']}: {im['min']:.3g} .. {im['max']:.3g}"
        )
        rows.append(
            f"<tr><td class='num'>{e['chain']}</td>"
            f"<td>{_esc(e['update'])}</td>"
            f"<td class='num'>{e['warmup']}</td>"
            f"<td class='num'>{e['target_accept']:.2f}</td>"
            f"<td class='num'>{_fmt_step(e['step_size'])}</td>"
            f"<td class='num'>{e['windows_closed']}/{e['n_windows']}</td>"
            f"<td>{_esc(mass)}</td></tr>"
        )
    traces = []
    for e in entries:
        title = (
            "<h3>Step-size trace "
            f"(chain {e['chain']}, {_esc(e['update'])})</h3>"
        )
        trace = e.get("step_size_trace") or []
        svg = _sparkline(trace)
        if svg:
            traces.append(
                title + svg
                + f"<p class='muted'>{len(trace)} warmup points, "
                f"{_fmt_step(trace[0])} &rarr; "
                f"{_fmt_step(e['step_size'])} (log scale)</p>"
            )
        else:
            traces.append(
                title
                + "<p class='muted'>final adapted step size "
                f"{_fmt_step(e['step_size'])}; rerun with per-sweep stats "
                "collection for the full trace.</p>"
            )
    return (
        "<h2>Warmup adaptation</h2>"
        "<table><tr><th class='num'>chain</th><th>update</th>"
        "<th class='num'>warmup</th><th class='num'>target accept</th>"
        "<th class='num'>adapted step</th><th class='num'>windows</th>"
        "<th>mass diag (M&#8315;&sup1;)</th></tr>"
        + "".join(rows) + "</table>" + "".join(traces)
    )


def _fmt_gain(gain) -> str:
    return "-" if gain is None else f"{100.0 * gain:+.1f}%"


def _tournament_section(report: dict | None) -> str:
    """The autotuner's trial-sweep race: every candidate with its
    measured score and verdict, plus the cache outcome."""
    if not report:
        return ""
    rows = []
    for c in report.get("candidates", []):
        sps = c.get("s_per_sweep")
        ess = c.get("ess_per_s")
        style = " style='font-weight:bold'" if c["verdict"] == "winner" else ""
        rows.append(
            f"<tr{style}><td>{_esc(c['label'])}</td>"
            f"<td><code>{_esc(c['schedule'])}</code></td>"
            f"<td class='num'>{'-' if sps is None else f'{sps:.3g}'}</td>"
            f"<td class='num'>{'-' if ess is None else f'{ess:.3g}'}</td>"
            f"<td class='num'>{_fmt_gain(c.get('gain'))}</td>"
            f"<td>{_esc(c['verdict'])}</td></tr>"
        )
    winner = report.get("winner") or {}
    cache = report.get("cache", "miss")
    if cache == "hit":
        cache_note = "cached verdict reused &mdash; trial sweeps skipped"
    elif not report.get("trial_sweeps"):
        cache_note = "no gradient update to race &mdash; no trial sweeps"
    else:
        cache_note = (
            f"raced in {report.get('tuning_seconds', 0.0):.2f} s "
            f"({report['trial_sweeps']} trial sweeps per candidate)"
        )
    return (
        "<h2>Schedule tournament</h2>"
        f"<p>winner: <code>{_esc(winner.get('schedule', ''))}</code>"
        f" &middot; margin {_fmt_gain(report.get('margin'))} "
        f"&middot; {cache_note} &middot; shape key "
        f"<code>{_esc((report.get('shape_key') or '')[:16])}</code></p>"
        "<table><tr><th>candidate</th><th>schedule</th>"
        "<th class='num'>s/sweep</th><th class='num'>ESS/s</th>"
        "<th class='num'>gain</th><th>verdict</th></tr>"
        + "".join(rows) + "</table>"
    )


def _profile_section(i: int, prof: dict, many: bool) -> str:
    title = f"Sweep profile (chain {i})" if many else "Sweep profile"
    head = (
        f"<h2>{title}</h2>"
        f"<p>{prof['n_sweeps']} sweeps, {prof['sweep_seconds']:.3f} s "
        f"in-sweep, {_pct(prof['attributed_fraction'])} attributed.</p>"
        "<table><tr><th>update / decl</th><th class='num'>calls</th>"
        "<th class='num'>wall s</th><th class='num'>% sweep</th>"
        "<th class='num'>ops/s</th><th>model statement</th></tr>"
    )
    total = prof["sweep_seconds"] or float("nan")
    rows = []
    decls_by_update: dict[str, list[dict]] = {}
    for d in prof["decls"]:
        decls_by_update.setdefault(d.get("update", ""), []).append(d)
    for u in prof["updates"]:
        rows.append(
            f"<tr><td><b>{_esc(u['name'])}</b></td>"
            f"<td class='num'>{u['calls']}</td>"
            f"<td class='num'>{u['seconds']:.4f}</td>"
            f"<td class='num'>{_pct(u['seconds'] / total)}</td>"
            f"<td class='num'>-</td><td>{_esc(u.get('stmt', ''))}</td></tr>"
        )
        for d in decls_by_update.get(u["name"], []):
            ops = d.get("ops_per_sec")
            rows.append(
                f"<tr><td class='muted'>&nbsp;&nbsp;{_esc(d['name'])}</td>"
                f"<td class='num'>{d['calls']}</td>"
                f"<td class='num'>{d['seconds']:.4f}</td>"
                f"<td class='num'>{_pct(d['seconds'] / total)}</td>"
                f"<td class='num'>{'-' if not ops else f'{ops:.3g}'}</td>"
                f"<td>{_esc(d.get('stmt', ''))}</td></tr>"
            )
    stmt_rows = "".join(
        f"<tr><td>{_esc(s['stmt'])}</td>"
        f"<td class='num'>{s['seconds']:.4f}</td>"
        f"<td class='num'>{_pct(s['seconds'] / total)}</td></tr>"
        for s in prof["statements"]
    )
    stmts = (
        "<h3>By model statement</h3><table><tr><th>statement</th>"
        "<th class='num'>wall s</th><th class='num'>% sweep</th></tr>"
        f"{stmt_rows}</table>"
        if prof["statements"]
        else ""
    )
    return head + "".join(rows) + "</table>" + stmts


def render_html(data: dict) -> str:
    """The report payload as one self-contained HTML page."""
    ledger_html = ""
    if data["ledger"]:
        ledger_html = (
            "<h2>Compiler decision ledger</h2>"
            "<table><tr><th>decision</th><th>subject</th><th>choice</th>"
            "<th>reason</th><th>origin</th></tr>"
            f"{_ledger_rows(data['ledger'])}</table>"
        )
    profiles_html = "".join(
        _profile_section(i, p, many=len(data["profiles"]) > 1)
        for i, p in enumerate(data["profiles"])
    )
    adaptation_html = _adaptation_section(data.get("adaptation") or [])
    tournament_html = _tournament_section(data.get("tournament"))
    accept_html = ""
    if data["acceptance_ranges"]:
        rows = "".join(
            f"<tr><td>{_esc(label)}</td>"
            f"<td class='num'>{r['mean']:.3f}</td>"
            f"<td class='num'>{r['min']:.3f}</td>"
            f"<td class='num'>{r['max']:.3f}</td></tr>"
            for label, r in sorted(data["acceptance_ranges"].items())
        )
        accept_html = (
            "<h2>Acceptance rates (per sweep)</h2>"
            "<table><tr><th>update</th><th class='num'>mean</th>"
            f"<th class='num'>min</th><th class='num'>max</th></tr>{rows}</table>"
        )
    chain_rows = "".join(
        f"<tr><td class='num'>{c['chain']}</td>"
        f"<td class='num'>{c['n_draws']}</td>"
        f"<td class='num'>{c['wall_time']:.3f}</td><td>"
        + ", ".join(
            f"{_esc(k)} {'-' if v is None else f'{v:.3f}'}"
            for k, v in c["acceptance"].items()
        )
        + "</td></tr>"
        for c in data["chains"]
    )
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>repro inference report</title>
<style>{_STYLE}</style></head><body>
<h1>Inference report</h1>
<p class="muted">generated {_esc(data['generated_at'])} &middot;
schedule: {_esc(data['schedule'])} &middot;
compile {data['compile_seconds']:.3f} s</p>
<h2>Model</h2>
<pre>{_esc(data['model_source'])}</pre>
{tournament_html}
{ledger_html}
{accept_html}
{adaptation_html}
{profiles_html}
<h2>Chains</h2>
<table><tr><th class="num">chain</th><th class="num">draws</th>
<th class="num">wall s</th><th>acceptance (this run)</th></tr>
{chain_rows}</table>
</body></html>
"""


def write_report(path: str, sampler, results) -> dict:
    """Write the HTML report to ``path`` and its JSON twin next to it.

    Returns the report payload.  ``results`` may be a single
    ``SampleResult`` or a list of per-chain results.
    """
    if not isinstance(results, (list, tuple)):
        results = [results]
    data = report_data(sampler, list(results))
    with open(path, "w") as f:
        f.write(render_html(data))
    json_path = (
        path[: -len(".html")] + ".json" if path.endswith(".html")
        else path + ".json"
    )
    with open(json_path, "w") as f:
        json.dump(data, f, indent=2)
    return data
