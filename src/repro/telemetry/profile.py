"""The sweep profiler: where inside a sweep the wall-time goes.

Pipeline tracing (:mod:`repro.telemetry.trace`) shows *that* sweeps
take time; this module shows *where*: per base update of the composed
kernel, per generated declaration the drivers call, and -- through the
provenance records threaded down from the frontend -- per model
statement the user actually wrote.

Two layers of near-zero-cost timers:

- the sampler's profiled sweep loop brackets each driver's ``step``
  call with ``perf_counter`` pairs (one list-cell accumulate per
  update per sweep);
- each driver's bound compiled functions are swapped for thin timing
  wrappers (:meth:`UpdateDriver.instrument`), attributing time to the
  generated declaration actually executing.

The off path is untouched: profiling adds one branch to ``sample``'s
loop selection, exactly like stats collection, so the ≤3% off-path
overhead contract of the telemetry layer holds (enforced by
``benchmarks/bench_telemetry_overhead.py``).  Wrappers only read the
clock -- never the RNG -- so draws are bitwise identical with
profiling on or off.

Op counts reuse the backend's :func:`op_count_code` expressions
(runtime trip counts included), giving ops/s per declaration where the
expression can be evaluated against the live environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class SweepProfile:
    """The finished attribution table of one profiled ``sample`` run.

    ``updates`` and ``decls`` are lists of plain-dict rows (picklable
    across process-pool workers); ``statements`` aggregates declaration
    time by originating model statement.
    """

    n_sweeps: int
    sweep_seconds: float
    updates: list[dict] = field(default_factory=list)
    decls: list[dict] = field(default_factory=list)
    statements: list[dict] = field(default_factory=list)

    @property
    def attributed_fraction(self) -> float:
        """Fraction of measured sweep wall-time attributed to named
        updates (the acceptance-criterion number)."""
        if self.sweep_seconds <= 0.0:
            return 0.0
        return sum(r["seconds"] for r in self.updates) / self.sweep_seconds

    def to_dict(self) -> dict:
        return {
            "n_sweeps": self.n_sweeps,
            "sweep_seconds": self.sweep_seconds,
            "attributed_fraction": self.attributed_fraction,
            "updates": self.updates,
            "decls": self.decls,
            "statements": self.statements,
        }

    def table(self, source_map: dict | None = None) -> str:
        """Aligned human-readable profile table."""

        def pct(seconds: float) -> str:
            if self.sweep_seconds <= 0.0:
                return "   n/a"
            return f"{100.0 * seconds / self.sweep_seconds:5.1f}%"

        def ops_s(row: dict) -> str:
            v = row.get("ops_per_sec")
            return f"{v:9.3g}" if v else "      -  "

        lines = [
            f"sweep profile ({self.n_sweeps} sweeps, "
            f"{self.sweep_seconds:.3f} s in-sweep, "
            f"{100.0 * self.attributed_fraction:.1f}% attributed):",
            f"  {'update / decl':<34} {'calls':>9} {'wall s':>9} "
            f"{'% sweep':>7} {'ops/s':>9}",
        ]
        decl_rows = {r["name"]: [] for r in self.updates}
        for r in self.decls:
            decl_rows.setdefault(r.get("update", ""), []).append(r)
        for u in self.updates:
            lines.append(
                f"  {u['name']:<34} {u['calls']:>9} {u['seconds']:>9.4f} "
                f"{pct(u['seconds']):>7} {'':>9}"
            )
            for r in decl_rows.get(u["name"], []):
                lines.append(
                    f"    {r['name']:<32} {r['calls']:>9} "
                    f"{r['seconds']:>9.4f} {pct(r['seconds']):>7} {ops_s(r)}"
                )
        orphans = decl_rows.get("", [])
        for r in orphans:
            lines.append(
                f"  {r['name']:<34} {r['calls']:>9} {r['seconds']:>9.4f} "
                f"{pct(r['seconds']):>7} {ops_s(r)}"
            )
        if self.statements:
            lines.append("  by model statement:")
            for s in self.statements:
                origin = s["stmt"]
                if source_map and origin in source_map:
                    sl = source_map[origin]
                    origin = f"{origin} (line {sl.line}: {sl.text})"
                lines.append(
                    f"    {pct(s['seconds']):>7} {s['seconds']:>9.4f} s  "
                    f"{origin}"
                )
        return "\n".join(lines)


class SweepProfiler:
    """Live timing state for one profiled ``sample`` call.

    The sampler creates one, calls :meth:`instrument` before the sweep
    loop and :meth:`restore` after, and accumulates per-update times
    into :attr:`update_cells` from its profiled loop.  Compiled-call
    wrappers installed by the drivers accumulate into per-decl cells
    keyed by declaration name.
    """

    def __init__(self, sampler):
        self._sampler = sampler
        # Deduplicate repeated labels the same way the stats buffers do
        # (a schedule may compose two updates of the same kind on the
        # same variable).
        seen: dict[str, int] = {}
        self.update_labels: list[str] = []
        for upd in sampler.updates:
            label = upd.label
            k = seen.get(label, 0)
            seen[label] = k + 1
            self.update_labels.append(f"{label}#{k}" if k else label)
        self.update_cells = [[0, 0.0] for _ in sampler.updates]
        self._decl_cells: dict[str, list] = {}
        # decl name -> update label, captured while wrapping, so the
        # table can nest declarations under their driver.
        self._decl_owner: dict[str, str] = {}
        self._wrapping_for: str | None = None

    # -- instrumentation ---------------------------------------------------

    def wrap(self, decl_name: str, fn):
        """A timing wrapper around one bound compiled function."""
        cell = self._decl_cells.setdefault(decl_name, [0, 0.0])
        if self._wrapping_for is not None:
            self._decl_owner.setdefault(decl_name, self._wrapping_for)

        def timed(*args):
            t0 = perf_counter()
            out = fn(*args)
            dt = perf_counter() - t0
            cell[0] += 1
            cell[1] += dt
            return out

        return timed

    def instrument(self) -> None:
        for label, upd in zip(self.update_labels, self._sampler.updates):
            self._wrapping_for = label
            upd.instrument(self)
        self._wrapping_for = None

    def restore(self) -> None:
        for upd in self._sampler.updates:
            upd.restore()

    # -- op counts ---------------------------------------------------------

    def _ops_namespace(self) -> dict:
        """Evaluation scope for the backend's op-count expressions: the
        compiled module's helpers plus the mangled live environment."""
        from repro.core.backend.emitter import mangle

        ns = dict(getattr(self._sampler.module, "namespace", {}) or {})
        env = getattr(self._sampler, "_env", None) or self._sampler.base_env
        for k, v in env.items():
            ns[mangle(k)] = v
        for k, v in self._sampler.workspaces.items():
            ns[mangle(k)] = v
        return ns

    def _ops_per_call(self, decl_name: str, ns: dict) -> float | None:
        expr = (self._sampler.op_count_exprs or {}).get(decl_name)
        if not expr:
            return None
        try:
            return float(eval(expr, ns))  # noqa: S307 - compiler-generated
        except Exception:
            return None

    # -- finishing ---------------------------------------------------------

    def finish(self, sweep_seconds: float, n_sweeps: int) -> SweepProfile:
        prof = SweepProfile(n_sweeps=n_sweeps, sweep_seconds=sweep_seconds)
        provenance = self._sampler.decl_provenance or {}
        for label, upd, (calls, seconds) in zip(
            self.update_labels, self._sampler.updates, self.update_cells
        ):
            prof.updates.append(
                {
                    "name": label,
                    "calls": calls,
                    "seconds": seconds,
                    "stmt": upd.targets[0] if upd.targets else "",
                    "stmts": list(upd.targets),
                }
            )
        ns = self._ops_namespace()
        stmt_seconds: dict[str, float] = {}
        for name, (calls, seconds) in sorted(
            self._decl_cells.items(), key=lambda kv: -kv[1][1]
        ):
            ops = self._ops_per_call(name, ns)
            prov = provenance.get(name)
            stmt = prov.stmt if prov is not None else ""
            row = {
                "name": name,
                "update": self._decl_owner.get(name, ""),
                "calls": calls,
                "seconds": seconds,
                "ops_per_call": ops,
                "ops_per_sec": (
                    ops * calls / seconds if ops and seconds > 0.0 else None
                ),
                "stmt": stmt,
            }
            prof.decls.append(row)
            if stmt:
                stmt_seconds[stmt] = stmt_seconds.get(stmt, 0.0) + seconds
        prof.statements = [
            {"stmt": stmt, "seconds": seconds}
            for stmt, seconds in sorted(
                stmt_seconds.items(), key=lambda kv: -kv[1]
            )
        ]
        return prof
