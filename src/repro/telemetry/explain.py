"""The compiler decision ledger: why the pipeline chose what it chose.

The compiler makes several silent, performance-critical decisions per
model: which update kind each variable gets, whether an element update
runs batched or scalar, which form each HMC/NUTS block's density takes
(the CPU target's fused value+gradient declaration or the GPU target's
separate pair), whether a decl emitted
whole-vector NumPy or fell back to Python loops, and whether
the compile cache served the whole compilation.  Each of those now
appends a structured :class:`Decision` -- ``(decision, subject, choice,
reason, provenance)`` -- to a :class:`CompileLedger` instead of
deciding silently.

Codegen-time decisions live in the compile cache alongside the code
they describe, so a cache hit replays them; assembly-time decisions
(driver wiring, the hit/miss itself) are appended to a per-sampler
clone.  ``repro sample ... --explain`` and the HTML inference report
render the ledger; ``CompiledSampler.explain_json()`` returns it
machine-readable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.provenance import Provenance


@dataclass(frozen=True)
class Decision:
    """One structured ledger entry.

    ``decision`` is the decision point (``kernel.update``,
    ``batch.elements``, ``gradient.fusion``, ``emit.vectorize``,
    ``compile.cache``); ``subject`` is the update
    label or declaration name it concerns; ``choice`` is what was
    picked; ``reason`` says why in a human-readable sentence.
    """

    decision: str
    subject: str
    choice: str
    reason: str
    provenance: Provenance | None = None

    def to_dict(self) -> dict:
        return {
            "decision": self.decision,
            "subject": self.subject,
            "choice": self.choice,
            "reason": self.reason,
            "provenance": (
                self.provenance.to_dict() if self.provenance is not None else None
            ),
        }


class CompileLedger:
    """An append-only list of :class:`Decision` entries."""

    def __init__(self, entries=()):
        self.entries: list[Decision] = list(entries)

    def record(
        self,
        decision: str,
        subject: str,
        choice: str,
        reason: str,
        provenance: Provenance | None = None,
    ) -> Decision:
        entry = Decision(decision, subject, choice, reason, provenance)
        self.entries.append(entry)
        return entry

    def clone(self) -> "CompileLedger":
        """An independent copy: the cache stores the codegen-time ledger
        once, and every assembled sampler appends its own wiring entries
        to a clone."""
        return CompileLedger(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def entries_for(
        self, decision: str | None = None, subject: str | None = None
    ) -> list[Decision]:
        out = []
        for e in self.entries:
            if decision is not None and e.decision != decision:
                continue
            if subject is not None and e.subject != subject:
                continue
            out.append(e)
        return out

    def choices(self, decision: str) -> dict[str, str]:
        """``subject -> choice`` for one decision point (last one wins)."""
        return {e.subject: e.choice for e in self.entries_for(decision)}

    def to_json(self) -> list[dict]:
        return [e.to_dict() for e in self.entries]

    def render(self, source_map: dict | None = None) -> str:
        """The ledger as an aligned human-readable table."""
        if not self.entries:
            return "compiler decision ledger: empty"
        rows = []
        for e in self.entries:
            origin = (
                e.provenance.describe(source_map)
                if e.provenance is not None
                else "-"
            )
            rows.append((e.decision, e.subject, e.choice, e.reason, origin))
        widths = [
            max(len(r[i]) for r in rows) for i in range(3)
        ]
        lines = [f"compiler decision ledger ({len(rows)} decisions):"]
        for d, s, c, reason, origin in rows:
            line = (
                f"  {d:<{widths[0]}}  {s:<{widths[1]}}  {c:<{widths[2]}}  "
                f"{reason}"
            )
            if origin != "-":
                line += f"  <- {origin}"
            lines.append(line)
        return "\n".join(lines)
