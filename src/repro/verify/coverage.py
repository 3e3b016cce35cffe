"""The fault → invariant coverage matrix.

PR 5's injector proves the system *recovers* from its 11 fault kinds;
this module proves every fault is *caught by a named invariant* — the
difference between "nothing crashed" and "the damage was observed by a
check we can point at".  Each fault kind maps to exactly one named
invariant; a chaos run collects per-cell detection evidence, and the
matrix gates the run: a fault kind with zero covering evidence anywhere
in the matrix fails the soak (exit 1).

The invariant names are the catalog documented in DESIGN.md ("Verified
invariants"); the model checker (:mod:`repro.verify.modelcheck`) proves
the collector-level ones exhaustively at small scope, and the chaos
matrix proves each one fires against real injected damage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# No module-level import from repro.faults here: chaos.py imports this module,
# so reaching back into the faults package would be circular.  Key agreement
# with injector.FAULT_KINDS is asserted by the coverage unit tests.

#: fault kind -> (named invariant, what detection looks like).
FAULT_INVARIANTS: dict = {
    "flip-owned": (
        "header-hygiene",
        "sentinel clears a stale OWNED bit (or drops a leftover mark set) "
        "outside a collection",
    ),
    "flip-dead": (
        "assert-dead-verdict",
        "trace reports a DEAD violation with site=None (injected marker)",
    ),
    "flip-unshared": (
        "assert-unshared-verdict",
        "repeat encounter reports an UNSHARED violation with site=None",
    ),
    "dangle-ref": (
        "reference-closure",
        "sentinel/walker flags a slot pointing outside the heap table",
    ),
    "corrupt-freelist": (
        "freelist-live-disjointness",
        "paranoid walker flags a free cell aliasing a live object (or an "
        "orphan bump record); hardened allocator fences it on reuse",
    ),
    "alloc-fail": (
        "allocation-retry-ladder",
        "armed refusal is consumed by the GC/grow retry ladder, no OOM escapes",
    ),
    "raise-reaction": (
        "engine-containment",
        "engine degradation counter moves; the raise never propagates",
    ),
    "raise-sink": (
        "sink-circuit-breaker",
        "telemetry counts sink errors and trips the breaker",
    ),
    "raise-snapshot": (
        "snapshot-containment",
        "collector drops the capture and counts a snapshot failure",
    ),
    "conn-drop": (
        "stream-severance-isolation",
        "victim session records the dropped stream; bystanders bit-identical",
    ),
    "session-kill": (
        "session-eviction-isolation",
        "victim ends 'killed' via typed eviction; budget fully released",
    ),
}

@dataclass
class CoverageMatrix:
    """Aggregated fault → invariant detection evidence across chaos cells."""

    #: fault kind -> list of "cell-label: evidence" strings.
    evidence: dict = field(
        default_factory=lambda: {kind: [] for kind in FAULT_INVARIANTS}
    )

    def add(self, kind: str, cell_label: str, detail: str) -> None:
        self.evidence.setdefault(kind, []).append(f"{cell_label}: {detail}")

    def merge_cell(self, cell_label: str, detections: dict) -> None:
        for kind, detail in detections.items():
            self.add(kind, cell_label, detail)

    def covered(self, kind: str) -> bool:
        return bool(self.evidence.get(kind))

    def missing(self) -> list:
        return [kind for kind in FAULT_INVARIANTS if not self.covered(kind)]

    @property
    def ok(self) -> bool:
        return not self.missing()

    def render(self) -> str:
        lines = ["fault → invariant coverage:"]
        width = max(len(kind) for kind in FAULT_INVARIANTS)
        for kind in FAULT_INVARIANTS:
            invariant, _how = FAULT_INVARIANTS[kind]
            hits = self.evidence.get(kind, [])
            status = f"covered x{len(hits)}" if hits else "NOT COVERED"
            lines.append(f"  {kind:<{width}}  {invariant:<28} {status}")
            if hits:
                lines.append(f"  {'':<{width}}    e.g. {hits[0]}")
        if self.ok:
            lines.append(
                f"  all {len(FAULT_INVARIANTS)} fault kinds caught by a named invariant"
            )
        else:
            lines.append(f"  UNCOVERED fault kind(s): {', '.join(self.missing())}")
        return "\n".join(lines)


def detect_cell(result, probe_problems: list, pending_refusals: int) -> dict:
    """Detection evidence for one heap chaos cell.

    ``result`` is the populated :class:`repro.faults.chaos.CellResult`
    (recovery counters, degradations, violation discriminators already
    read); ``probe_problems`` is the read-only paranoid probe output taken
    after ``apply_remaining`` and *before* the recovery collection — the
    walker seeing the damage is itself detection evidence.
    """
    found: dict = {}
    recovery = result.recovery
    degradations = result.degradations

    cleared = recovery.get("stale_bits_cleared", 0)
    probe_stale = [p for p in probe_problems if "OWNED bit" in p or "mark set" in p]
    if cleared or probe_stale:
        found["flip-owned"] = (
            f"header-hygiene: sentinel cleared {cleared} stale bit(s)"
            if cleared
            else f"header-hygiene: walker flagged {probe_stale[0]!r}"
        )

    if result.injected_dead_violations:
        found["flip-dead"] = (
            "assert-dead-verdict: "
            f"{result.injected_dead_violations} site=None DEAD violation(s)"
        )

    if result.injected_unshared_violations:
        found["flip-unshared"] = (
            "assert-unshared-verdict: "
            f"{result.injected_unshared_violations} site=None UNSHARED violation(s)"
        )

    fenced_refs = recovery.get("refs_fenced", 0)
    probe_dangle = [p for p in probe_problems if "dangling" in p]
    if fenced_refs or probe_dangle:
        found["dangle-ref"] = (
            f"reference-closure: sentinel nulled {fenced_refs} dangling slot(s)"
            if fenced_refs
            else f"reference-closure: walker flagged {probe_dangle[0]!r}"
        )

    probe_alias = [
        p for p in probe_problems if "aliases a live object" in p or "orphan bump" in p
    ]
    fenced_cells = recovery.get("cells_fenced", 0)
    if probe_alias:
        found["corrupt-freelist"] = (
            f"freelist-live-disjointness: walker flagged {probe_alias[0]!r}"
        )
    elif fenced_cells:
        found["corrupt-freelist"] = (
            f"freelist-live-disjointness: allocator fenced {fenced_cells} "
            "aliased cell(s) on reuse"
        )

    if "alloc-fail" in result.kinds_applied and pending_refusals == 0:
        oom = recovery.get("oom_recoveries", 0)
        grew = recovery.get("heap_growths", 0)
        found["alloc-fail"] = (
            "allocation-retry-ladder: armed refusal consumed "
            f"(oom_recoveries={oom}, heap_growths={grew}), no OOM escaped"
        )

    engine_degr = recovery.get("engine_degradations", 0) + degradations.get("engine", 0)
    if engine_degr:
        found["raise-reaction"] = (
            f"engine-containment: {engine_degr} engine degradation(s), raise contained"
        )

    if result.sink_errors or degradations.get("sink", 0):
        found["raise-sink"] = (
            f"sink-circuit-breaker: {result.sink_errors} sink error(s) absorbed"
        )

    snap_failures = recovery.get("snapshot_failures", 0) + degradations.get(
        "snapshot", 0
    )
    if snap_failures:
        found["raise-snapshot"] = (
            f"snapshot-containment: {snap_failures} capture failure(s) dropped"
        )

    return found


def detect_tenant_cell(result, victim) -> dict:
    """Detection evidence for the service-layer tenant-isolation cell."""
    found: dict = {}
    if victim.connection_dropped:
        found["conn-drop"] = (
            "stream-severance-isolation: victim stream severed, "
            "bystanders bit-identical"
        )
    if victim.outcome == "killed":
        found["session-kill"] = (
            "session-eviction-isolation: victim evicted as 'killed', "
            "admission budget fully released"
        )
    return found
