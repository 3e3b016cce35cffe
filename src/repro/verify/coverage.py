"""The fault → invariant coverage matrix.

The fault injector proves the system *recovers* from every fault kind;
this module proves every fault is *caught by a named invariant* — the
difference between "nothing crashed" and "the damage was observed by a
check we can point at".  Each fault kind maps to exactly one named
invariant; a chaos run collects per-cell detection evidence, and the
matrix gates the run: a fault kind with zero covering evidence anywhere
in the matrix fails the soak (exit 1).

The two heap-level names (``reference-closure``,
``freelist-live-disjointness``) are entries of the invariant catalogue in
:mod:`repro.gc.verify` and a probe finding counts for the entry it is filed
under, whatever its text; the others name verdicts and containment
counters outside the heap (both lists: DESIGN.md, "Verified invariants").
The model checker proves the collector-level invariants exhaustively at
small scope; the chaos matrix proves each fires against injected damage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# No module-level import from repro.faults here: chaos.py imports this module,
# so reaching back into the faults package would be circular.  Key agreement
# with injector.FAULT_KINDS is asserted by the coverage unit tests.

#: fault kind -> (named invariant, what detection looks like).
FAULT_INVARIANTS: dict = {
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


def detect_cell(result, probe: list, pending_refusals: int) -> dict:
    """Detection evidence for one heap chaos cell.

    ``result`` is the populated :class:`repro.faults.chaos.CellResult`
    (recovery counters, degradations, violation discriminators already
    read); ``probe`` is the read-only paranoid probe — the
    :class:`~repro.gc.verify.Finding` list of both tiers — taken after
    ``apply_remaining`` and *before* the recovery collection: the walker
    seeing the damage is itself detection evidence.
    """
    found: dict = {}
    recovery = result.recovery
    degradations = result.degradations

    #: invariant -> the probe's first finding under that name, as evidence.
    walker = {
        finding.invariant: f"{finding.invariant}: walker flagged {finding.message!r}"
        for finding in reversed(probe)
    }

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
    if fenced_refs:
        found["dangle-ref"] = (
            f"reference-closure: sentinel nulled {fenced_refs} dangling slot(s)"
        )
    elif "reference-closure" in walker:
        found["dangle-ref"] = walker["reference-closure"]

    fenced_cells = recovery.get("cells_fenced", 0)
    if "freelist-live-disjointness" in walker:
        found["corrupt-freelist"] = walker["freelist-live-disjointness"]
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

    # An engine degradation or a failed capture bumps its ``RecoveryStats``
    # counter and is streamed as a degraded event too: count it once.
    engine_degr = recovery.get("engine_degradations", 0)
    if engine_degr:
        found["raise-reaction"] = (
            f"engine-containment: {engine_degr} engine degradation(s), raise contained"
        )

    if result.sink_errors or degradations.get("sink", 0):
        found["raise-sink"] = (
            f"sink-circuit-breaker: {result.sink_errors} sink error(s) absorbed"
        )

    snap_failures = recovery.get("snapshot_failures", 0)
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
