"""Snapshot diffing and ranked leak triage.

Two snapshots bracketing a workload turn the leak question into
arithmetic: a leaking type is one whose live population *grows* between
the snapshots, and whose early instances *survive* into the later one —
in the motivating SwapLeak, every ``swap`` strands one more ``SObject``
and one more ``SObject$Rep`` on the undead chain, so both types grow
linearly while healthy types plateau.

Cross-snapshot identity is ``(addr, alloc_seq)``: addresses are recycled
(and moving collectors restamp ``alloc_seq`` on relocation), so an
address match alone proves nothing, but an identity match proves the very
same install survived.  Survivors whose outgoing edges are bit-identical
in both snapshots ("unchanged survivors") are the stalest tier — alive
for the whole interval without a single observed field write, which is
Cork/staleness's definition of a leak suspect arrived at from the other
direction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.snapshot.format import HeapSnapshot


class LeakCandidate:
    """One type's growth profile between two snapshots."""

    __slots__ = (
        "type_name",
        "count_first",
        "count_last",
        "bytes_first",
        "bytes_last",
        "survivors",
        "survivors_unchanged",
    )

    def __init__(
        self,
        type_name: str,
        count_first: int,
        count_last: int,
        bytes_first: int,
        bytes_last: int,
        survivors: int = 0,
        survivors_unchanged: int = 0,
    ):
        self.type_name = type_name
        self.count_first = count_first
        self.count_last = count_last
        self.bytes_first = bytes_first
        self.bytes_last = bytes_last
        self.survivors = survivors
        self.survivors_unchanged = survivors_unchanged

    @property
    def count_delta(self) -> int:
        return self.count_last - self.count_first

    @property
    def bytes_delta(self) -> int:
        return self.bytes_last - self.bytes_first

    def render(self) -> str:
        return (
            f"{self.type_name}: {self.count_first} -> {self.count_last} live "
            f"({self.count_delta:+d} objects, {self.bytes_delta:+d} bytes); "
            f"{self.survivors} survivors, {self.survivors_unchanged} unwritten"
        )

    def __repr__(self) -> str:
        return f"<leak-candidate {self.type_name} {self.bytes_delta:+d}B>"


class SnapshotDiff:
    """The full comparison of two snapshots, leak candidates ranked first."""

    __slots__ = ("first", "last", "candidates", "shrunk", "survivor_identities")

    def __init__(
        self,
        first: "HeapSnapshot",
        last: "HeapSnapshot",
        candidates: list[LeakCandidate],
        shrunk: list[LeakCandidate],
        survivor_identities: set[tuple[int, int]],
    ):
        self.first = first
        self.last = last
        #: Growing types, heaviest byte growth first.
        self.candidates = candidates
        #: Types whose population stayed flat or shrank (not leak suspects).
        self.shrunk = shrunk
        self.survivor_identities = survivor_identities

    def ranked(self) -> list[LeakCandidate]:
        return self.candidates

    def render(self, limit: int = 10) -> str:
        lines = [
            f"Snapshot diff: gc {self.first.gc_number} -> gc {self.last.gc_number} "
            f"({len(self.first)} -> {len(self.last)} live objects, "
            f"{self.first.total_bytes} -> {self.last.total_bytes} bytes, "
            f"{len(self.survivor_identities)} survivors)",
        ]
        if not self.candidates:
            lines.append("No growing types: nothing to triage.")
            return "\n".join(lines)
        lines.append(f"Leak candidates (top {min(limit, len(self.candidates))}):")
        for rank, cand in enumerate(self.candidates[:limit], start=1):
            lines.append(f"  #{rank} {cand.render()}")
        if len(self.candidates) > limit:
            lines.append(f"  ... and {len(self.candidates) - limit} more growing types")
        return "\n".join(lines)


def diff_snapshots(first: "HeapSnapshot", last: "HeapSnapshot") -> SnapshotDiff:
    """Compare two snapshots and rank leak candidates.

    Ranking is byte growth, then object growth, then type name — the name
    tie-break keeps the ranking deterministic when two types grow in
    lock-step (SwapLeak's ``SObject``/``SObject$Rep`` pair grows by
    exactly the same bytes per swap).
    """
    first_types = first.type_summary()
    last_types = last.type_summary()

    survivor_identities = first.identities() & last.identities()
    first_edges = {rec.identity: rec.edges for rec in first.objects.values()}
    survivors_by_type: dict[str, int] = {}
    unchanged_by_type: dict[str, int] = {}
    for rec in last.objects.values():
        ident = rec.identity
        if ident not in survivor_identities:
            continue
        name = rec.type_name
        survivors_by_type[name] = survivors_by_type.get(name, 0) + 1
        if first_edges[ident] == rec.edges:
            unchanged_by_type[name] = unchanged_by_type.get(name, 0) + 1

    growing: list[LeakCandidate] = []
    flat: list[LeakCandidate] = []
    for name in sorted(set(first_types) | set(last_types)):
        count_first, bytes_first = first_types.get(name, (0, 0))
        count_last, bytes_last = last_types.get(name, (0, 0))
        cand = LeakCandidate(
            name,
            count_first,
            count_last,
            bytes_first,
            bytes_last,
            survivors=survivors_by_type.get(name, 0),
            survivors_unchanged=unchanged_by_type.get(name, 0),
        )
        if cand.bytes_delta > 0 or cand.count_delta > 0:
            growing.append(cand)
        else:
            flat.append(cand)
    growing.sort(key=lambda c: (-c.bytes_delta, -c.count_delta, c.type_name))
    return SnapshotDiff(first, last, growing, flat, survivor_identities)
