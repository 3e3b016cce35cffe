"""Reference oracle for the ownership phase (§2.5.2, phase 1).

This is the closure-per-edge implementation that ``repro.core.ownership``
shipped before the phase was fused into one table-direct loop, moved here
verbatim (only the entry point is renamed) and since re-expressed over the
collection's mark set: where it used to set ``MARK`` in the header it adds
the address to ``heap.marks``, and an ownee it sets ``OWNED`` on is logged
with the engine, which clears the bit at mark end (the fused loop writes no
``OWNED`` bit any more — its mark says the same — so this log is what the
differential compares the fused loop's marked ownees against).  It goes through the public,
fully checked interfaces — ``ObjectHeap.get``, ``reference_slots()``,
``engine.phase1_visit`` / ``on_repeat_encounter`` on every visit,
``OwnerRecord.contains`` for every lookup — so it states the per-step
invariants (what is marked, what is truncated, what is counted) in the
plainest form.  ``tests/test_ownership_fused.py`` runs it against the fused
loop on twin VMs; it is not imported by anything under ``src/``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.registry import OwnerRecord
from repro.heap import header as hdr
from repro.heap.layout import NULL

if TYPE_CHECKING:
    from repro.core.engine import AssertionEngine
    from repro.gc.base import Collector


def reference_ownership_phase(engine: "AssertionEngine", collector: "Collector") -> None:
    """Phase 1: trace from every live owner, truncating at ownees."""
    heap = collector.heap
    registry = engine.registry
    misuse_reported: set[int] = set()
    for record in list(registry.owner_records()):
        owner = heap.maybe(record.owner_address)
        if owner is None or owner.is_freed:
            # Owner already reclaimed by an earlier (minor) collection; the
            # epilogue's owner-death processing handles its ownees.
            continue
        _scan_from_owner(engine, collector, record, owner, misuse_reported)


def _scan_from_owner(
    engine: "AssertionEngine",
    collector: "Collector",
    record: OwnerRecord,
    owner,
    misuse_reported: set[int],
) -> None:
    """Scan one owner region, recording for the engine's ``post_mark`` every
    owner it marks (``(owner, by)``) and every encounter with another
    owner's ownee (``(ownee, holder)``)."""
    heap = collector.heap
    marks = heap.marks
    stats = collector.stats
    stack: list[int] = []
    ownee_queue: list[int] = []
    owner_address = record.owner_address

    def reach(address: int, holder: int) -> None:
        if address == NULL:
            return
        obj = heap.get(address)
        stats.header_bit_checks += 1
        status = obj.status
        if address in marks:
            # Second encounter during GC tracing: same unshared check the
            # root scan performs (§2.5.1).
            engine.on_repeat_encounter(obj, None, None)
            return
        if status & hdr.OWNEE_BIT:
            stats.ownee_lookups += 1
            found, probes = record.contains(address)
            stats.ownee_search_probes += probes
            if found:
                # Mark, set owned, truncate: scan its subtree after the
                # owner's scan completes (back-edge tolerance, §2.5.2).
                marks.add(address)
                obj.status |= hdr.OWNED_BIT
                engine._owned.append(obj)
                stats.objects_traced += 1
                engine.phase1_visit(obj, record)
                if status & hdr.OWNER_BIT:
                    # An own ownee that is itself an owner: a provisional
                    # mark, judged in ``post_mark``.
                    engine._marked_owners.append((address, owner_address))
                ownee_queue.append(address)
            else:
                # Ownee of a different owner: improper use of the assertion.
                # Not marked here; every encounter is recorded with the
                # object that holds it, and ``post_mark`` traces from it if
                # its holder is marked and it is not (it may hang below this
                # region only, and the root scan prunes at the marks above it).
                engine._foreign_ownees.append((address, holder))
                if address not in misuse_reported:
                    misuse_reported.add(address)
                    engine.report_ownership_misuse(obj, record)
            return
        marks.add(address)
        stats.objects_traced += 1
        engine.phase1_visit(obj, record)
        if status & hdr.OWNER_BIT:
            # Another owner, or a back edge to the current one: a
            # provisional mark (the root scan prunes at it), judged in
            # ``post_mark``.
            engine._marked_owners.append((address, owner_address))
            if address != owner_address:
                return  # another owner gets its own scan
        stack.append(address)

    # Seed with the owner's children; deliberately do NOT mark the owner.
    for child in owner.reference_slots():
        stats.edges_traced += 1
        reach(child, owner_address)

    while True:
        while stack:
            obj = heap.get(stack.pop())
            for child in obj.reference_slots():
                stats.edges_traced += 1
                reach(child, obj.address)
        if not ownee_queue:
            break
        # Process deferred ownees: scan the subtree below each one.
        obj = heap.get(ownee_queue.pop())
        for child in obj.reference_slots():
            stats.edges_traced += 1
            reach(child, obj.address)
