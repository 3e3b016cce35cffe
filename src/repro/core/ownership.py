"""The ownership phase: checking ``assert-ownedby`` during collection.

§2.5.2 of the paper rejects the general algorithm ("each object being tagged
with all ownees reachable from it [...] prohibitive") in favor of changing
the *order* of tracing:

    "Instead of starting at the roots, we added a new ownership phase to the
    collector that starts tracing from each owner object."

The two-phase algorithm implemented here follows the paper's final design
exactly:

**Phase 1** (this module, run as the engine's ``pre_mark`` hook), for each
registered owner:

* Do **not** mark the owner itself — its liveness is established by the
  normal root scan; if it is unreachable it will be collected this GC.
* If an ownee of the *current* owner is reached: mark it and *truncate*
  the scan there, queueing the ownee so its subtree is scanned after the
  owner's scan completes (how the paper tolerates back edges / overlapping
  data structures).  The mark stands in for the paper's ``OWNED`` bit: the
  root scan prunes at marks, so it would never read one set here.
* If an ownee of a *different* owner is reached: issue an improper-use
  warning (the owner regions are required to be disjoint) and do not mark.
* If a different owner object is reached: mark it and stop — "we will scan
  this owner independently."

Phase 1 marks before liveness is known, and the root scan prunes at its
marks, so it records two facts for ``post_mark`` and nothing else:
``(owner, by)`` for every owner it marks (an own ownee that is an owner, a
back edge to the scanning owner, another owner), and ``(ownee, holder)`` for
every encounter with another owner's ownee.  One rule judges them
(``AssertionEngine._judge_phase1_marks``): a mark phase 1 put on an owner
stands only if the owner whose scan put it there stands, and a foreign
ownee is traced as one more root when its holder is marked and it is not.

**Phase 2** is the normal root scan: the engine's ``on_first_encounter``
hook reports any ownee it is the first to reach — phase 1 did not mark it,
so it is not reachable from its owner: it (or a path to it) outlived it.

Everything marked in phase 1 stays marked for phase 2, so owner-reachable
subgraphs are never traced twice ("we are able to check the ownership
assertion without per-object memory overhead or processing any objects
twice") — and, exactly as the paper concedes, objects reachable only from a
*dead* owner survive this collection as floating garbage.

**How phase 1 is written.**  :func:`run_ownership_phase` is one fused
loop for the whole phase — the treatment the tracer's engine drain gives
phase 2 — with its locals bound once, not once per owner record:

* marks go into ``heap.marks``, the collection's one mark set, so the
  root scan prunes at them; a repeat edge is one set probe and reads the
  child's header only while an ``assert-unshared`` is registered;
* first encounters are resolved through the heap's address table; only a
  miss or a freed object goes back through ``heap.get`` so the caller still
  sees the typed ``InvalidAddressError`` / ``UseAfterFreeError``; the stack
  and the ownee queue hold that object, so a pop is no second lookup;
* reference slots are read in place, through a ``map`` over the class's
  ``ref_slots`` (no per-object list), and an array is told from its class's
  precomputed ``ref_array`` (phase 1 counts null edges in
  ``edges_traced``, which the root-scan drains do not);
* the per-visit header duties are inlined the way ``INLINE_HEADER_CHECKS``
  inlines them into the drains: the check count and the instance count are
  kept in the loop (the instance count only while some class is tracked,
  asked once per phase), ``engine.phase1_visit`` is called only for
  ``DEAD_BIT`` and ``engine.on_repeat_encounter`` only for ``UNSHARED_BIT``
  — or on every visit while a ``check_budget`` is set or checks are off
  for this GC, so the budget trips on exactly the visit it always did;
* the ownee lookup is accounted as the paper's binary search over the
  sorted ownee array (the read of ``record.ownees`` sorts it): a hit's
  probe count is a pure function of (index, length), so the array is
  zipped once per record with :func:`repro.core.registry.probe_depths`
  into a dict whose ``get`` answers membership and ``ownee_search_probes``
  at once.  A miss (the overlap-misuse path) calls ``OwnerRecord.contains``;
* work counters accumulate in locals and are flushed in a ``finally``;
  three of them are not counted per visit but derived at the flush —
  objects traced is the growth of the mark set, header checks are the
  non-null edges (less an edge that raised), engine checks are the header
  checks no hook took over — and phase 1 keeps no list of what it marked,
  only the owners among it.

This is not another copy of the tracer's drain: phase 1 tags no paths,
truncates at ownees, runs a second queue and consults a per-record ownee
table.  It has one loop body.  The closure-per-edge implementation it
replaced lives on as the oracle in ``tests/reference_ownership.py``.

The module also provides the **naive** per-pair reachability check that the
paper rejects, used by the ``abl-own`` ablation benchmark to quantify how
much the two-phase design saves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.registry import probe_depths
from repro.heap import header as hdr
from repro.heap.layout import NULL

if TYPE_CHECKING:
    from repro.core.engine import AssertionEngine
    from repro.gc.base import Collector


def run_ownership_phase(engine: "AssertionEngine", collector: "Collector") -> None:
    """Phase 1: trace from every live owner, truncating at ownees."""
    heap = collector.heap
    table = heap.address_table()
    heap_get = heap.get
    phase1_visit = engine.phase1_visit
    on_repeat = engine.on_repeat_encounter
    marks = heap.marks
    mark = marks.add
    freed_bit = hdr.FREED_BIT
    ownee_bit = hdr.OWNEE_BIT
    owner_bit = hdr.OWNER_BIT
    dead_bit = hdr.DEAD_BIT
    unshared_bit = hdr.UNSHARED_BIT
    # With a per-pause budget (or checks already off for this GC) every
    # visit goes through the hooks, so the budget trips on the same visit.
    hook_every_visit = engine.check_budget is not None or engine.degraded
    read_repeats = hook_every_visit or engine.armed_checks()[1]
    count_instances = bool(engine.classes.tracked_types)
    note_owner = engine._marked_owners.append
    note_foreign = engine._foreign_ownees.append
    misuse_reported: set[int] = set()
    stack: list = []
    ownee_queue: list = []
    # Three counters are derived, not kept: every first encounter is one
    # new entry of ``marks``; every non-null edge is one header check unless
    # it is the edge that raised; and every header check is one engine check
    # unless the visit went to a hook (which counts its own) or was the
    # misuse path (which makes none).
    marked_before = len(marks)
    edges = nulls = raised = lookups = probes = hooked = 0
    try:
        for record in list(engine.registry.owner_records()):
            owner_address = record.owner_address
            obj = table.get(owner_address)
            if obj is None or obj.status & freed_bit:
                # Owner already reclaimed by an earlier (minor) collection;
                # the epilogue's owner-death processing handles its ownees.
                continue
            ownees = record.ownees
            probes_to_find = dict(zip(ownees, probe_depths(len(ownees)))).get
            # Start at the owner's children; deliberately do NOT mark the
            # owner.  Drain the stack, then scan below one deferred ownee,
            # and repeat until both are empty.
            while True:
                cls = obj.cls
                if cls.is_array:
                    children = obj.slots if cls.ref_array else ()
                else:
                    children = map(obj.slots.__getitem__, cls.ref_slots)
                for child in children:
                    edges += 1
                    if child == NULL:
                        nulls += 1
                        continue
                    if child in marks:
                        # Second encounter during GC tracing: same unshared
                        # check the root scan performs (§2.5.1).
                        if read_repeats:
                            cobj = table[child]
                            if hook_every_visit or cobj.status & unshared_bit:
                                hooked += 1
                                on_repeat(cobj, None, None)
                        continue
                    cobj = table.get(child)
                    if cobj is None or cobj.status & freed_bit:
                        raised = 1
                        heap_get(child)  # raises the typed heap error
                    status = cobj.status
                    if status & ownee_bit:
                        lookups += 1
                        depth = probes_to_find(child)
                        if depth is None:
                            # Ownee of a different owner: improper use of
                            # the assertion.  Warn once and do not mark; the
                            # engine traces from it after the root scan if
                            # its holder is marked and it is not.
                            probes += record.contains(child)[1]
                            hooked += 1
                            note_foreign((child, obj.address))
                            if child not in misuse_reported:
                                misuse_reported.add(child)
                                engine.report_ownership_misuse(cobj, record)
                            continue
                        probes += depth
                    mark(child)
                    if hook_every_visit or status & dead_bit:
                        hooked += 1
                        phase1_visit(cobj, record)
                    elif count_instances:
                        ccls = cobj.cls
                        if ccls.instance_limit is not None:
                            ccls.instance_count += 1
                    if status & owner_bit:
                        # An owner: the root scan prunes at this mark, so it
                        # is provisional — it stands only if this record's
                        # owner does (``post_mark`` judges).  An own ownee is
                        # queued, a back edge to this owner is scanned on,
                        # and another owner gets its own scan.
                        note_owner((child, owner_address))
                        if status & ownee_bit:
                            ownee_queue.append(cobj)
                        elif child == owner_address:
                            stack.append(cobj)
                    elif status & ownee_bit:
                        # Own ownee: truncate here, scan its subtree after
                        # the owner's scan completes (back edges, §2.5.2).
                        ownee_queue.append(cobj)
                    else:
                        stack.append(cobj)
                if stack:
                    obj = stack.pop()
                elif ownee_queue:
                    obj = ownee_queue.pop()
                else:
                    break
    finally:
        stats = collector.stats
        stats.objects_traced += len(marks) - marked_before
        stats.edges_traced += edges
        header_checks = edges - nulls - raised
        stats.header_bit_checks += header_checks
        stats.ownee_lookups += lookups
        stats.ownee_search_probes += probes
        engine._checks_this_gc += header_checks - hooked


def run_naive_ownership_check(engine: "AssertionEngine", collector: "Collector") -> None:
    """The general algorithm the paper rejects, for the abl-own ablation.

    For every (owner, ownee) pair, run an independent reachability search
    from the owner.  No marking is shared between pairs, so the cost is
    O(pairs x reachable-subgraph) instead of one shared traversal.  Nothing
    found is marked, so the root scan reaches the ownees: found ones get the
    paper's ``OWNED`` bit (logged with the engine, which clears it at mark
    end) so phase-2 detection and reporting match the two-phase design.
    """
    heap = collector.heap
    stats = collector.stats
    for record in list(engine.registry.owner_records()):
        owner = heap.maybe(record.owner_address)
        if owner is None or owner.is_freed:
            continue
        for ownee_address in record.ownees:
            visited: set[int] = set()
            stack = [c for c in owner.reference_slots() if c != NULL]
            found = False
            while stack:
                address = stack.pop()
                if address in visited:
                    continue
                visited.add(address)
                stats.naive_ownership_visits += 1
                if address == ownee_address:
                    found = True
                    break
                obj = heap.get(address)
                for child in obj.reference_slots():
                    if child != NULL and child not in visited:
                        stack.append(child)
            if found:
                ownee = heap.get(ownee_address)
                ownee.status |= hdr.OWNED_BIT
                engine._owned.append(ownee)
