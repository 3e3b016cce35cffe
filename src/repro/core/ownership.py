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

**Phase 2** is the normal root scan: the engine's ``on_first_encounter_slow``
hook reports any ownee it is the first to reach — phase 1 did not mark it,
so it is not reachable from its owner: it (or a path to it) outlived it.

Everything marked in phase 1 stays marked for phase 2, so owner-reachable
subgraphs are never traced twice ("we are able to check the ownership
assertion without per-object memory overhead or processing any objects
twice") — and, exactly as the paper concedes, objects reachable only from a
*dead* owner survive this collection as floating garbage.

**How phase 1 is written.**  :func:`run_ownership_phase` is one fused
loop for the whole phase — the treatment the tracer's drains give phase 2 —
with its locals bound once, not once per owner record:

* marks go into ``heap.marks``, the collection's one mark set, so the
  root scan prunes at them; a repeat edge is one set probe and reads the
  child's header only while an ``assert-unshared`` is registered;
* a first encounter's ``table.get`` resolves the child once for the stack
  or the ownee queue (a miss or a freed object goes back through
  ``heap.get`` for the typed error); children are the class's
  ``ref_getter`` over the slots, or a ref array's slots; a null is falsy;
* a first encounter takes one of two short paths where it can.  A child
  whose header has none of ``OWNEE``, ``OWNER``, ``DEAD`` and ``FREED`` is
  marked and counted, and stacked only if its class has reference slots: a
  leaf's pop would scan nothing.  An ``OWNEE`` with none of the other three
  bits whose ``ownee_owner`` entry is this record's owner is marked,
  counted and queued.  Anything else takes the general ladder below them;
* it runs the tracer's encounter protocol: it counts checks and
  instances itself, and calls ``engine.phase1_dead`` only for ``DEAD_BIT``
  and ``engine.on_repeat_encounter_slow`` only for ``UNSHARED_BIT``;
* own-ownee membership is ``registry.ownee_owner``, and the lookups are
  accounted as the paper's binary search over the sorted ownee array: a
  hit's probes are :func:`repro.core.registry.probe_depths` of (index,
  length), summed per record at the end (memoised when every ownee was
  hit); a miss (the overlap-misuse path) calls ``OwnerRecord.contains``;
* counters are flushed at a ``finally`` that stays exact when a visit
  raises: a scanned object adds its slot count to ``edges_traced`` (nulls
  included, unlike the drains) and the slots after a raising one come back
  off; objects traced is the growth of the mark set; a header check is a
  first encounter, a repeat or a foreign ownee; a counted instance is one
  ``instance_count_increments``.

The tracer's drains keep stacking leaves: they read no header for a plain
child, so a leaf test there is an extra class read per object, which costs
a heap without leaves more than it saves.

This is not another copy of the tracer's drain: phase 1 tags no paths,
truncates at ownees, runs a second queue and judges ownees per record.  It
has one loop body.  The closure-per-edge implementation it
replaced lives on as the oracle in ``tests/reference_ownership.py``.

The module also provides the **naive** per-pair reachability check that the
paper rejects, used by the ``abl-own`` ablation benchmark to quantify how
much the two-phase design saves.
"""

from __future__ import annotations

from itertools import compress
from operator import length_hint
from typing import TYPE_CHECKING

from repro.core.registry import probe_depths, probe_total
from repro.heap import header as hdr
from repro.heap.layout import NULL

if TYPE_CHECKING:
    from repro.core.engine import AssertionEngine
    from repro.gc.base import Collector


def run_ownership_phase(engine: "AssertionEngine", collector: "Collector") -> None:
    """Phase 1: trace from every live owner, truncating at ownees."""
    heap = collector.heap
    get = heap.address_table().get
    heap_get = heap.get
    phase1_dead = engine.phase1_dead
    on_repeat = engine.on_repeat_encounter_slow
    owner_of = engine.registry.ownee_owner.get
    marks = heap.marks
    mark = marks.add
    freed_bit = hdr.FREED_BIT
    ownee_bit = hdr.OWNEE_BIT
    owner_bit = hdr.OWNER_BIT
    dead_bit = hdr.DEAD_BIT
    unshared_bit = hdr.UNSHARED_BIT
    slow_bits = freed_bit | ownee_bit | owner_bit | dead_bit
    read_repeats = engine.armed_checks()[1]
    count_instances = bool(engine.classes.tracked_types)
    note_owner = engine._marked_owners.append
    foreign = engine._foreign_ownees
    misuse_reported: set[int] = set()
    stack: list = []
    ownee_queue: list = []
    scanned: list = []  # each scanned record's ownee array
    marked_before, foreign_before = len(marks), len(foreign)
    edges = repeats = probes = increments = 0
    pending = iter(())  # the slots of the object being scanned not yet read
    try:
        for record in list(engine.registry.owner_records()):
            owner_address = record.owner_address
            obj = get(owner_address)
            if obj is None or obj.status & freed_bit:
                # Owner already reclaimed by an earlier (minor) collection;
                # the epilogue's owner-death processing handles its ownees.
                continue
            scanned.append(record.ownees)
            # Start at the owner's children; deliberately do NOT mark the
            # owner.  Drain the stack, then scan below one deferred ownee,
            # and repeat until both are empty.
            stack.append(obj)
            while True:
                if stack:
                    obj = stack.pop()
                elif ownee_queue:
                    obj = ownee_queue.pop()
                else:
                    break
                cls = obj.cls
                refs = cls.ref_getter
                if refs is not None:
                    children = refs(obj.slots)
                elif cls.ref_array:
                    children = obj.slots
                else:
                    continue
                edges += len(children)
                for child in (pending := iter(children)):
                    if not child:
                        continue
                    if child in marks:
                        # Second encounter during GC tracing: same unshared
                        # check the root scan performs (§2.5.1).
                        repeats += 1
                        if read_repeats:
                            cobj = get(child)
                            if cobj.status & unshared_bit:
                                on_repeat(cobj, None, None)
                        continue
                    cobj = get(child)
                    if cobj is None:
                        heap_get(child)  # raises the typed heap error
                    status = cobj.status
                    slow = status & slow_bits
                    if not slow:
                        # Ordinary object: stacked only if it has reference
                        # slots, since a leaf's pop scans none.
                        mark(child)
                        ccls = cobj.cls
                        if count_instances and ccls.instance_limit is not None:
                            ccls.instance_count += 1
                            increments += 1
                        if ccls.ref_getter is not None or ccls.ref_array:
                            stack.append(cobj)
                        continue
                    if slow == ownee_bit and owner_of(child) == owner_address:
                        # Own ownee and nothing else: truncate and queue, as
                        # the ladder's own-ownee branch below does.
                        mark(child)
                        if count_instances:
                            ccls = cobj.cls
                            if ccls.instance_limit is not None:
                                ccls.instance_count += 1
                                increments += 1
                        ownee_queue.append(cobj)
                        continue
                    if status & freed_bit:
                        heap_get(child)  # raises the typed heap error
                    if status & ownee_bit and owner_of(child) != owner_address:
                        # Ownee of a different owner: improper use of the
                        # assertion.  Warn once and do not mark; the engine
                        # traces from it after the root scan if its holder
                        # is marked and it is not.
                        probes += record.contains(child)[1]
                        foreign.append((child, obj.address))
                        if child not in misuse_reported:
                            misuse_reported.add(child)
                            engine.report_ownership_misuse(cobj, record)
                        continue
                    mark(child)
                    if status & dead_bit:
                        phase1_dead(cobj, record)
                    if count_instances:
                        ccls = cobj.cls
                        if ccls.instance_limit is not None:
                            ccls.instance_count += 1
                            increments += 1
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
    except BaseException:
        edges -= length_hint(pending)  # the slots after the one that raised
        raise
    finally:
        # A first encounter is a new mark, a foreign ownee a new note; each
        # is a header check and a repeat is one more.  A record's own ownees
        # are marked by its scan alone, once each: they are its hits.
        stats = collector.stats
        marked = len(marks) - marked_before
        foreign_seen = len(foreign) - foreign_before
        stats.objects_traced += marked
        stats.edges_traced += edges
        stats.header_bit_checks += marked + repeats + foreign_seen
        stats.instance_count_increments += increments
        stats.ownee_lookups += foreign_seen
        stats.ownee_search_probes += probes
        for ownees in scanned:
            n = len(ownees)
            if marks.issuperset(ownees):
                stats.ownee_lookups += n
                stats.ownee_search_probes += probe_total(n)
            else:
                hit = list(map(marks.__contains__, ownees))
                stats.ownee_lookups += hit.count(True)
                stats.ownee_search_probes += sum(compress(probe_depths(n), hit))


def run_naive_ownership_check(engine: "AssertionEngine", collector: "Collector") -> None:
    """The general algorithm the paper rejects, for the abl-own ablation.

    For every (owner, ownee) pair, run an independent reachability search
    from the owner.  No marking is shared between pairs, so the cost is
    O(pairs x reachable-subgraph) instead of one shared traversal.  Nothing
    found is marked, so the root scan reaches the ownees: found ones go into
    the engine's address set in place of the paper's ``OWNED`` bit (dropped
    at mark end), so phase-2 detection and reporting match the two-phase
    design.
    """
    heap = collector.heap
    stats = collector.stats
    found_ownees = engine._found_ownees
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
                found_ownees.add(ownee_address)
