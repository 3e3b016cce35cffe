"""The tracing engine: transitive marking with type-tagged path tracking.

This implements the paper's §2.7 worklist algorithm, which keeps an object
*on* the worklist while its children are being traced:

    "We pop a reference from the worklist, set its low order bit and push it
    back onto the worklist; then we continue to scan the object normally.
    [...] at any given time during tracing, the subset of the worklist whose
    references have their low bit set define the complete path from the root
    to the current object."

Here the tag is the entry's type, as the OCaml runtime's ``Is_int`` tells
an immediate from a pointer by its representation: an untagged entry is
the :class:`HeapObject` its discovering edge resolved, and scanning it
pushes its address, an ``int``, in its place, so the ``int`` entries are
exactly the root-to-current path (an object with no reference slot has no
child to ask, so it pushes none).  :meth:`Tracer.current_path_addresses`
reads that path — violation reports map it through ``path_entries``, one
entry per address per engine, until the address is freed or its object
moves — and :meth:`Tracer.current_path` materializes it.

**The mark lives beside the heap.**  A collection's marks are one set of
addresses, ``heap.marks``; no header bit is involved.  Building a
:class:`Tracer` starts a fresh set (so whoever builds one has repaid any
lazy-sweep debt first — every collector's ``collect`` does), the ownership
phase and the drains below all mark into it, and the sweep reads it.  The
per-edge test is ``child in marks``: a repeat edge costs one set probe and
never loads the child object; a first encounter's one ``table.get`` is both
the dangling test (a dangling child still raises ``InvalidAddressError`` at
the edge that discovered it) and the resolution, so the pop that scans the
object looks nothing up.

**One encounter protocol.**  Every loop that meets an object — the root
scan, the drains, phase 1 (:mod:`repro.core.ownership`) and the parallel
drains — counts the header check and the instance inline and calls the
engine only when a header bit asks: ``on_first_encounter_slow(obj, tracer,
parent)`` for ``DEAD``, ``OWNEE`` or ``FREED`` on a first encounter, and
``on_repeat_encounter_slow`` for ``UNSHARED`` on a repeat.  With
``engine=None`` and ``track_paths=False`` the tracer is the plain mark loop
of an unmodified collector — the paper's *Base* configuration, against
which the *Infrastructure* overhead is measured.

The drain is one of three fused loops, so an edge never pays for a branch
it cannot take: children are resolved through the heap's address table
(the collector owns the heap during the pause), an object's children are
one C-level call of its class's ``ref_getter`` (or a ref array's own
slots), a null is skipped by its truth, and counters accumulate in locals.

* ``_drain_plain`` marks and nothing else; ``_drain_paths`` adds the tags.
  Either one serves an attached engine with nothing armed
  (``engine.armed_checks()``): no header can matter, so none is read, and
  ``header_bit_checks`` is credited one per edge.
* ``_drain_checked`` reads a first encounter's header (the paper's
  piggyback), and a repeat edge's only while an ``assert-unshared`` is
  registered; it pushes tags only under ``track_paths``.  It runs an armed
  engine, and ``specialized=False`` forces it — a hardened collector with
  no engine, where ``FREED`` is the one slow bit, and the benchmark's
  ``generic`` probe.

No loop records anything but marks and counters: snapshot capture reads
``heap.marks`` once the mark is complete
(:meth:`repro.snapshot.capture.SnapshotSink.record_marked`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import InvalidAddressError, UseAfterFreeError
from repro.heap import header as hdr
from repro.heap.heap import ObjectHeap
from repro.heap.layout import NULL
from repro.heap.object_model import HeapObject
from repro.gc.stats import GcStats

if TYPE_CHECKING:
    from repro.core.engine import AssertionEngine

#: The header bits that send a first encounter to the engine's slow hook.
FIRST_SLOW_BITS = hdr.DEAD_BIT | hdr.OWNEE_BIT | hdr.FREED_BIT


def _zombie(obj: HeapObject, tracer: "Tracer", parent) -> None:
    """The checked drain's slow hook when no engine is attached."""
    raise UseAfterFreeError(f"object at {obj.address:#x} was reclaimed")


class Tracer:
    """One tracing episode (reused across the collection's mark phase)."""

    __slots__ = (
        "heap",
        "stats",
        "engine",
        "track_paths",
        "specialized",
        "snapshot",
        "path_entries",
        "_stack",
        "root_descriptions",
        "_table",
        "_marks",
    )

    def __init__(
        self,
        heap: ObjectHeap,
        stats: GcStats,
        engine: Optional["AssertionEngine"] = None,
        track_paths: bool = True,
        specialized: bool = True,
        snapshot=None,
    ):
        self.heap = heap
        self.stats = stats
        self.engine = engine
        self.track_paths = track_paths
        self.specialized = specialized
        #: Optional :class:`repro.snapshot.capture.SnapshotSink` for callers
        #: that drive a tracer themselves: :meth:`trace` fills it from the
        #: finished mark set.  (A collector fills its policy's sink itself,
        #: after ``post_mark`` — see ``Collector._run_mark_phase``.)
        self.snapshot = snapshot
        #: address -> ``PathEntry``: the steps reported paths share — the
        #: engine's, which outlive the collection (``engine.path_entries``).
        self.path_entries: dict = engine.path_entries if engine is not None else {}
        self.root_descriptions: dict[int, str] = {}
        #: Objects to scan, and the ``int`` addresses of the current path.
        self._stack: list = []
        self._table = heap.address_table()
        #: This episode's mark set — also ``heap.marks``, where the
        #: ownership phase, the sweep and the walkers find it.
        self._marks = heap.new_marks()

    # -- driving the trace -------------------------------------------------------

    def trace(self, roots: Iterable[tuple[str, int]]) -> int:
        """Mark everything reachable from ``roots``; returns objects marked."""
        before = self.stats.objects_traced
        if self.snapshot is not None:
            roots = list(roots)  # read twice: scanned now, recorded below
        self.scan_roots(roots)
        self.drain()
        if self.snapshot is not None:
            self.snapshot.record_marked(self.heap, roots)
        return self.stats.objects_traced - before

    def scan_roots(self, roots: Iterable[tuple[str, int]]) -> None:
        """Seed the worklist from the root set (the first half of
        :meth:`trace`, split out so a collection times the root scan and
        the drain as separate phases without touching either loop).

        Roots come from the mutator (statics, frames, handles), so each gets
        the checks of ``heap.get``, which runs only to raise its typed error
        for a dangling root or a zombie.  With an engine attached a root
        runs the drains' protocol whether or not anything is armed: a
        repeat is one check and the ``UNSHARED`` test, a first encounter
        one check, the slow mask and an instance count."""
        get = self._table.get
        heap_get = self.heap.get
        marks = self._marks
        mark = marks.add
        push = self._stack.append
        descriptions = self.root_descriptions if self.track_paths else None
        engine = self.engine
        if engine is not None:
            slow_first = engine.on_first_encounter_slow
            slow_repeat = engine.on_repeat_encounter_slow
        first_slow_bits = FIRST_SLOW_BITS
        freed_bit, unshared_bit = hdr.FREED_BIT, hdr.UNSHARED_BIT
        objects = checks = instance_incrs = 0
        try:
            for description, address in roots:
                if address == NULL:
                    continue
                obj = get(address)
                if obj is None or obj.status & freed_bit:
                    heap_get(address)  # raises the typed heap error
                if address in marks:
                    if engine is not None:
                        checks += 1
                        if obj.status & unshared_bit:
                            slow_repeat(obj, self, None)
                    continue
                mark(address)
                objects += 1
                if descriptions is not None:
                    descriptions.setdefault(address, description)
                if engine is not None:
                    checks += 1
                    if obj.status & first_slow_bits:
                        slow_first(obj, self, None)
                    cls = obj.cls
                    if cls.instance_limit is not None:
                        cls.instance_count += 1
                        instance_incrs += 1
                push(obj)
        finally:
            stats = self.stats
            stats.objects_traced += objects
            stats.header_bit_checks += checks
            stats.instance_count_increments += instance_incrs

    def drain(self) -> None:
        """Process the worklist to empty."""
        engine = self.engine
        armed = repeats_armed = False
        if engine is not None:
            armed, repeats_armed = engine.armed_checks()
        if armed or not self.specialized:
            self._drain_checked(repeats_armed)
        elif self.track_paths:
            self._drain_paths(credit_header_checks=engine is not None)
        else:
            self._drain_plain(credit_header_checks=engine is not None)

    # -- fused drains -----------------------------------------------------------------
    #
    # Each loop below is the same algorithm with a different fixed feature
    # set; the loop bodies are intentionally duplicated so the per-edge path
    # carries no engine/paths conditionals and no method calls.  The two
    # unchecked loops credit ``header_bit_checks`` one per edge (less a
    # dangling edge, which raises before its check) when an unarmed engine
    # is attached: the checked loop would have counted exactly that.

    def _drain_plain(self, credit_header_checks: bool = False) -> None:
        """Base configuration: mark loop with nothing else in it."""
        stack = self._stack
        get = self._table.get
        marks = self._marks
        push = stack.append
        mark = marks.add
        objects = edges = dangling = 0
        try:
            while stack:
                obj = stack.pop()
                cls = obj.cls
                refs = cls.ref_getter
                if refs is not None:
                    children = refs(obj.slots)
                elif cls.ref_array:
                    children = obj.slots
                else:
                    continue
                for child in children:
                    if not child:
                        continue
                    edges += 1
                    if child in marks:
                        continue
                    cobj = get(child)
                    if cobj is None:
                        dangling = 1
                        raise InvalidAddressError(f"no live object at {child:#x}")
                    mark(child)
                    objects += 1
                    push(cobj)
        finally:
            stats = self.stats
            stats.objects_traced += objects
            stats.edges_traced += edges
            if credit_header_checks:
                stats.header_bit_checks += edges - dangling

    def _drain_paths(self, credit_header_checks: bool = False) -> None:
        """Infrastructure configuration: path tagging, no header read."""
        stack = self._stack
        get = self._table.get
        marks = self._marks
        push = stack.append
        mark = marks.add
        objects = edges = tagged = dangling = 0
        try:
            while stack:
                obj = stack.pop()
                if type(obj) is int:
                    # A tagged entry: everything below it is done.
                    continue
                tagged += 1
                cls = obj.cls
                refs = cls.ref_getter
                if refs is not None:
                    children = refs(obj.slots)
                elif cls.ref_array:
                    children = obj.slots
                else:
                    continue  # no child can ask for the path: no tag to push
                push(obj.address)
                for child in children:
                    if not child:
                        continue
                    edges += 1
                    if child in marks:
                        continue
                    cobj = get(child)
                    if cobj is None:
                        dangling = 1
                        raise InvalidAddressError(f"no live object at {child:#x}")
                    mark(child)
                    objects += 1
                    push(cobj)
        finally:
            stats = self.stats
            stats.objects_traced += objects
            stats.edges_traced += edges
            stats.path_entries_tagged += tagged
            if credit_header_checks:
                stats.header_bit_checks += edges - dangling

    def _drain_checked(self, repeats_armed: bool = False) -> None:
        """The encounter protocol inline: WithAssertions, a hardened
        collector's trace, and ``specialized=False``.

        The engine's per-object duties (header-bit check counting, instance
        counting) live directly in the loop; the engine is called only when
        a header bit shows actual assertion work — ``DEAD_BIT`` or
        ``OWNEE_BIT`` on a first encounter, ``UNSHARED_BIT`` on a repeat —
        or a zombie: ``FREED_BIT`` on a first encounter, which it raises.
        With no engine ``FREED_BIT`` is the only slow bit and the loop
        raises what ``heap.get`` would.  A first encounter reads the header
        of the object its table probe resolved; a repeat edge loads the
        child only while ``repeats_armed`` — an ``assert-unshared`` is
        registered — and otherwise costs the set probe and nothing else.
        With an engine every edge is one header-bit check either way, so the
        count is the edge count (less a dangling edge, which raises before
        its check).
        """
        stack = self._stack
        table = self._table
        get = table.get
        marks = self._marks
        push = stack.append
        mark = marks.add
        track_paths = self.track_paths
        unshared_bit = hdr.UNSHARED_BIT
        engine = self.engine
        if engine is not None:
            first_slow_bits = FIRST_SLOW_BITS
            slow_first = engine.on_first_encounter_slow
            slow_repeat = engine.on_repeat_encounter_slow
        else:
            first_slow_bits = hdr.FREED_BIT
            slow_first = _zombie
        objects = edges = popped = instance_incrs = dangling = 0
        try:
            while stack:
                obj = stack.pop()
                if type(obj) is int:
                    continue
                popped += 1
                cls = obj.cls
                refs = cls.ref_getter
                if refs is not None:
                    children = refs(obj.slots)
                elif cls.ref_array:
                    children = obj.slots
                else:
                    continue
                if track_paths:
                    push(obj.address)
                for child in children:
                    if not child:
                        continue
                    edges += 1
                    if child in marks:
                        if repeats_armed:
                            cobj = table[child]
                            if cobj.status & unshared_bit:
                                slow_repeat(cobj, self, obj)
                        continue
                    cobj = get(child)
                    if cobj is None:
                        dangling = 1
                        raise InvalidAddressError(f"no live object at {child:#x}")
                    mark(child)
                    objects += 1
                    # Hooks may reconstruct the current path, so counters are
                    # flushed lazily but the worklist is always consistent
                    # (parent tagged and on-stack) at this point.
                    if cobj.status & first_slow_bits:
                        slow_first(cobj, self, obj)
                    ccls = cobj.cls
                    if ccls.instance_limit is not None:
                        ccls.instance_count += 1
                        instance_incrs += 1
                    push(cobj)
        finally:
            stats = self.stats
            stats.objects_traced += objects
            stats.edges_traced += edges
            stats.instance_count_increments += instance_incrs
            if track_paths:
                stats.path_entries_tagged += popped
            if engine is not None:
                stats.header_bit_checks += edges - dangling

    # -- path reconstruction -------------------------------------------------------

    def current_path_addresses(self, tip: Optional[int] = None) -> list[int]:
        """Addresses of the current root-to-object path, root first.

        The cheap variant of :meth:`current_path`: one worklist scan, no
        heap lookups and no ``HeapObject`` list.  ``tip`` (an address) is
        appended when it is not already the last tagged entry.
        """
        if not self.track_paths:
            return [tip] if tip is not None else []
        chain = [entry for entry in self._stack if type(entry) is int]
        if tip is not None and (not chain or chain[-1] != tip):
            chain.append(tip)
        return chain

    def path_depth(self) -> int:
        """Length of the current path (tagged worklist entries only)."""
        return len(self.current_path_addresses())

    def current_path(self, tip: Optional[HeapObject] = None):
        """Reconstruct the root-to-current-object path from the worklist.

        Returns ``(root_description, [HeapObject, ...])`` where the list runs
        root-first and ends at ``tip`` (if given).  Returns ``(None, [tip])``
        when path tracking is disabled.
        """
        if not self.track_paths:
            return None, ([tip] if tip is not None else [])
        heap = self.heap
        addresses = self.current_path_addresses(tip.address if tip is not None else None)
        chain = [heap.get(address) for address in addresses]
        if tip is not None and chain and chain[-1].address == tip.address:
            chain[-1] = tip
        root_desc = self.root_descriptions.get(chain[0].address) if chain else None
        return root_desc, chain

