"""The tracing engine: transitive marking with low-bit path tracking.

This implements the paper's §2.7 worklist algorithm.  The gray-object
worklist holds integer heap addresses; because objects are word aligned the
low-order bit of each entry is free, and the tracer uses it to keep an
object *on* the worklist while its children are being traced:

    "We pop a reference from the worklist, set its low order bit and push it
    back onto the worklist; then we continue to scan the object normally.
    [...] at any given time during tracing, the subset of the worklist whose
    references have their low bit set define the complete path from the root
    to the current object."

:meth:`Tracer.current_path` reconstructs that path on demand.
:meth:`Tracer.current_path_addresses` is the cheap variant (raw addresses,
no object materialization) and what gives violation reports their Figure-1
paths for free — a report maps the addresses through ``path_entries``, one
entry per object per collection — and :meth:`Tracer.path_depth` cheaper
still, for consumers that only need the length.

**The mark lives beside the heap.**  A collection's marks are one set of
addresses, ``heap.marks``; no header bit is involved.  Building a
:class:`Tracer` starts a fresh set (so whoever builds one has repaid any
lazy-sweep debt first — every collector's ``collect`` does), the ownership
phase and the drains below all mark into it, and the sweep reads it.  The
per-edge test is ``child in marks``: a repeat edge costs one set probe and
never loads the child object; a first encounter checks that the child is in
the address table (a dangling child still raises ``InvalidAddressError`` at
the edge that discovered it), inserts it, and leaves the object untouched
until it is popped and scanned.

The tracer calls two assertion hooks on an attached engine:

* ``on_first_encounter(obj, tracer, parent)`` — the object was just marked
  (dead-bit check, instance counting, unowned-ownee detection).
* ``on_repeat_encounter(obj, tracer, parent)`` — the object was already
  marked, i.e. a second incoming reference (unshared-bit check).

With ``engine=None`` and ``track_paths=False`` the tracer degenerates to the
plain mark loop of an unmodified collector — that is the paper's *Base*
configuration, against which the *Infrastructure* overhead is measured.

The drain is specialized into fused worklist loops — ``plain`` (Base),
``paths`` (Infrastructure without an engine), and ``paths+engine`` — so
the per-edge work never pays for branches it cannot take: children are
resolved through the heap's address table directly (no ``ObjectHeap.get``
triple check; the collector owns the heap during the pause), the
``reference_slots`` generator is inlined as a ``map`` over the class's
``ref_slots`` (no Python frame per object — a list comprehension is one
on CPython 3.11), and the hot counters accumulate in locals and flush once
per drain.  When the engine declares ``INLINE_HEADER_CHECKS`` (the
assertion engine does), its per-object duties are inlined too and the
``*_slow`` hooks run only when a header bit shows actual assertion work.  The engine says once per drain which
header reads can matter (``armed_checks()``): a first encounter reads the
child's header — it is about to be scanned anyway, this is the paper's
piggyback; a repeat edge reads it only while an ``assert-unshared`` is
registered; and when nothing at all is armed the drain *is* the paths
loop, with ``header_bit_checks`` credited one per edge as the engine loop
would have counted them.  Engines without ``INLINE_HEADER_CHECKS`` get
every encounter via the full hooks, through the method-per-edge loop that
survives as ``specialized=False`` — it also serves the
engine-without-paths combination and is the benchmark's ``generic`` probe
(``gc.tracer.generic_edges_per_s``), the loop the specialised ones must
beat.

No loop records anything but marks and counters.  Whoever wants to know
*what* was traced reads ``heap.marks`` once the mark is complete — snapshot
capture does (:meth:`repro.snapshot.capture.SnapshotSink.record_marked`),
so it needs no loop of its own.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import InvalidAddressError
from repro.heap import header as hdr
from repro.heap.heap import ObjectHeap
from repro.heap.layout import ADDRESS_TAG_BIT, NULL
from repro.heap.object_model import HeapObject
from repro.gc.stats import GcStats


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
        engine=None,
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
        #: address -> ``PathEntry``: the steps this collection's reported paths share.
        self.path_entries: dict = {}
        self.root_descriptions: dict[int, str] = {}
        self._stack: list[int] = []
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
        :meth:`trace`, split out so the span tracer can time the root scan
        and the drain as separate phases without touching either loop)."""
        for description, address in roots:
            if address == NULL:
                continue
            # Roots come from the mutator (statics, frames, handles), so they
            # go through the checked dereference path.
            self._reach(self.heap.get(address), parent=None, via_root=description)

    def drain(self) -> None:
        """Process the worklist to empty."""
        if not self.specialized:
            if self.track_paths:
                self._drain_with_paths()
            else:
                self._drain_generic_plain()
            return
        engine = self.engine
        if engine is None:
            if self.track_paths:
                self._drain_paths()
            else:
                self._drain_plain()
        elif not self.track_paths:
            # Engine without path tracking: an unusual ablation config;
            # the generic loop handles it without a fourth specialization.
            self._drain_generic_plain()
        elif getattr(engine, "INLINE_HEADER_CHECKS", False):
            armed, repeats_armed = armed_checks(engine)
            if armed:
                self._drain_paths_engine(repeats_armed)
            else:
                self._drain_paths(credit_header_checks=True)
        else:
            self._drain_with_paths()

    # -- specialized fused drains -------------------------------------------------
    #
    # Each loop below is the same algorithm with a different fixed feature
    # set; the loop bodies are intentionally duplicated so the per-edge path
    # carries no engine/paths conditionals and no method calls.

    def _drain_plain(self) -> None:
        """Base configuration: mark loop with nothing else in it."""
        stack = self._stack
        table = self._table
        marks = self._marks
        push = stack.append
        mark = marks.add
        objects = edges = 0
        try:
            while stack:
                obj = table[stack.pop()]
                cls = obj.cls
                if cls.is_array:
                    if not cls.ref_array:
                        continue
                    children = obj.slots
                else:
                    ref_slots = cls.ref_slots
                    if not ref_slots:
                        continue
                    children = map(obj.slots.__getitem__, ref_slots)
                for child in children:
                    if child == NULL:
                        continue
                    edges += 1
                    if child in marks:
                        continue
                    if child not in table:
                        raise InvalidAddressError(f"no live object at {child:#x}")
                    mark(child)
                    objects += 1
                    push(child)
        finally:
            self.stats.objects_traced += objects
            self.stats.edges_traced += edges

    def _drain_paths(self, credit_header_checks: bool = False) -> None:
        """Infrastructure configuration: low-bit path tagging, no engine.

        Also the engine drain while the engine has nothing armed
        (``credit_header_checks``): no header can matter, so none is read,
        and ``header_bit_checks`` gets the one-per-edge the engine loop
        counts.
        """
        stack = self._stack
        table = self._table
        marks = self._marks
        push = stack.append
        mark = marks.add
        tag_bit = ADDRESS_TAG_BIT
        objects = edges = tagged = dangling = 0
        try:
            while stack:
                entry = stack.pop()
                if entry & tag_bit:
                    # Low bit set: all objects reachable from it are done.
                    continue
                push(entry | tag_bit)
                tagged += 1
                obj = table[entry]
                cls = obj.cls
                if cls.is_array:
                    if not cls.ref_array:
                        continue
                    children = obj.slots
                else:
                    ref_slots = cls.ref_slots
                    if not ref_slots:
                        continue
                    children = map(obj.slots.__getitem__, ref_slots)
                for child in children:
                    if child == NULL:
                        continue
                    edges += 1
                    if child in marks:
                        continue
                    if child not in table:
                        dangling = 1  # the edge is counted, its header check is not
                        raise InvalidAddressError(f"no live object at {child:#x}")
                    mark(child)
                    objects += 1
                    push(child)
        finally:
            stats = self.stats
            stats.objects_traced += objects
            stats.edges_traced += edges
            stats.path_entries_tagged += tagged
            if credit_header_checks:
                stats.header_bit_checks += edges - dangling

    def _drain_paths_engine(self, repeats_armed: bool = True) -> None:
        """Infrastructure/WithAssertions: tagging plus inlined header checks.

        The assertion engine's per-object duties (header-bit check counting,
        instance counting) live directly in the loop; the engine is called
        only when a header bit shows actual assertion work — ``DEAD_BIT`` or
        ``OWNEE_BIT`` on a first encounter, ``UNSHARED_BIT`` on a repeat.
        A first encounter loads the child for its header (and its class);
        a repeat edge loads it only while ``repeats_armed`` — an
        ``assert-unshared`` is registered — and otherwise costs the set
        probe and nothing else.  Every edge is one header-bit check either
        way, so the count is the edge count (less a dangling edge, which
        raises before its check).
        """
        stack = self._stack
        table = self._table
        marks = self._marks
        push = stack.append
        mark = marks.add
        tag_bit = ADDRESS_TAG_BIT
        first_slow_bits = hdr.DEAD_BIT | hdr.OWNEE_BIT
        unshared_bit = hdr.UNSHARED_BIT
        engine = self.engine
        slow_first = engine.on_first_encounter_slow
        slow_repeat = engine.on_repeat_encounter_slow
        objects = edges = tagged = instance_incrs = dangling = 0
        try:
            while stack:
                entry = stack.pop()
                if entry & tag_bit:
                    continue
                push(entry | tag_bit)
                tagged += 1
                obj = table[entry]
                cls = obj.cls
                if cls.is_array:
                    if not cls.ref_array:
                        continue
                    children = obj.slots
                else:
                    ref_slots = cls.ref_slots
                    if not ref_slots:
                        continue
                    children = map(obj.slots.__getitem__, ref_slots)
                for child in children:
                    if child == NULL:
                        continue
                    edges += 1
                    if child in marks:
                        if repeats_armed:
                            cobj = table[child]
                            if cobj.status & unshared_bit:
                                slow_repeat(cobj, self, obj)
                        continue
                    cobj = table.get(child)
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
                    push(child)
        finally:
            stats = self.stats
            stats.objects_traced += objects
            stats.edges_traced += edges
            stats.path_entries_tagged += tagged
            stats.header_bit_checks += edges - dangling
            stats.instance_count_increments += instance_incrs

    # -- generic (pre-specialization) drain ----------------------------------------

    def _drain_with_paths(self) -> None:
        stack = self._stack
        heap = self.heap
        stats = self.stats
        while stack:
            entry = stack.pop()
            if entry & ADDRESS_TAG_BIT:
                # Low bit set: all objects reachable from it are done.
                continue
            stack.append(entry | ADDRESS_TAG_BIT)
            stats.path_entries_tagged += 1
            self._scan(heap.get(entry))

    def _drain_generic_plain(self) -> None:
        stack = self._stack
        heap = self.heap
        while stack:
            self._scan(heap.get(stack.pop()))

    def _scan(self, obj: HeapObject) -> None:
        """Visit every outgoing reference of ``obj``."""
        heap = self.heap
        stats = self.stats
        for child in obj.reference_slots():
            if child == NULL:
                continue
            stats.edges_traced += 1
            self._reach(heap.get(child), parent=obj)

    def _reach(
        self,
        obj: HeapObject,
        parent: Optional[HeapObject],
        via_root: Optional[str] = None,
    ) -> None:
        engine = self.engine
        address = obj.address
        marks = self._marks
        if address in marks:
            if engine is not None:
                engine.on_repeat_encounter(obj, self, parent)
            return
        marks.add(address)
        self.stats.objects_traced += 1
        if via_root is not None and self.track_paths:
            self.root_descriptions.setdefault(address, via_root)
        if engine is not None:
            engine.on_first_encounter(obj, self, parent)
        self._stack.append(address)

    # -- path reconstruction -------------------------------------------------------

    def current_path_addresses(self, tip: Optional[int] = None) -> list[int]:
        """Addresses of the current root-to-object path, root first.

        The cheap variant of :meth:`current_path`: one worklist scan, no
        heap lookups and no ``HeapObject`` list.  ``tip`` (an address) is
        appended when it is not already the last tagged entry.
        """
        if not self.track_paths:
            return [tip] if tip is not None else []
        tag_bit = ADDRESS_TAG_BIT
        chain = [entry ^ tag_bit for entry in self._stack if entry & tag_bit]
        if tip is not None and (not chain or chain[-1] != tip):
            chain.append(tip)
        return chain

    def path_depth(self) -> int:
        """Length of the current path (tagged worklist entries only)."""
        tag_bit = ADDRESS_TAG_BIT
        return sum(1 for entry in self._stack if entry & tag_bit)

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


def armed_checks(engine) -> tuple[bool, bool]:
    """``(any header read can matter, a repeat edge's can)`` for an
    ``INLINE_HEADER_CHECKS`` engine, asked once per drain.  An engine that
    does not say gets every read."""
    armed = getattr(engine, "armed_checks", None)
    return armed() if armed is not None else (True, True)
