"""A generational mark-sweep collector.

§2.2 of the paper: "Our technique will work with any tracing collector, such
as generational mark/sweep.  A generational collector, however, performs
full-heap collections infrequently, allowing some assertions to go unchecked
for long periods of time."

This collector exists to measure exactly that effect (experiment ``abl-gen``
in DESIGN.md): a bump-allocated nursery collected by frequent *minor*
collections that check **no** assertions, plus a free-list mature space
collected by infrequent *full-heap* mark-sweep collections that run the
complete assertion machinery.  Minor collections are kept sound by a
reference-store write barrier that records mature objects pointing into the
nursery (the remembered set).

The mature space sweeps through the shared :class:`ChunkSweeper`.  Under
``sweep_mode="eager"`` (default) the full-heap pause keeps its classic
shape; under ``"lazy"`` the pause ends after marking and promotion, and
mature chunks are reclaimed on demand — promotion and mutator mature
allocation repay debt on the shared allocation ladder, whose per-chunk
purge upholds the purge-before-reuse invariant the eager path gets from its
single bulk purge.  One lazy-mode imprecision: a dead-but-unswept mature
object can still sit in the remembered set, so the nursery objects it
references float for one extra minor cycle — the same one-GC slack the
paper accepts for its ownership phase (§2.5.2).
"""

from __future__ import annotations

from functools import partial

from repro.gc.base import Collector
from repro.gc.stats import PhaseTimer
from repro.heap.heap import SPACE_STRIDE
from repro.heap.layout import HEAP_BASE_ADDRESS, NULL
from repro.heap.object_model import ClassDescriptor, HeapObject
from repro.heap.space import BumpSpace, FreeListSpace
from repro.heap.zones import DEFAULT_ZONE_COUNT, ZoneMap

#: Fraction of the total heap budget given to the nursery.
DEFAULT_NURSERY_FRACTION = 0.15

#: Objects bigger than this fraction of the nursery allocate directly mature.
LARGE_OBJECT_FRACTION = 0.25


class GenerationalCollector(Collector):
    """Bump nursery + mark-sweep mature space, with a remembered set."""

    name = "generational"
    moving = True  # nursery survivors are promoted (moved) into mature space
    log_tag = "fullGC"

    def __init__(
        self,
        heap_bytes: int,
        engine=None,
        track_paths=None,
        sweep_mode: str = "eager",
        hardened: bool = False,
        max_heap_bytes=None,
        gc_workers: int = 0,
        zones: int = DEFAULT_ZONE_COUNT,
    ):
        super().__init__(heap_bytes, engine, track_paths, hardened, max_heap_bytes)
        if gc_workers > 0:
            # The nursery/mature pair keeps its legacy layout; full-heap
            # parallel marks bucket addresses by granule hash instead.
            # Minor collections are untouched (their copying scan is not a
            # mark drain and checks no assertions anyway).
            self.gc_workers = gc_workers
            self.zone_map = ZoneMap.hashed(zones)
        nursery_bytes = max(4096, int(heap_bytes * DEFAULT_NURSERY_FRACTION))
        self.nursery = BumpSpace("nursery", nursery_bytes, HEAP_BASE_ADDRESS + SPACE_STRIDE)
        self.mature = FreeListSpace("mature", heap_bytes - nursery_bytes, HEAP_BASE_ADDRESS)
        self._large_threshold = int(nursery_bytes * LARGE_OBJECT_FRACTION)
        self._sweep_with(self.mature, sweep_mode)
        #: Addresses of mature objects that may hold nursery references.
        self.remembered: set[int] = set()

    # -- allocation -----------------------------------------------------------------

    def allocate(self, cls: ClassDescriptor, length: int = 0) -> HeapObject:
        nbytes = cls.size_of(length)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.alloc_hist.record(nbytes)
        if nbytes > self._large_threshold:
            return self._allocate_mature(cls, length, nbytes)
        address = self.nursery.allocate(nbytes)
        if address is None:
            self.collect_minor(reason=f"nursery full ({nbytes} bytes requested)")
            address = self.nursery.allocate(nbytes)
            if address is None:
                return self._allocate_mature(cls, length, nbytes)
        return self.heap.install(address, cls, length)

    def _allocate_mature(self, cls: ClassDescriptor, length: int, nbytes: int) -> HeapObject:
        cell = (
            self.mature.allocate, cls, nbytes,
            "mature space full after full-heap GC", "mature allocation",
        )
        install = partial(self.heap.install, cls=cls, length=length)
        return self._place(install, self.mature, self._allocate_cell(*cell), *cell)

    def bytes_in_use(self) -> int:
        return self.nursery.bytes_in_use + self.mature.bytes_in_use

    def _grow_spaces(self, delta: int) -> None:
        # All growth goes to the mature space: the nursery's size governs
        # minor-collection cadence, which growth should not perturb.
        self.mature.capacity_bytes += delta

    # -- write barrier ----------------------------------------------------------------

    def write_barrier(self, src: HeapObject, new_address: int) -> None:
        """Record mature→nursery stores in the remembered set."""
        if new_address != NULL and self.nursery.contains(new_address) and not self.nursery.contains(src.address):
            self.remembered.add(src.address)

    # -- minor collection ---------------------------------------------------------------

    def collect_minor(self, reason: str = "explicit-minor") -> None:
        """Nursery-only collection.  Checks **no** assertions (§2.2).

        No hardened sentinel runs here: the minor trace is visited-set
        based and filters every edge through ``nursery.contains``, so a
        dangled or retargeted reference simply fails the filter — minor
        collections are naturally fault-robust and stay unsentineled to
        keep their pause cost unchanged.
        """
        # If the mature space cannot absorb the worst-case survivor volume,
        # try repaying sweep debt first, then fall back to a full-heap
        # collection (which also empties the nursery).
        headroom = int(self.nursery.bytes_in_use * 1.5)
        if self.mature.bytes_free < headroom:
            if self._sweeper.debt:
                self.sweep_all()
            if self.mature.bytes_free < headroom:
                self.collect(reason=f"{reason}; mature too full for promotion")
                return
        # The span opens only now: the fallback above delegated to collect(),
        # which records its own ``collect`` span (a minor span wrapping a
        # full one would misattribute the whole pause to the minor kind).
        with self._span("collect", kind="minor", reason=reason):
            pending = self._telemetry_begin("minor", reason)
            with PhaseTimer(self.stats, "gc_seconds", self.span_tracer, "pause"):
                self.stats.collections += 1
                self.stats.minor_collections += 1
                self.gc_log.append(f"minorGC {self.stats.collections}: {reason}")
                freed, fwd = self._minor_trace_and_promote()
            self._finish_collection(freed, fwd, purge_only=True)
            self._telemetry_end(pending)
            if self.paranoid:
                # Unlike the sentinel (skipped above), the paranoid walk is
                # debt-aware and read-only, so it can bracket minor GCs too.
                self._paranoid_check("post-minor")

    def _minor_trace_and_promote(self) -> tuple[set[int], dict[int, int]]:
        heap = self.heap
        stats = self.stats
        nursery = self.nursery

        # Mark phase restricted to nursery objects; roots are the VM roots
        # plus the fields of remembered mature objects.  The marks are a set
        # of this collection's own: ``heap.marks`` may still be what the
        # last full collection's unswept mature chunks are judged by.
        visited: set[int] = set()
        stack: list[int] = []

        def reach(address: int) -> None:
            if address != NULL and nursery.contains(address) and address not in visited:
                visited.add(address)
                stack.append(address)

        with PhaseTimer(stats, "mark_seconds", self.span_tracer, "mark"):
            for _desc, address in self._roots():
                reach(address)
            for src_address in self.remembered:
                src = heap.maybe(src_address)
                if src is None:
                    continue
                for child in src.reference_slots():
                    reach(child)
            while stack:
                obj = heap.get(stack.pop())
                stats.objects_traced += 1
                for child in obj.reference_slots():
                    stats.edges_traced += 1
                    reach(child)

        # Promotion: move every survivor into the mature space.
        fwd: dict[int, int] = {}
        survivors: list[HeapObject] = []
        freed: set[int] = set()
        with PhaseTimer(stats, "sweep_seconds", self.span_tracer, "sweep"):
            for address in nursery.addresses():
                obj = heap.maybe(address)
                if obj is None:
                    continue
                stats.objects_swept += 1
                if address in visited:
                    new_address = self._relocate_into(self.mature, obj, "promotion failed")
                    fwd[address] = new_address
                    survivors.append(obj)
                    stats.objects_promoted += 1
                else:
                    freed.add(address)
                    stats.objects_freed += 1
                    stats.bytes_freed += obj.size_bytes
                    heap.evict(obj)

            # Only survivors, remembered sources, and roots can reference
            # moved objects (the write barrier maintains that invariant).
            for obj in survivors:
                self._forward_slots(obj, fwd)
            for src_address in self.remembered:
                src = heap.maybe(src_address)
                if src is not None:
                    self._forward_slots(src, fwd)

            nursery.reset()
            self.remembered.clear()
        return freed, fwd

    # -- full-heap collection --------------------------------------------------------------

    def _prologue(self) -> None:
        with self._span("prologue"):
            self.sweep_all()

    def _reclaim(self):
        """Sweep both spaces, then promote every nursery survivor (the
        nursery is empty afterwards).

        Promotion may recycle mature cells freed by this very sweep, so all
        address-keyed metadata (assertion registry, region queues) is purged
        before any such cell can be handed out — eagerly in one bulk purge
        between sweeping and promotion, lazily per chunk inside
        the allocation ladder — and the epilogue is left nothing to purge.
        """
        self._sweeper.schedule()
        freed = self._sweep_nursery_dead()
        if self.sweep_mode == "eager":
            freed |= self._sweeper.drain_eager()
        # Lazily, mature chunks stay pending and only the chunk sweeper
        # (which purges per chunk) can recycle their cells during promotion.
        self._purge_before_reuse(freed)
        return None, self._promote_survivors()

    def _sweep_nursery_dead(self) -> set[int]:
        """Evict dead nursery objects (the nursery never sweeps lazily —
        promotion empties it inside the pause regardless of mode)."""
        heap = self.heap
        stats = self.stats
        nursery = self.nursery
        marks = heap.marks
        freed: set[int] = set()
        with PhaseTimer(stats, "sweep_seconds", self.span_tracer, "sweep"):
            for address in nursery.addresses():
                obj = heap.maybe(address)
                if obj is None:
                    continue
                stats.objects_swept += 1
                if address in marks:
                    continue
                freed.add(address)
                stats.objects_freed += 1
                stats.bytes_freed += obj.size_bytes
                nursery.release(address)
                heap.evict(obj)
        return freed

    def _promote_survivors(self) -> dict[int, int]:
        """Move surviving nursery objects into the mature space.

        Iterates the nursery only: in lazy mode the heap table still holds
        dead-but-unswept mature objects, which only the chunk sweep may
        judge.  ``relocate`` takes a promoted object's old address out of
        the mark set and re-stamps it past the sweep cutoff, so a pending
        chunk sweep never mistakes it for the cell's old occupant.
        """
        heap = self.heap
        stats = self.stats
        nursery = self.nursery
        fwd: dict[int, int] = {}
        with PhaseTimer(stats, "sweep_seconds", self.span_tracer, "sweep"):
            for address in nursery.addresses():
                obj = heap.maybe(address)
                if obj is None:
                    continue
                new_address = self._relocate_into(self.mature, obj, "promotion failed")
                fwd[address] = new_address
                stats.objects_promoted += 1
            if fwd:
                # Promotion moved objects: any live object may reference them.
                for obj in heap:
                    self._forward_slots(obj, fwd)
            nursery.reset()
            self.remembered.clear()
        return fwd
