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

Both kinds of collection empty the nursery with the evacuation loop the
semispace collector uses (:meth:`Collector._evacuate`), which purges the
dead before promoting the survivors.  The mature space sweeps through the
shared :class:`ChunkSweeper`, always inside the full-heap pause, and marks
on one thread: neither a lazy mature sweep nor a parallel full-heap mark
measured a benefit here (DESIGN.md, "considered and removed").
"""

from __future__ import annotations

from functools import partial

from repro.gc.base import Collector
from repro.gc.lazysweep import ChunkSweeper
from repro.gc.stats import PhaseTimer
from repro.heap.heap import SPACE_STRIDE
from repro.heap.layout import HEAP_BASE_ADDRESS, NULL
from repro.heap.object_model import ClassDescriptor, HeapObject
from repro.heap.space import BumpSpace, FreeListSpace

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
        hardened: bool = False,
        max_heap_bytes=None,
    ):
        super().__init__(heap_bytes, engine, track_paths, hardened, max_heap_bytes)
        nursery_bytes = max(4096, int(heap_bytes * DEFAULT_NURSERY_FRACTION))
        self.nursery = BumpSpace("nursery", nursery_bytes, HEAP_BASE_ADDRESS + SPACE_STRIDE)
        self.mature = FreeListSpace("mature", heap_bytes - nursery_bytes, HEAP_BASE_ADDRESS)
        self._large_threshold = int(nursery_bytes * LARGE_OBJECT_FRACTION)
        self._sweeper = ChunkSweeper(self, self.mature)
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
        """Record mature→nursery stores in the remembered set.  The only
        barrier: the VM binds it once, and every strong reference store
        calls it."""
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
        # fall back to a full-heap collection (which also empties the nursery).
        if self.mature.bytes_free < int(self.nursery.bytes_in_use * 1.5):
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
                fwd = self._minor_trace_and_promote()
            self._finish_collection(fwd, False)  # a minor collection checks nothing
            self._telemetry_end(pending)
            if self.paranoid:
                # Unlike the sentinel (skipped above), the paranoid walk is
                # read-only, so it can bracket minor GCs too.
                self._paranoid_check("post-minor")

    def _minor_trace_and_promote(self) -> dict[int, int]:
        heap = self.heap
        stats = self.stats
        nursery = self.nursery

        # Mark phase restricted to nursery objects; roots are the VM roots
        # plus the fields of remembered mature objects.
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
        with PhaseTimer(stats, "sweep_seconds", self.span_tracer, "sweep"):
            survivors, fwd = self._evacuate(nursery, visited, self.mature, "promotion failed")
            stats.objects_promoted += len(survivors)
            # Only survivors, remembered sources, and roots can reference
            # moved objects (the write barrier maintains that invariant).
            for obj in survivors:
                self._forward_slots(obj, fwd)
            for src_address in self.remembered:
                src = heap.maybe(src_address)
                if src is not None:
                    self._forward_slots(src, fwd)
            self.remembered.clear()
        return fwd

    # -- full-heap collection --------------------------------------------------------------

    def _reclaim(self) -> dict[int, int]:
        """Sweep the mature space, then promote every nursery survivor into
        it (the nursery is empty afterwards): sweeping first lets promotion
        reuse the cells this very sweep freed."""
        marks = self.heap.marks  # the sweep ends the set; promotion reads it
        self._sweeper.schedule()
        freed = self._sweeper.drain_eager()
        with PhaseTimer(self.stats, "sweep_seconds", self.span_tracer, "sweep"):
            survivors, fwd = self._evacuate(
                self.nursery, marks, self.mature, "promotion failed", freed
            )
            self.stats.objects_promoted += len(survivors)
            if fwd:
                # Promotion moved objects: any live object may reference them.
                for obj in self.heap:
                    self._forward_slots(obj, fwd)
            self.remembered.clear()
        return fwd
