"""A copying SemiSpace collector.

The paper's technique "will work with any tracing collector" (§2.2); this
collector demonstrates that: it runs the identical mark phase (including the
assertion engine's ownership pre-phase and per-object encounter hooks, and
the path-tracking worklist), then *evacuates* survivors into the other
semispace instead of sweeping.  Object addresses change across collections;
the forwarding map is applied to every root slot, every surviving reference
slot, the assertion engine's metadata, and thread region queues, and
Python-side handles stay valid because they reference the
:class:`~repro.heap.object_model.HeapObject` identity, not the address.
"""

from __future__ import annotations

from repro.gc.base import Collector
from repro.gc.stats import PhaseTimer
from repro.heap.heap import SPACE_STRIDE
from repro.heap.layout import HEAP_BASE_ADDRESS
from repro.heap.object_model import ClassDescriptor, HeapObject
from repro.heap.space import BumpSpace


class SemiSpaceCollector(Collector):
    """Two-space copying collector: bump allocation, whole-space evacuation."""

    name = "semispace"
    moving = True

    def __init__(
        self,
        heap_bytes: int,
        engine=None,
        track_paths=None,
        hardened: bool = False,
        max_heap_bytes=None,
    ):
        super().__init__(heap_bytes, engine, track_paths, hardened, max_heap_bytes)
        half = heap_bytes // 2
        self._spaces = (
            BumpSpace("ss0", half, HEAP_BASE_ADDRESS),
            BumpSpace("ss1", half, HEAP_BASE_ADDRESS + SPACE_STRIDE),
        )
        self._current = 0

    @property
    def from_space(self) -> BumpSpace:
        return self._spaces[self._current]

    @property
    def to_space(self) -> BumpSpace:
        return self._spaces[1 - self._current]

    # -- allocation -----------------------------------------------------------------

    def allocate(self, cls: ClassDescriptor, length: int = 0) -> HeapObject:
        nbytes = cls.size_of(length)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.alloc_hist.record(nbytes)
        address = self.from_space.allocate(nbytes)
        if address is None:
            # The collection rung flips the spaces: ask for from-space anew.
            address = self._under_pressure(
                lambda n: self.from_space.allocate(n),
                cls, nbytes, "semispace full after collection", "allocation",
            )
        return self.heap.install(address, cls, length)

    def bytes_in_use(self) -> int:
        return self.from_space.bytes_in_use

    def _grow_spaces(self, delta: int) -> None:
        # Both halves grow equally so evacuation capacity keeps up.
        half = delta // 2
        for space in self._spaces:
            space.capacity_bytes += half

    # -- collection -----------------------------------------------------------------

    def _reclaim(self) -> tuple[set[int], dict[int, int]]:
        """Copy marked objects to the to-space; reclaim everything else.

        To-space addresses are disjoint from the freed from-space ones, so
        the epilogue purges: nothing freed here can have been reused yet.
        """
        heap = self.heap
        stats = self.stats
        from_space, to_space = self.from_space, self.to_space
        marks = heap.marks
        freed: set[int] = set()
        fwd: dict[int, int] = {}
        survivors: list[HeapObject] = []

        with PhaseTimer(stats, "sweep_seconds", self.span_tracer, "sweep"):
            for address in from_space.addresses():
                obj = heap.maybe(address)
                if obj is None:
                    continue
                stats.objects_swept += 1
                if address in marks:  # read before relocate changes the key
                    # With equal-size semispaces the ladder's later rungs are
                    # for a badly undersized heap; its OOM surfaces that loudly.
                    fwd[address] = self._relocate_into(to_space, obj, "to-space exhausted")
                    survivors.append(obj)
                else:
                    freed.add(address)
                    stats.objects_freed += 1
                    stats.bytes_freed += obj.size_bytes
                    heap.evict(obj)

            # Rewrite surviving reference slots through the forwarding map.
            for obj in survivors:
                self._forward_slots(obj, fwd)

            from_space.reset()
            self._current = 1 - self._current
            heap.new_marks()
        return freed, fwd
