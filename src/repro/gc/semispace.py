"""A copying SemiSpace collector.

The paper's technique "will work with any tracing collector" (§2.2); this
collector demonstrates that: it runs the identical mark phase (including the
assertion engine's ownership pre-phase and per-object encounter hooks, and
the path-tracking worklist), then *evacuates* survivors into the other
semispace instead of sweeping — :meth:`Collector._evacuate`, the loop the
generational promotions share, which purges the dead before the first
survivor moves.  Object addresses change across collections; the
forwarding map is applied to every root slot, every surviving reference
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

    def _reclaim(self) -> dict[int, int]:
        """Evacuate the marked into to-space and flip the spaces; only the
        survivors can refer into from-space."""
        with PhaseTimer(self.stats, "sweep_seconds", self._record):
            # With equal-size semispaces the ladder's later rungs are for a
            # badly undersized heap; its OOM surfaces that loudly.
            survivors, fwd = self._evacuate(
                self.from_space, self.heap.marks, self.to_space, "to-space exhausted"
            )
            for obj in survivors:
                self._forward_slots(obj, fwd)
            self._current = 1 - self._current
            self.heap.new_marks()
        return fwd
