"""The MarkSweep collector — the paper's configuration.

"We implemented these assertions in Jikes RVM 3.0.0 using the MarkSweep
collector.  We chose MarkSweep because it is a full-heap collector, which
will check all assertions at every garbage collection." (§2.2)

Allocation is segregated-fit free-list allocation with a per-size-class run
cache in front of it (the common case is one capacity check and a
``list.pop``); collection is a full-heap mark phase (with the assertion
engine's pre-mark ownership phase and per-object encounter hooks) followed
by a chunked sweep in one of two disciplines:

* ``sweep_mode="eager"`` (default) — every chunk is swept inside the pause;
  semantics are identical to the classic mark-sweep sequence.
* ``sweep_mode="lazy"`` — the pause ends at mark end; unswept chunks are
  reclaimed incrementally on the allocation slow path (or all at once via
  :meth:`sweep_all`, as the next collection's prologue does).  Until then
  the heap's liveness rule keeps the dead out of every reader's view.
"""

from __future__ import annotations

from functools import partial

from repro.errors import HeapError, InvalidAddressError
from repro.gc.base import Collector
from repro.gc.lazysweep import ChunkSweeper
from repro.gc.stats import PhaseTimer
from repro.gc.tracer import Tracer
from repro.heap.blocks import BlockSpace
from repro.heap.freelist import SIZE_CLASS_LOOKUP, SIZE_CLASSES
from repro.heap.object_model import ClassDescriptor, HeapObject
from repro.heap.space import FreeListSpace
from repro.heap.zones import DEFAULT_ZONE_COUNT, ZoneMap, ZonedFreeListSpace

#: Cells fetched per run-cache refill.  One refill amortizes the free-list
#: bucket lookup (or bump carve) over this many allocations.
RUN_CACHE_CELLS = 16

#: Largest request served by the run cache (the last tabled size class).
_CACHE_LIMIT = SIZE_CLASSES[-1]


class MarkSweepCollector(Collector):
    """Full-heap, non-moving mark-sweep over a segregated-fit space.

    Two space policies are available: ``"freelist"`` (simple per-size-class
    free lists; the default, and what the heap budgets are calibrated for)
    and ``"blocks"`` (Jikes-style block-structured layout with observable
    fragmentation; see :mod:`repro.heap.blocks`).  The run-cache fast path
    applies to the freelist policy; both policies support both sweep modes.
    """

    name = "marksweep"
    moving = False

    def __init__(
        self,
        heap_bytes: int,
        engine=None,
        track_paths=None,
        space_policy: str = "freelist",
        sweep_mode: str = "eager",
        hardened: bool = False,
        max_heap_bytes=None,
        gc_workers: int = 0,
        zones: int = DEFAULT_ZONE_COUNT,
    ):
        super().__init__(heap_bytes, engine, track_paths, hardened, max_heap_bytes)
        #: Parallel marking (:meth:`_drain`) and its last ``ParallelMarkReport``.
        self.gc_workers, self.zone_map, self.last_parallel_mark = gc_workers, None, None
        if space_policy == "freelist":
            if gc_workers > 0:
                # Zone-sharded layout: per-zone free lists at strided bases
                # behind one shared byte budget, so the zone map is exact
                # range arithmetic and GC trigger points are unchanged.
                self.space = ZonedFreeListSpace("ms", heap_bytes, zones=zones)
                self.zone_map = self.space.zone_map()
            else:
                self.space = FreeListSpace("ms", heap_bytes)
        elif space_policy == "blocks":
            self.space = BlockSpace("ms", heap_bytes)
            if gc_workers > 0:
                # The blocks layout is not zone-aware; bucket by granule.
                self.zone_map = ZoneMap.hashed(zones)
        else:
            raise HeapError(f"unknown space policy {space_policy!r}")
        if sweep_mode not in ("eager", "lazy"):
            raise HeapError(f"unknown sweep mode {sweep_mode!r}")
        self.space_policy = space_policy
        self.sweep_mode = sweep_mode
        self._sweeper = ChunkSweeper(self, self.space)
        #: size class -> reserved (uncommitted) cells, popped by the fast
        #: path.  None for the blocks policy, which has no reserve API.
        self._alloc_cache: dict[int, list[int]] | None = (
            {} if space_policy == "freelist" else None
        )

    # -- allocation -----------------------------------------------------------------

    def allocate(self, cls: ClassDescriptor, length: int = 0) -> HeapObject:
        nbytes = cls.instance_size + cls.element_bytes * length
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.alloc_hist.record(nbytes)
        cache = self._alloc_cache
        if cache is not None and nbytes <= _CACHE_LIMIT:
            cell = SIZE_CLASS_LOOKUP[nbytes]
            run = cache.get(cell)
            if run and self.space.commit(run[-1], cell):
                # Fast path: table lookup + capacity check + list.pop.
                self.stats.alloc_fast_hits += 1
                address = run.pop()
            else:
                address = self._allocate_cell(*self._cell(cls, nbytes))
        else:
            address = self._allocate_cell(*self._cell(cls, nbytes))
        try:
            return self.heap.install(address, cls, length)
        except InvalidAddressError:
            # The request was recorded above (telemetry, fast-path hit); one
            # object is one record, and the slow install records nothing.
            install = partial(self.heap.install, cls=cls, length=length)
            return self._place(install, self.space, address, *self._cell(cls, nbytes))

    def _cell(self, cls: ClassDescriptor, nbytes: int) -> tuple:
        """This collector's arguments to :meth:`Collector._allocate_cell`."""
        return self._try_allocate, cls, nbytes, "space full after full-heap GC", "allocation"

    def _try_allocate(self, nbytes: int) -> int | None:
        """One attempt at the space: through the run cache (refilling it)
        for a tabled size class, straight to the space for the blocks policy
        and over-cache-limit requests."""
        cache = self._alloc_cache
        if cache is None or nbytes > _CACHE_LIMIT:
            return self.space.allocate(nbytes)
        cell = SIZE_CLASS_LOOKUP[nbytes]
        run = cache.get(cell)
        if not run:
            run = self.space.reserve_run(cell, RUN_CACHE_CELLS)
            if not run:
                return None
            cache[cell] = run
        if self.space.commit(run[-1], cell):
            return run.pop()
        return None  # reserved cells exist but the byte budget is gone

    def _flush_alloc_cache(self) -> None:
        """Return every reserved cell to the free list (collect prologue).

        Flushing *before* this collection's sweep pushes any freed cells
        keeps the free-list LIFO discipline: the most recently freed cell is
        still the next one allocated, exactly as without the cache.
        """
        cache = self._alloc_cache
        if not cache:
            return
        space = self.space
        for cell, run in cache.items():
            if run:
                space.release_run(cell, run)
        cache.clear()

    def bytes_in_use(self) -> int:
        return self.space.bytes_in_use

    def _grow_spaces(self, delta: int) -> None:
        self.space.capacity_bytes += delta

    # -- collection -----------------------------------------------------------------

    def _prologue(self) -> None:
        with PhaseTimer(None, "prologue", self._record):
            self.sweep_all()
            self._flush_alloc_cache()

    def _drain(self, tracer: Tracer) -> None:
        """On the zone-sharded pool when there are workers and a zone map,
        unless the tracer is forced onto the checked drain, which the
        pool's two fused loop bodies do not replicate."""
        if self.gc_workers > 0 and self.zone_map is not None and tracer.specialized:
            from repro.gc.parallel import ParallelMarker

            ParallelMarker(self, self.gc_workers, self.zone_map).drain(tracer)
        else:
            tracer.drain()

    def _reclaim(self) -> None:
        self._sweeper.schedule()
        if self.sweep_mode == "eager":
            self._purge_before_reuse(self._sweeper.drain_eager())
        # Lazily, the chunks stay pending and purge as they are swept.
