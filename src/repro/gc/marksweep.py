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
  :meth:`sweep_all`, the exactness escape hatch used by ``verify_heap``,
  the census, and the next collection's prologue).
"""

from __future__ import annotations

from repro.errors import HeapError, InvalidAddressError
from repro.gc.base import Collector
from repro.gc.lazysweep import LAZY_SWEEP_BATCH, ChunkSweeper
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
        self.gc_workers = gc_workers
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
                address = self._allocate_slow_cached(cell, cls, nbytes)
        else:
            address = self._allocate_slow(cls, nbytes)
        try:
            return self.heap.install(address, cls, length)
        except InvalidAddressError:
            if not self.hardened:
                raise
            return self._install_past_alias(address, cls, length, nbytes)

    def _install_past_alias(
        self, address: int, cls: ClassDescriptor, length: int, nbytes: int
    ) -> HeapObject:
        """Hardened: corrupted free-list metadata handed out ``address``,
        which the table already tracks.  Fence the alias and take the next
        cell, until one installs.  The request was recorded (telemetry,
        fast-path hit) by :meth:`allocate`; one object is one record, so
        the retry goes through the slow paths, which record nothing.
        """
        space = self.space
        cached = self._alloc_cache is not None and nbytes <= _CACHE_LIMIT
        while True:
            self._fence_aliased_cell(space, address)
            if cached:
                address = self._allocate_slow_cached(SIZE_CLASS_LOOKUP[nbytes], cls, nbytes)
            else:
                address = self._allocate_slow(cls, nbytes)
            try:
                return self.heap.install(address, cls, length)
            except InvalidAddressError:
                continue

    def _try_cached(self, cell: int) -> int | None:
        """Pop a cell from the run cache, refilling it from the space."""
        cache = self._alloc_cache
        run = cache.get(cell)
        if not run:
            run = self.space.reserve_run(cell, RUN_CACHE_CELLS)
            if not run:
                return None
            cache[cell] = run
        if self.space.commit(run[-1], cell):
            return run.pop()
        return None  # reserved cells exist but the byte budget is gone

    def _allocate_slow_cached(self, cell: int, cls: ClassDescriptor, nbytes: int) -> int:
        for attempt in (0, 1):
            address = self._try_cached(cell)
            if address is not None:
                return address
            while self._sweeper.debt:
                self._sweeper.sweep_chunks(LAZY_SWEEP_BATCH)
                address = self._try_cached(cell)
                if address is not None:
                    return address
            if attempt == 0:
                self.collect(reason=f"allocation of {nbytes} bytes failed")
        # Emergency collection and debt repayment both failed; growing the
        # heap (when a ceiling allows it) is the last rung before OOM.
        while self._try_grow():
            address = self._try_cached(cell)
            if address is not None:
                self.recovery.oom_recoveries += 1
                return address
        raise self._oom(cls, nbytes, "space full after full-heap GC")

    def _allocate_slow(self, cls: ClassDescriptor, nbytes: int) -> int:
        """Uncached slow path: blocks policy and over-cache-limit requests."""
        for attempt in (0, 1):
            address = self.space.allocate(nbytes)
            if address is not None:
                return address
            while self._sweeper.debt:
                self._sweeper.sweep_chunks(LAZY_SWEEP_BATCH)
                address = self.space.allocate(nbytes)
                if address is not None:
                    return address
            if attempt == 0:
                self.collect(reason=f"allocation of {nbytes} bytes failed")
        while self._try_grow():
            address = self.space.allocate(nbytes)
            if address is not None:
                self.recovery.oom_recoveries += 1
                return address
        raise self._oom(cls, nbytes, "space full after full-heap GC")

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
        with self._span("prologue"):
            self.sweep_all()
            self._flush_alloc_cache()

    def _reclaim(self):
        self._sweeper.schedule()
        if self.sweep_mode == "eager":
            return self._sweeper.drain_eager(), None
        return None, None  # chunks stay pending; the pause ends here

    # -- lazy-sweep surface ------------------------------------------------------------

    def sweep_all(self) -> None:
        self._sweeper.sweep_all()

    def sweep_debt(self) -> int:
        return self._sweeper.debt

    def sweep_cutoff(self) -> int:
        return self._sweeper.cutoff

    def pending_garbage_predicate(self):
        return self._sweeper.pending_garbage_predicate()
