"""Zone-sharded address space: the heap side of parallel marking.

The address space of a zoned heap splits into N *zones* — disjoint,
zone-tagged address ranges.  Zones are the unit of mark-parallelism (see
:mod:`repro.gc.parallel`): during a parallel mark each zone's marks are
touched by exactly one worker at a time, so the hot drain loop needs no
atomics and no locks.  Two pieces live here:

* :class:`ZoneMap` — the address→zone function.  For a
  :class:`ZonedFreeListSpace` the map is exact range arithmetic (one
  subtraction and a shift); for heaps whose spaces are not zone-aware
  (the generational nursery+mature pair, the blocks policy) the
  :meth:`ZoneMap.hashed` fallback buckets addresses by 4 KB granule, which
  keeps allocation-order neighbours in the same zone without any layout
  cooperation.
* :class:`ZonedFreeListSpace` — a drop-in replacement for
  :class:`~repro.heap.space.FreeListSpace` that keeps one free-list shard
  per zone at strided base addresses.  The shards share a single byte
  budget (capacity checks and fault-injection refusals live on the facade),
  so GC trigger pressure is identical to the unsharded space; only the
  *addresses* handed out differ.  ``reserve_run`` serves each run wholly
  from one zone, rotating round-robin per refill — the collector's
  size-class run cache thereby becomes a per-zone allocation buffer, and
  consecutive allocations of one size class land in one zone (spatial
  locality for the zone-local mark drains).

Layout::

    zone 0: [base + 0·ZONE_STRIDE, …)     ms/z0 free lists + bump frontier
    zone 1: [base + 1·ZONE_STRIDE, …)     ms/z1 free lists + bump frontier
    ...
    zone k = (address - base) >> ZONE_STRIDE_SHIFT

``ZONE_STRIDE`` is 2^36 bytes — far beyond any simulated heap budget, so a
zone never overflows into its neighbour, and with at most
``MAX_ZONES`` (16) zones the whole zoned range stays inside one
``SPACE_STRIDE`` (2^40) slot of the global address-space layout.
"""

from __future__ import annotations

from repro.errors import HeapError
from repro.heap.freelist import size_class_for
from repro.heap.layout import HEAP_BASE_ADDRESS
from repro.heap.space import CHUNK_BYTES, CHUNK_SHIFT, FreeListSpace

#: Address bits per zone shard: zone index = (address - base) >> 36.
ZONE_STRIDE_SHIFT = 36
ZONE_STRIDE = 1 << ZONE_STRIDE_SHIFT

#: Granule for the hashed (layout-agnostic) zone map: 4 KB pages, so
#: allocation-order neighbours usually share a zone even on unzoned spaces.
ZONE_GRANULE_SHIFT = 12

#: Default zone count for parallel-marking configurations.  Eight zones
#: keep every worker count in the benched 1/2/4/8 curve evenly divisible,
#: and leave stealable surplus zones at every count below eight.
DEFAULT_ZONE_COUNT = 8

#: Hard ceiling keeping the strided layout inside one SPACE_STRIDE slot.
MAX_ZONES = 16


class ZoneMap:
    """The address→zone function handed to the parallel mark coordinator.

    ``zone_of`` is a plain callable attribute (not a method) so drain loops
    can hoist it into a local and pay one call per cross-zone decision.
    """

    __slots__ = ("zones", "zone_of", "kind")

    def __init__(self, zones: int, zone_of, kind: str = "custom"):
        if not 1 <= zones <= MAX_ZONES:
            raise HeapError(f"zone count must be in 1..{MAX_ZONES}, got {zones}")
        self.zones = zones
        self.zone_of = zone_of
        self.kind = kind

    @classmethod
    def hashed(cls, zones: int, shift: int = ZONE_GRANULE_SHIFT) -> "ZoneMap":
        """Granule-hash map for heaps without zone-aware spaces."""

        def zone_of(address: int, _shift=shift, _zones=zones) -> int:
            return (address >> _shift) % _zones

        return cls(zones, zone_of, kind="hashed")

    @classmethod
    def strided(cls, zones: int, base: int) -> "ZoneMap":
        """Exact map for a :class:`ZonedFreeListSpace` at ``base``.

        Addresses outside the strided range (other spaces of the same
        collector, quarantined sentinels) fall back to the granule hash so
        every address still has a well-defined owning zone.
        """

        def zone_of(address: int, _base=base, _zones=zones) -> int:
            zone = (address - _base) >> ZONE_STRIDE_SHIFT
            if 0 <= zone < _zones:
                return zone
            return (address >> ZONE_GRANULE_SHIFT) % _zones

        return cls(zones, zone_of, kind="strided")

    def __repr__(self) -> str:
        return f"<ZoneMap {self.kind} zones={self.zones}>"


class ZonedFreeListSpace:
    """N per-zone :class:`FreeListSpace` shards behind one byte budget.

    API-compatible with ``FreeListSpace`` everywhere the mark-sweep
    collector, the chunk sweeper, the fault injector, and the OOM ladder
    touch a space: ``allocate``/``free``/``commit``/``uncommit``,
    ``reserve_run``/``release_run``, ``cell_size``/``contains``,
    ``chunk_ids``/``chunk_cells``/``free_chunk_cells``, ``deny_next``,
    ``bytes_in_use``/``bytes_free``/``capacity_bytes``.

    Capacity discipline: the shards are created with an effectively
    unlimited shard-local capacity and every byte-budget decision happens
    here, against the *shared* ``capacity_bytes`` — so the collection
    trigger points of a zoned heap match the unsharded space exactly.
    Chunk ids stay globally unique (shard address ranges are disjoint), so
    the chunked sweeper works against this space unchanged.
    """

    def __init__(
        self,
        name: str,
        capacity_bytes: int,
        base_address: int = HEAP_BASE_ADDRESS,
        zones: int = DEFAULT_ZONE_COUNT,
    ):
        if capacity_bytes <= 0:
            raise HeapError(f"space {name!r} needs a positive capacity")
        if not 1 <= zones <= MAX_ZONES:
            raise HeapError(f"zone count must be in 1..{MAX_ZONES}, got {zones}")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.zones = zones
        self._base = base_address
        self._fault_refusals = 0
        self._next_zone = 0
        # Shard capacity is the stride itself: shard-local checks can never
        # bind before the facade's shared-budget check does.
        self._shards: list[FreeListSpace] = [
            FreeListSpace(
                f"{name}/z{zone}", ZONE_STRIDE, base_address + zone * ZONE_STRIDE
            )
            for zone in range(zones)
        ]

    # -- zone surface ------------------------------------------------------------

    def zone_map(self) -> ZoneMap:
        return ZoneMap.strided(self.zones, self._base)

    def zone_of(self, address: int) -> int:
        zone = (address - self._base) >> ZONE_STRIDE_SHIFT
        if 0 <= zone < self.zones:
            return zone
        return (address >> ZONE_GRANULE_SHIFT) % self.zones

    def shard_for(self, address: int) -> FreeListSpace:
        return self._shards[self.zone_of(address)]

    @property
    def shards(self) -> tuple[FreeListSpace, ...]:
        return tuple(self._shards)

    # -- shared-budget accounting --------------------------------------------------

    @property
    def bytes_in_use(self) -> int:
        return sum(shard.bytes_in_use for shard in self._shards)

    @property
    def bytes_free(self) -> int:
        return self.capacity_bytes - self.bytes_in_use

    def deny_next(self, count: int = 1) -> None:
        """Arm ``count`` simulated allocation failures (fault injection)."""
        self._fault_refusals += count

    def can_fit(self, nbytes: int) -> bool:
        if self._fault_refusals:
            self._fault_refusals -= 1
            return False
        return self.bytes_in_use + nbytes <= self.capacity_bytes

    # -- allocation ----------------------------------------------------------------

    def allocate(self, nbytes: int) -> int | None:
        """Allocate a cell; None when the shared budget is exhausted.

        The refill zone rotates per call; a free-list hit in *any* shard is
        preferred over fresh bump carving (starting from the rotation
        point), so recycled cells are exhausted heap-wide before the
        frontier advances — same global behaviour as the unsharded space,
        just segregated by zone.
        """
        cell = size_class_for(nbytes)
        if not self.can_fit(cell):
            return None
        shards = self._shards
        zones = self.zones
        start = self._next_zone
        self._next_zone = (start + 1) % zones
        for offset in range(zones):
            shard = shards[(start + offset) % zones]
            address = shard.free_list.pop(cell)
            if address is not None:
                shard._record(address, cell)
                return address
        shard = shards[start]
        address = shard._bump(cell)
        shard._record(address, cell)
        return address

    def free(self, address: int) -> int:
        return self.shard_for(address).free(address)

    def cell_size(self, address: int) -> int:
        return self.shard_for(address).cell_size(address)

    def contains(self, address: int) -> bool:
        return self.shard_for(address).contains(address)

    # -- allocation fast path (collector run cache) ---------------------------------

    def reserve_run(self, cell: int, limit: int) -> list[int]:
        """Up to ``limit`` uncommitted cells, all from one zone.

        Each refill is served wholly by a single shard — the collector's
        run cache thereby holds per-zone allocation buffers.  The serving
        zone rotates round-robin per refill; free-list inventory anywhere
        beats carving fresh addresses, mirroring :meth:`allocate`.
        """
        shards = self._shards
        zones = self.zones
        start = self._next_zone
        self._next_zone = (start + 1) % zones
        for offset in range(zones):
            shard = shards[(start + offset) % zones]
            run = shard.free_list.pop_run(cell, limit)
            if run:
                run.reverse()
                return run
        if not self.can_fit(cell):
            return []
        shard = shards[start]
        run = [shard._bump(cell) for _ in range(limit)]
        run.reverse()
        return run

    def commit(self, address: int, cell: int) -> bool:
        """Charge and record a reserved cell against the shared budget."""
        if self._fault_refusals:
            self._fault_refusals -= 1
            return False
        if self.bytes_in_use + cell > self.capacity_bytes:
            return False
        self.shard_for(address)._record(address, cell)
        return True

    def uncommit(self, address: int, cell: int) -> None:
        """Undo one :meth:`commit`'s byte charge (quarantine repair path)."""
        self.shard_for(address).bytes_in_use -= cell

    def release_run(self, cell: int, addresses: list[int]) -> None:
        """Return unused reserved cells to their zones' free lists."""
        shards = self._shards
        by_zone: dict[int, list[int]] = {}
        for address in addresses:
            by_zone.setdefault(self.zone_of(address), []).append(address)
        for zone, batch in by_zone.items():
            shards[zone].free_list.push_many(batch, cell)

    # -- chunked sweep interface -----------------------------------------------------

    def chunk_ids(self) -> list[int]:
        """Ids of every chunk holding allocated cells, zone-major order."""
        return [
            chunk_id for shard in self._shards for chunk_id in shard._chunks
        ]

    def _chunk_shard(self, chunk_id: int) -> FreeListSpace:
        # Route by the chunk's END address: a zone's first chunk *starts*
        # below the shard base (the shard base carries the heap-base offset,
        # the chunk grid does not), so the start address would round down
        # into the previous zone.  Chunks never span zones — a shard's
        # populated range is tiny against the 2^36 stride — so the end
        # address always lands in the owning zone.
        return self.shard_for((chunk_id << CHUNK_SHIFT) + CHUNK_BYTES - 1)

    def chunk_cells(self, chunk_id: int) -> list[tuple[int, int]]:
        return self._chunk_shard(chunk_id).chunk_cells(chunk_id)

    def free_chunk_cells(self, chunk_id: int, by_class: dict[int, list[int]]) -> int:
        return self._chunk_shard(chunk_id).free_chunk_cells(chunk_id, by_class)

    def __repr__(self) -> str:
        return (
            f"<ZonedFreeListSpace {self.name}: {self.zones} zones, "
            f"{self.bytes_in_use}/{self.capacity_bytes} bytes>"
        )
