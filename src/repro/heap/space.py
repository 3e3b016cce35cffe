"""Heap spaces: address allocation policies over the simulated address space.

Two policies are provided, matching the collectors built on top of them:

* :class:`FreeListSpace` — segregated-fit free-list allocation for the
  MarkSweep collector (the paper's configuration).
* :class:`BumpSpace` — monotone bump-pointer allocation for the copying
  (SemiSpace) collector and for generational nurseries.

A space deals purely in *addresses and byte counts*; objects themselves live
in the :class:`~repro.heap.heap.ObjectHeap` table.  Every space enforces a
byte capacity so that allocation pressure triggers collections at realistic
points (the paper runs each benchmark at 2× its minimum heap size).
"""

from __future__ import annotations

from repro.errors import HeapError
from repro.heap.freelist import FreeList, size_class_for
from repro.heap.layout import HEAP_BASE_ADDRESS, align_up

#: Chunk granularity for the free-list space: allocated-cell metadata is
#: kept per 64 KB chunk of address space so the sweep can walk (and the
#: lazy sweeper can defer) one chunk at a time instead of snapshotting the
#: whole object table.
CHUNK_SHIFT = 16
CHUNK_BYTES = 1 << CHUNK_SHIFT


class Space:
    """Common accounting shared by all space policies."""

    def __init__(self, name: str, capacity_bytes: int, base_address: int = HEAP_BASE_ADDRESS):
        if capacity_bytes <= 0:
            raise HeapError(f"space {name!r} needs a positive capacity")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.bytes_in_use = 0
        self._base = base_address
        self._cursor = base_address
        #: Fault-injection hook: while positive, capacity checks refuse the
        #: next N requests as if the space were full (see repro.faults).
        self._fault_refusals = 0

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

    def _bump(self, nbytes: int) -> int:
        address = self._cursor
        self._cursor += align_up(nbytes)
        return address

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name}: "
            f"{self.bytes_in_use}/{self.capacity_bytes} bytes>"
        )


class FreeListSpace(Space):
    """Segregated-fit space: cells recycle through per-size-class free lists."""

    def __init__(self, name: str, capacity_bytes: int, base_address: int = HEAP_BASE_ADDRESS):
        super().__init__(name, capacity_bytes, base_address)
        self.free_list = FreeList()
        #: chunk id (address >> CHUNK_SHIFT) -> {address: cell size} for
        #: every allocated cell.  This models the side metadata a real
        #: block-structured space derives from block headers, organized so
        #: the sweep can visit one chunk's cells without touching the rest.
        self._chunks: dict[int, dict[int, int]] = {}

    def _record(self, address: int, cell: int) -> None:
        chunk_id = address >> CHUNK_SHIFT
        chunk = self._chunks.get(chunk_id)
        if chunk is None:
            self._chunks[chunk_id] = {address: cell}
        else:
            chunk[address] = cell
        self.bytes_in_use += cell

    def allocate(self, nbytes: int) -> int | None:
        """Allocate a cell for ``nbytes``; None when the space is full."""
        cell = size_class_for(nbytes)
        if not self.can_fit(cell):
            return None
        address = self.free_list.pop(cell)
        if address is None:
            address = self._bump(cell)
        self._record(address, cell)
        return address

    def free(self, address: int) -> int:
        """Release the cell at ``address``; returns the cell size in bytes."""
        chunk = self._chunks.get(address >> CHUNK_SHIFT)
        cell = chunk.pop(address, None) if chunk is not None else None
        if cell is None:
            raise HeapError(f"free of unallocated address {address:#x}")
        self.bytes_in_use -= cell
        self.free_list.push(address, cell)
        return cell

    def cell_size(self, address: int) -> int:
        return self._chunks[address >> CHUNK_SHIFT][address]

    def contains(self, address: int) -> bool:
        chunk = self._chunks.get(address >> CHUNK_SHIFT)
        return chunk is not None and address in chunk

    # -- allocation fast path (collector run cache) -----------------------------

    def reserve_run(self, cell: int, limit: int) -> list[int]:
        """Hand out up to ``limit`` uncommitted cells of one size class.

        Reserved cells are *not* charged against capacity and carry no
        metadata until :meth:`commit` — they are free-list inventory (or
        fresh bump addresses) parked in the collector's allocation cache.
        The returned list is ordered for ``list.pop()`` so the cache yields
        cells in the same order ``allocate`` would have (free-list LIFO
        first, then ascending bump addresses).
        """
        run = self.free_list.pop_run(cell, limit)
        if not run:
            if not self.can_fit(cell):
                return []
            run = [self._bump(cell) for _ in range(limit)]
        run.reverse()
        return run

    def commit(self, address: int, cell: int) -> bool:
        """Charge and record a reserved cell; False when capacity is gone."""
        if self._fault_refusals:
            self._fault_refusals -= 1
            return False
        in_use = self.bytes_in_use + cell
        if in_use > self.capacity_bytes:
            return False
        # ``_record``, in place: this is the allocation fast path's one call
        # into the space.
        chunk = self._chunks.get(address >> CHUNK_SHIFT)
        if chunk is None:
            self._chunks[address >> CHUNK_SHIFT] = {address: cell}
        else:
            chunk[address] = cell
        self.bytes_in_use = in_use
        return True

    def uncommit(self, address: int, cell: int) -> None:
        """Undo one :meth:`commit`'s byte charge without recycling the cell.

        Quarantine repair path: when a commit lands on an address the space
        already tracked (corrupted free-list metadata handed the same cell
        out twice), the ``_record`` overwrite left ``bytes_in_use`` charged
        twice for one cell.  The hardened allocator fences the address and
        calls this to drop the double charge; the cell itself stays recorded
        and is deliberately never reused.
        """
        self.bytes_in_use -= cell

    def release_run(self, cell: int, addresses: list[int]) -> None:
        """Return unused reserved cells to the free list (cache flush)."""
        self.free_list.push_many(addresses, cell)

    # -- chunked sweep interface -------------------------------------------------

    def chunk_ids(self) -> list[int]:
        """Ids of every chunk that currently holds allocated cells."""
        return list(self._chunks)

    def chunk_cells(self, chunk_id: int):
        """One chunk's allocated ``(address, cell size)`` pairs.

        A live view, not a copy (a copy is a tuple per cell, a tenth of a
        sweep): allocate or free nothing in this space while iterating.
        """
        chunk = self._chunks.get(chunk_id)
        return chunk.items() if chunk else ()

    def free_chunk_cells(self, chunk_id: int, by_class: dict[int, list[int]]) -> int:
        """Batch-free swept cells of one chunk; returns bytes released.

        One bucket splice per size class replaces the per-object
        ``free()`` path the eager sweep used to take.
        """
        chunk = self._chunks[chunk_id]
        released = 0
        for cell, addresses in by_class.items():
            for address in addresses:
                del chunk[address]
            self.free_list.push_many(addresses, cell)
            released += cell * len(addresses)
        if not chunk:
            del self._chunks[chunk_id]
        self.bytes_in_use -= released
        return released


class BumpSpace(Space):
    """Monotone bump allocation; reclamation only by wholesale reset.

    Used as each semispace of the copying collector and as the nursery of
    the generational collector.  ``reset`` empties the space (after
    evacuation) and rewinds the bump cursor.
    """

    def __init__(self, name: str, capacity_bytes: int, base_address: int = HEAP_BASE_ADDRESS):
        super().__init__(name, capacity_bytes, base_address)
        self._allocated: dict[int, int] = {}

    def allocate(self, nbytes: int) -> int | None:
        nbytes = align_up(nbytes)
        if not self.can_fit(nbytes):
            return None
        address = self._bump(nbytes)
        self._allocated[address] = nbytes
        self.bytes_in_use += nbytes
        return address

    def contains(self, address: int) -> bool:
        return address in self._allocated

    def addresses(self) -> list[int]:
        return list(self._allocated)

    def release(self, address: int) -> int:
        """Drop one allocation (used when evacuating survivors one by one)."""
        nbytes = self._allocated.pop(address)
        self.bytes_in_use -= nbytes
        return nbytes

    def reset(self) -> None:
        """Empty the space entirely and rewind the bump cursor."""
        self._allocated.clear()
        self.bytes_in_use = 0
        self._cursor = self._base
