"""The object heap: the table of live objects and global heap accounting.

The :class:`ObjectHeap` is shared by every collector.  It owns the mapping
from word-aligned addresses to :class:`~repro.heap.object_model.HeapObject`
instances, assigns identity hashes, poisons objects on free (so
use-after-free errors surface immediately instead of silently corrupting the
simulation), and keeps cumulative allocation statistics.

Address-space management (which addresses are handed out, when the heap is
"full") belongs to the :mod:`~repro.heap.space` policies owned by each
collector; the heap only checks invariants and stores objects.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

from repro.errors import InvalidAddressError, UseAfterFreeError
from repro.heap import header as hdr
from repro.heap.layout import ALIGN_MASK, NULL, is_aligned
from repro.heap.object_model import ClassDescriptor, HeapObject

#: Address stride between distinct spaces so their ranges never collide.
SPACE_STRIDE = 1 << 40


class HeapStats:
    """Cumulative mutator-visible heap statistics."""

    __slots__ = (
        "objects_allocated",
        "bytes_allocated",
        "objects_freed",
        "bytes_freed",
    )

    def __init__(self) -> None:
        self.objects_allocated = 0
        self.bytes_allocated = 0
        self.objects_freed = 0
        self.bytes_freed = 0

    @property
    def objects_live(self) -> int:
        return self.objects_allocated - self.objects_freed

    def snapshot(self) -> dict:
        return {
            "objects_allocated": self.objects_allocated,
            "bytes_allocated": self.bytes_allocated,
            "objects_freed": self.objects_freed,
            "bytes_freed": self.bytes_freed,
            "objects_live": self.objects_live,
        }


class ObjectHeap:
    """Table of all live heap objects, keyed by address."""

    def __init__(self) -> None:
        self._objects: dict[int, HeapObject] = {}
        self.stats = HeapStats()
        self._hash_counter = 1
        #: Monotone install/relocate stamp (see HeapObject.alloc_seq).
        self.install_seq = 0
        #: Sum of live object sizes, maintained on install/evict so
        #: ``live_bytes()`` is O(1) instead of a full-table walk.
        self._live_bytes = 0
        #: class -> [live instances, live bytes], maintained beside
        #: ``_live_bytes`` so the per-class census is O(classes).
        self._live_by_class: dict[ClassDescriptor, list[int]] = {}
        #: Live objects that carry weak slots (the collector's weak-ref
        #: processing list; maintained on install/evict).
        self.weak_holders: set[HeapObject] = set()
        #: Addresses the current collection has marked — the only mark
        #: there is (no header bit).  :meth:`new_marks` starts a collection's
        #: set and drops it again; between the two it is a subset of the
        #: table's keys, and it outlives the pause only while lazy-sweep
        #: debt is outstanding.
        self.marks: set[int] = set()

    # -- creation / destruction ----------------------------------------------

    def install(self, address: int, cls: ClassDescriptor, length: int = 0) -> HeapObject:
        """Create an object at ``address`` (already reserved by a space)."""
        if address & ALIGN_MASK:
            raise InvalidAddressError(f"unaligned object address {address:#x}")
        objects = self._objects
        if address in objects:
            raise InvalidAddressError(f"address {address:#x} is already occupied")
        obj = HeapObject(address, cls, length)
        obj.status |= self._hash_counter << hdr.HASH_SHIFT
        self._hash_counter += 1
        self.install_seq = obj.alloc_seq = self.install_seq + 1
        objects[address] = obj
        if cls.has_weak:
            self.weak_holders.add(obj)
        cls.allocation_count += 1
        size = cls.instance_size + cls.element_bytes * length
        stats = self.stats
        stats.objects_allocated += 1
        stats.bytes_allocated += size
        self._live_bytes += size
        row = self._live_by_class.get(cls)
        if row is None:
            self._live_by_class[cls] = [1, size]
        else:
            row[0] += 1
            row[1] += size
        return obj

    def evict(self, obj: HeapObject) -> None:
        """Remove a dead object from the table and poison it."""
        table = self._objects
        found = table.get(obj.address)
        if found is not obj:
            raise InvalidAddressError(
                f"evicting {obj!r} but table holds {found!r} at {obj.address:#x}"
            )
        del table[obj.address]
        obj.status |= hdr.FREED_BIT
        self._account_evicted((obj,))

    def new_marks(self) -> set[int]:
        """Drop the mark set and start an empty one (returned)."""
        self.marks = marks = set()
        return marks

    def sweep_cells(
        self, cells: Collection[tuple[int, int]], cutoff: int
    ) -> tuple[int, set[int], dict[int, list[int]]]:
        """Sweep the allocated ``(address, cell size)`` pairs of one chunk.

        One pass, in the chunk's own order (the order cells are freed in is
        the order later allocations reuse them): a cell whose address is in
        :attr:`marks` holds a survivor and is not visited at all; an
        unmarked one is evicted (same table check, same error as
        :meth:`evict`); an address with no table entry, or one whose object
        was installed or relocated after ``cutoff`` (``install_seq`` at mark
        end), is not this cycle's business.  The evicted are accounted once
        per call — also when the pass raises, so the heap's books match its
        table at every exit.

        Returns ``(objects examined, freed addresses, {cell size: [freed
        addresses]})``.
        """
        table = self._objects
        marks = self.marks
        freed_bit = hdr.FREED_BIT
        skipped = 0
        by_class: dict[int, list[int]] = {}
        dead: list[HeapObject] = []
        try:
            for address, cell in cells:
                if address in marks:
                    continue
                obj = table.get(address)
                if obj is None or obj.alloc_seq > cutoff:
                    skipped += 1
                    continue
                status = obj.status
                own = obj.address
                if own != address:
                    found = table.get(own)
                    if found is not obj:
                        raise InvalidAddressError(
                            f"evicting {obj!r} but table holds {found!r} at {own:#x}"
                        )
                del table[own]
                obj.status = status | freed_bit
                dead.append(obj)
                bucket = by_class.get(cell)
                if bucket is None:
                    by_class[cell] = [address]
                else:
                    bucket.append(address)
        finally:
            if dead:
                self._account_evicted(dead)
        return len(cells) - skipped, set().union(*by_class.values()), by_class

    def _account_evicted(self, dead: Sequence[HeapObject]) -> None:
        """Take untabled objects off the books: freed and live counters, the
        per-class census and the weak-holder set."""
        census = self._live_by_class
        holders = self.weak_holders
        nbytes = 0
        for obj in dead:
            cls = obj.cls
            size = cls.instance_size + cls.element_bytes * len(obj.slots)
            row = census[cls]
            row[0] -= 1
            row[1] -= size
            if cls.has_weak:
                holders.discard(obj)
            nbytes += size
        stats = self.stats
        stats.objects_freed += len(dead)
        stats.bytes_freed += nbytes
        self._live_bytes -= nbytes

    def relocate(self, obj: HeapObject, new_address: int) -> None:
        """Move an object to a new address (copying collector)."""
        if not is_aligned(new_address):
            raise InvalidAddressError(f"unaligned target address {new_address:#x}")
        if new_address in self._objects:
            raise InvalidAddressError(f"relocation target {new_address:#x} occupied")
        del self._objects[obj.address]
        # The mark is keyed by address: a moved survivor takes none with it
        # (its new stamp already says "after the trace").
        self.marks.discard(obj.address)
        obj.address = new_address
        self.install_seq += 1
        obj.alloc_seq = self.install_seq
        self._objects[new_address] = obj

    # -- lookup ----------------------------------------------------------------

    def get(self, address: int) -> HeapObject:
        """Dereference an address; raises on null, dangling, or freed refs."""
        if address == NULL:
            raise InvalidAddressError("dereference of null address")
        obj = self._objects.get(address)
        if obj is None:
            raise InvalidAddressError(f"no live object at {address:#x}")
        if obj.status & hdr.FREED_BIT:
            raise UseAfterFreeError(f"object at {address:#x} was reclaimed")
        return obj

    def maybe(self, address: int) -> Optional[HeapObject]:
        """Like :meth:`get` but returns None for null/dangling addresses."""
        if address == NULL:
            return None
        return self._objects.get(address)

    def contains(self, address: int) -> bool:
        return address in self._objects

    def closure(self, seeds: Iterable[int], excluding: int = NULL) -> set[int]:
        """Addresses of every live object reachable from ``seeds``.

        The one brute-force reachability walk outside a collection (the
        collector's own is :class:`~repro.gc.tracer.Tracer`): a Python-side
        visited set, no mark or header bit touched.  ``excluding`` is an
        address the walk refuses to enter — reachability "if that object
        vanished".  One policy for what is not there: a seed or an edge
        that is ``NULL``, has no table entry or carries ``FREED`` is
        neither entered nor followed, so the walk is total on a damaged
        heap (the fault injector and the hardened engine run it on one)
        and a dangling edge is simply not part of the closure.
        """
        table = self._objects
        freed_bit = hdr.FREED_BIT
        seen: set[int] = set()
        stack = list(seeds)
        while stack:
            address = stack.pop()
            if address in seen or address == excluding:
                continue
            obj = table.get(address)
            if obj is None or obj.status & freed_bit:
                continue
            seen.add(address)
            stack.extend(obj.reference_slots())
        return seen

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[HeapObject]:
        return iter(self._objects.values())

    def objects(self) -> list[HeapObject]:
        """Snapshot list of all objects (safe to mutate the heap while iterating)."""
        return list(self._objects.values())

    def address_table(self) -> dict[int, HeapObject]:
        """The live address -> object table itself, for GC-internal hot loops.

        The tracer and the chunked sweep resolve addresses through this
        table directly, skipping :meth:`get`'s null/dangling/freed checks —
        the collector owns the heap during a pause, so a miss there is a
        collector bug, not a mutator error.  Mutator dereferences must keep
        using :meth:`get`.  Callers must not mutate the dict.
        """
        return self._objects

    def live_bytes(self) -> int:
        """Total bytes occupied by live objects (O(1); counter-maintained)."""
        return self._live_bytes

    def live_bytes_slow(self) -> int:
        """Recompute live bytes by walking the table (debug cross-check)."""
        return sum(obj.size_bytes for obj in self._objects.values())

    def live_by_class(self) -> dict[str, tuple[int, int]]:
        """Per-class ``(live instances, live bytes)`` by class name, from the
        install/evict counters (O(classes)); classes with none are omitted."""
        census: dict[str, tuple[int, int]] = {}
        for cls, (count, nbytes) in self._live_by_class.items():
            if count:
                have = census.get(cls.name)
                if have is not None:  # two registries' classes sharing a name
                    count, nbytes = count + have[0], nbytes + have[1]
                census[cls.name] = (count, nbytes)
        return census

    def live_by_class_slow(
        self, skip: Optional[Callable[[HeapObject], bool]] = None
    ) -> dict[str, tuple[int, int]]:
        """Recompute :meth:`live_by_class` by walking the table.

        The cross-check for the counters, and the only census there is while
        ``skip`` has something to say: under outstanding lazy-sweep debt the
        table still holds dead objects, which ``skip`` leaves out.
        """
        census: dict[str, tuple[int, int]] = {}
        for obj in self._objects.values():
            if skip is not None and skip(obj):
                continue
            name = obj.cls.name
            count, nbytes = census.get(name, (0, 0))
            census[name] = (count + 1, nbytes + obj.size_bytes)
        return census
