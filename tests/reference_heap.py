"""Reference oracles for object layout, eviction and the per-chunk sweep.

These are the implementations ``repro.heap`` and ``repro.gc.lazysweep``
shipped before each class was laid out once and the sweep was fused with
the eviction, moved here verbatim (``self`` becomes the first argument, and
the helpers the old code called — ``FieldKind.default()``,
``size_bytes`` through ``size_of`` — are spelled out from the enum and the
layout constants so the oracle does not lean on the attributes under test).
They state the per-object facts in the plainest form: one enum call per
slot, one size derivation per question, one ``evict`` call per corpse.
The per-chunk sweep has since been re-expressed over the collection's mark
set (``heap.marks``) — it still looks every cell up in the table first and
judges it afterwards, where the fused loop never visits a survivor.
``tests/test_class_layout.py`` and ``tests/test_sweep_fused.py`` run them
against the templated install and ``ObjectHeap.sweep_cells``; nothing under
``src/`` imports this module.

The reference eviction knows nothing of the per-class census counters, so a
heap it has swept is compared by its table walk (``live_by_class_slow``).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import InvalidAddressError
from repro.gc.lazysweep import ChunkSweeper
from repro.heap import header as hdr
from repro.heap.layout import ARRAY_LENGTH_BYTES, HEADER_BYTES, WORD_BYTES, align_up
from repro.heap.object_model import ClassDescriptor, HeapObject

# -- layout ----------------------------------------------------------------------------


def reference_slots(cls: ClassDescriptor, length: int = 0) -> list:
    """The slot list ``HeapObject.__init__`` used to build."""
    if cls.is_array:
        elem_default = cls.element_kind.default()
        return [elem_default] * length
    return [f.kind.default() for f in cls.all_fields]


def reference_size(cls: ClassDescriptor, length: int = 0) -> int:
    """``cls.size_of(length)`` as the class used to derive it per call."""
    if cls.is_array:
        return align_up(HEADER_BYTES + ARRAY_LENGTH_BYTES + length * WORD_BYTES)
    return align_up(HEADER_BYTES + len(cls.all_fields) * WORD_BYTES)


def reference_has_weak_slots(obj: HeapObject) -> bool:
    cls = obj.cls
    if cls.is_array:
        return cls.element_kind.is_weak
    return bool(cls.weak_slots)


# -- eviction and the per-chunk sweep -------------------------------------------------------


def reference_evict(heap, obj: HeapObject) -> None:
    """Remove a dead object from the table and poison it."""
    found = heap._objects.get(obj.address)
    if found is not obj:
        raise InvalidAddressError(
            f"evicting {obj!r} but table holds {found!r} at {obj.address:#x}"
        )
    del heap._objects[obj.address]
    heap.weak_holders.discard(obj)
    heap.stats.objects_freed += 1
    size = reference_size(obj.cls, len(obj.slots))
    heap.stats.bytes_freed += size
    heap._live_bytes -= size
    obj.set(hdr.FREED_BIT)


def reference_sweep_chunk(self: ChunkSweeper, chunk_id: int) -> tuple[set[int], dict[int, list[int]]]:
    """Examine one chunk: leave the marked alone, evict the dead.

    Returns ``(freed addresses, {cell size: [addresses]})``; the caller
    decides when the cells go back to the space (eager: immediately;
    lazy: after the purge).
    """
    collector = self.collector
    heap = collector.heap
    stats = collector.stats
    table = heap.address_table()
    marks = heap.marks
    cutoff = self.cutoff
    freed: set[int] = set()
    by_class: dict[int, list[int]] = {}
    swept = 0
    for address, cell in self.space.chunk_cells(chunk_id):
        obj = table.get(address)
        if obj is None or obj.alloc_seq > cutoff:
            continue  # installed after the trace; not this cycle's business
        swept += 1
        if address not in marks:
            freed.add(address)
            bucket = by_class.get(cell)
            if bucket is None:
                by_class[cell] = [address]
            else:
                bucket.append(address)
            reference_evict(heap, obj)
    stats.objects_swept += swept
    stats.objects_freed += len(freed)
    stats.chunks_swept += 1
    return freed, by_class


@contextmanager
def reference_sweep():
    """Every chunk swept inside this block goes through the reference."""
    fused = ChunkSweeper._sweep_chunk
    ChunkSweeper._sweep_chunk = reference_sweep_chunk
    try:
        yield
    finally:
        ChunkSweeper._sweep_chunk = fused
