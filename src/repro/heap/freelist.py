"""Segregated-fit size classes and free lists for the MarkSweep space.

The MarkSweep collector in the paper (Jikes RVM's MMTk MarkSweep plan)
allocates from segregated free lists: each allocation is rounded up to one
of a fixed set of *size classes* and served from a per-class list of free
cells.  The simulator reproduces that structure: small sizes get exact
word-granularity classes, larger sizes geometric classes, and anything past
the largest class is treated as a "large object" with an exact-size cell.
"""

from __future__ import annotations

from repro.errors import HeapError
from repro.heap.layout import WORD_BYTES, align_up

#: Exact word-multiple classes up to this size.
_SMALL_LIMIT = 128
#: Geometric (×1.25, word aligned) classes up to this size.
_LARGE_LIMIT = 8192


def _build_size_classes() -> tuple[int, ...]:
    classes = list(range(WORD_BYTES, _SMALL_LIMIT + 1, WORD_BYTES))
    size = _SMALL_LIMIT
    while size < _LARGE_LIMIT:
        size = align_up(int(size * 1.25) + 1)
        classes.append(size)
    return tuple(classes)


#: The size classes, ascending.
SIZE_CLASSES: tuple[int, ...] = _build_size_classes()


def _build_class_lookup() -> tuple[int, ...]:
    """``lookup[nbytes] -> cell`` for every request up to the largest class."""
    lookup = [0] * (SIZE_CLASSES[-1] + 1)
    cls_iter = iter(SIZE_CLASSES)
    cell = next(cls_iter)
    for nbytes in range(1, SIZE_CLASSES[-1] + 1):
        if nbytes > cell:
            cell = next(cls_iter)
        lookup[nbytes] = cell
    return tuple(lookup)


#: Direct-indexed size-class table: the allocation fast path replaces the
#: old per-request binary search with one list index.
SIZE_CLASS_LOOKUP: tuple[int, ...] = _build_class_lookup()


def size_class_for(nbytes: int) -> int:
    """Return the cell size used for an allocation of ``nbytes``.

    Requests beyond the largest class are "large objects": they get an
    exact (word-aligned) cell of their own.
    """
    if nbytes <= 0:
        raise HeapError(f"cannot size a {nbytes}-byte allocation")
    if nbytes > SIZE_CLASSES[-1]:
        return align_up(nbytes)
    return SIZE_CLASS_LOOKUP[nbytes]


class FreeList:
    """Per-size-class lists of free cell addresses.

    ``push``/``pop`` are the sweep-phase and allocation-path operations.
    The free list tracks how many bytes it holds so spaces can report
    fragmentation-style statistics.
    """

    __slots__ = ("_cells", "free_bytes")

    def __init__(self) -> None:
        self._cells: dict[int, list[int]] = {}
        self.free_bytes = 0

    def push(self, address: int, cell_bytes: int) -> None:
        """Return a cell to the free list (sweep phase)."""
        self._cells.setdefault(cell_bytes, []).append(address)
        self.free_bytes += cell_bytes

    def push_many(self, addresses: list[int], cell_bytes: int) -> None:
        """Return a batch of same-class cells with one list splice.

        The sweep frees chunk-at-a-time; extending the bucket once per
        chunk replaces the per-object ``push`` churn of the eager sweep.
        """
        if not addresses:
            return
        bucket = self._cells.get(cell_bytes)
        if bucket is None:
            self._cells[cell_bytes] = list(addresses)
        else:
            bucket.extend(addresses)
        self.free_bytes += cell_bytes * len(addresses)

    def pop(self, cell_bytes: int) -> int | None:
        """Take a free cell of exactly ``cell_bytes``, or None."""
        bucket = self._cells.get(cell_bytes)
        if not bucket:
            return None
        self.free_bytes -= cell_bytes
        return bucket.pop()

    def pop_run(self, cell_bytes: int, limit: int) -> list[int]:
        """Take up to ``limit`` free cells of one class in pop (LIFO) order."""
        bucket = self._cells.get(cell_bytes)
        if not bucket:
            return []
        take = min(limit, len(bucket))
        run = bucket[-take:][::-1]
        del bucket[-take:]
        self.free_bytes -= cell_bytes * take
        return run

    def withhold(self, address: int, cell_bytes: int) -> None:
        """Take one occurrence of a named cell off the list (sentinel repair)."""
        self._cells[cell_bytes].remove(address)
        self.free_bytes -= cell_bytes

    def cell_count(self) -> int:
        return sum(len(b) for b in self._cells.values())

    def clear(self) -> None:
        self._cells.clear()
        self.free_bytes = 0
