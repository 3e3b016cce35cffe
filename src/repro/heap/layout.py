"""Word and object-layout constants for the simulated heap.

The simulator models a 64-bit address space with 8-byte words.  Objects are
word aligned, which leaves the low three bits of every object address
unused.  The paper's path-tracking worklist steals one of them in Jikes RVM
("Because all objects in Jikes RVM are word aligned, the two low order bits
are unused, and we can safely use one of them"); :mod:`repro.gc.tracer`
tags by the entry's type instead and needs no bit.  Address 0 is ``NULL``
and the heap starts above it, so every object address is truthy and the
mark loops skip a null slot by its truth.
"""

from __future__ import annotations

#: Bytes per machine word in the simulated address space.
WORD_BYTES = 8

#: Log2 of the word size; object addresses are aligned to this many bits.
WORD_SHIFT = 3

#: Alignment mask: ``addr & ALIGN_MASK == 0`` for every object address.
ALIGN_MASK = WORD_BYTES - 1

#: Size of the per-object header in bytes (one status word + one type word,
#: mirroring Jikes RVM's two-word object header).
HEADER_BYTES = 2 * WORD_BYTES

#: Arrays carry one extra length word after the header.
ARRAY_LENGTH_BYTES = WORD_BYTES

#: Lowest address handed out by the address allocator.  Starting above zero
#: keeps address 0 free to represent ``null``.
HEAP_BASE_ADDRESS = 0x1000

#: The null reference.  Stored in reference fields and local slots.
NULL = 0

# ``if not child`` is the mark loops' null test: it needs every address truthy.
assert not NULL and HEAP_BASE_ADDRESS > NULL


def align_up(nbytes: int) -> int:
    """Round ``nbytes`` up to the next word boundary."""
    return (nbytes + ALIGN_MASK) & ~ALIGN_MASK


def is_aligned(address: int) -> bool:
    """Return True if ``address`` is word aligned (and therefore untagged)."""
    return (address & ALIGN_MASK) == 0


def scalar_size(kind: "str") -> int:
    """Return the in-object size in bytes of a field of the given kind.

    The simulator gives every field a full word, as Jikes RVM does for
    references and longs; this keeps offsets trivially aligned.
    """
    return WORD_BYTES
