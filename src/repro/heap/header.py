"""Object-header status word.

Each heap object carries a single status word whose low bits are used by the
collector and — crucially for this paper — whose *spare* bits are stolen by
the GC-assertion machinery.

The tracing **mark** is *not* one of them.  Where Jikes RVM keeps a mark bit
in this word, this collector keeps one set of marked addresses per
collection beside the heap (``ObjectHeap.marks``): the drain tests and sets
it without loading the child object, the sweep skips survivors without
visiting them, and "clearing the marks" is dropping the set.  Bit ``0x01``
stays reserved and is never set.  So does ``0x08``, the paper's
per-collection ``OWNED`` bit (§2.5.2): the ownership phase *marks* the
ownees it reaches, and the naive ablation, which marks nothing, keeps the
ones it finds in an address set on the engine.  The assertion bits below
are exactly the paper's, and they are read where the paper reads them —
when the collector has the object in hand:

* ``DEAD`` — set by ``assert-dead(p)``; if the collector encounters the
  object while tracing, the assertion is violated (§2.3.1 of the paper).
* ``UNSHARED`` — set by ``assert-unshared(p)``; checked when the collector
  encounters an object that is *already* marked, i.e. on the second
  incoming reference (§2.5.1).
* ``OWNEE`` / ``OWNER`` — fast-path bits telling the tracer that this object
  participates in an ``assert-ownedby`` pair, so the common case (object has
  no ownership assertion) costs a single bit test.
* ``FREED`` — poison bit set by the sweep phase.  Real collectors recycle
  the memory silently; the simulator uses the bit to turn use-after-free
  into an immediate :class:`~repro.errors.UseAfterFreeError`.
* ``HASHED`` — the object's identity hash has been taken (models Jikes
  RVM's address-based hashing status, needed by the copying collector).

The remaining bits of the status word hold the identity hash code.
"""

from __future__ import annotations

MARK_BIT = 0x01  # reserved: the mark lives in ObjectHeap.marks, not here
DEAD_BIT = 0x02
UNSHARED_BIT = 0x04
OWNEE_BIT = 0x10
OWNER_BIT = 0x20
FREED_BIT = 0x40
HASHED_BIT = 0x80

#: All bits reserved for flags; higher bits store the identity hash.
FLAG_MASK = 0xFF
HASH_SHIFT = 8


def new_status(hash_code: int = 0) -> int:
    """Build a fresh status word for a newly allocated object."""
    return (hash_code << HASH_SHIFT) & ~FLAG_MASK


def test(status: int, bit: int) -> bool:
    """Return True if ``bit`` is set in ``status``."""
    return (status & bit) != 0


def set_bit(status: int, bit: int) -> int:
    """Return ``status`` with ``bit`` set."""
    return status | bit


def clear_bit(status: int, bit: int) -> int:
    """Return ``status`` with ``bit`` cleared."""
    return status & ~bit


def hash_of(status: int) -> int:
    """Extract the identity hash stored in the status word."""
    return status >> HASH_SHIFT


def describe(status: int) -> str:
    """Render the flag bits of a status word for debugging output."""
    names = [
        (DEAD_BIT, "DEAD"),
        (UNSHARED_BIT, "UNSHARED"),
        (OWNEE_BIT, "OWNEE"),
        (OWNER_BIT, "OWNER"),
        (FREED_BIT, "FREED"),
        (HASHED_BIT, "HASHED"),
    ]
    flags = [name for bit, name in names if status & bit]
    return "|".join(flags) if flags else "-"
