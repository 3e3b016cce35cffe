"""Lifetime-assertion support: forcing asserted-dead objects to die.

§2.6: "Force the assertion to be true.  In the case of lifetime assertions,
the garbage collector can force objects to be reclaimed by nulling out all
incoming references.  This might allow a program to run longer without
running out of memory but risks introducing a null pointer exception."

:func:`force_reclaim` runs between the mark and sweep phases: it nulls every
reference to the victims held by surviving (marked) objects and by roots,
then takes the victims out of the mark set so the sweep reclaims them.
Objects that were reachable *only* through a victim remain marked and float
for one collection cycle — the same one-GC imprecision the ownership phase
has.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.heap.layout import NULL

if TYPE_CHECKING:
    from repro.gc.base import Collector
    from repro.runtime.vm import VirtualMachine


def force_reclaim(
    collector: "Collector",
    vm: Optional["VirtualMachine"],
    victims: Iterable[int],
) -> int:
    """Null all references to ``victims`` and unmark them; returns count."""
    victim_set = {a for a in victims if collector.heap.contains(a)}
    if not victim_set:
        return 0

    # Sever heap references held by survivors (and by other victims).
    for obj in collector.heap:
        slots = obj.slots
        for idx in obj.reference_slot_indices():
            if slots[idx] in victim_set:
                slots[idx] = NULL

    # Sever root references (frames and statics).
    if vm is not None:
        vm.null_roots(victim_set)

    # Unmark so the sweep reclaims them.
    collector.heap.marks.difference_update(victim_set)
    return len(victim_set)
