"""Paranoid full-heap wellformedness walker.

The ``debug.c`` school of collector debugging: after (or before) every
collection, walk *every* structure the allocator owns and cross-check
them against each other.  Where :func:`repro.gc.verify.verify_heap`
checks the object graph (slots, roots, registry), this module checks the
allocator's own bookkeeping:

* **header flag hygiene** — flag-bit consistency (``OWNED`` implies
  ``OWNEE``; hash bits above ``FLAG_MASK`` are legitimate);
* **free-list/live disjointness** — no free cell aliases a live table
  object (an aliased cell hands live memory to the next allocation);
* **free-list fencing** — no quarantined address is available for reuse;
* **free-cell sanity** — free cells are word aligned;
* **orphaned allocator cells** — every committed free-list chunk cell and
  every bump record corresponds to a live table object or a fenced
  address (a phantom record charges bytes nobody owns);
* **zone-routing agreement** — in a zone-sharded space, every cell held
  by shard *i* actually routes to zone *i* under the space's zone map.

Everything here is read-only and costs nothing when not called: the
collectors only invoke it behind ``if self.paranoid:``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Tuple

from repro.heap import header as hdr
from repro.heap.layout import is_aligned

if TYPE_CHECKING:
    from repro.gc.base import Collector
    from repro.runtime.vm import VirtualMachine

#: Collector attributes that may hold an allocation space.
_SPACE_ATTRS = ("space", "nursery", "mature", "from_space", "to_space")


def iter_spaces(collector: "Collector") -> Iterator[Tuple[str, object]]:
    """Yield ``(name, space)`` for every concrete space the collector owns.

    Zone-sharded facades are expanded into their per-zone shards (the
    shards hold the actual free lists and chunk tables); the facade itself
    is reachable via :func:`iter_sharded_spaces` for routing checks.
    """
    for attr in _SPACE_ATTRS:
        space = getattr(collector, attr, None)
        if space is None:
            continue
        shards = getattr(space, "shards", None)
        if shards is not None:
            for zone, shard in enumerate(shards):
                yield f"{attr}/z{zone}", shard
        else:
            yield attr, space


def iter_sharded_spaces(collector: "Collector") -> Iterator[Tuple[str, object]]:
    """Yield ``(name, facade)`` for every zone-sharded space facade."""
    for attr in _SPACE_ATTRS:
        space = getattr(collector, attr, None)
        if space is not None and getattr(space, "shards", None) is not None:
            yield attr, space


def paranoid_problems(vm: "VirtualMachine") -> list[str]:
    """Run the full paranoid walk; returns problem strings (empty = clean)."""
    problems: list[str] = []
    heap = vm.heap
    collector = vm.collector
    quarantine = collector.quarantine

    # -- header flag hygiene ---------------------------------------------------------
    # The bits above FLAG_MASK legitimately hold the identity hash (see
    # repro.heap.header), and OWNED/FREED/mark-set lifetime is checked by the
    # core walk in verify_heap.  What remains checkable here is flag
    # *consistency*: the ownership phase sets OWNED exclusively on objects
    # that already carry OWNEE, so an OWNED bit without OWNEE is a
    # corrupted header (e.g. an injected bit flip).
    for obj in heap:
        status = obj.status
        if (status & hdr.OWNED_BIT) and not (status & hdr.OWNEE_BIT):
            problems.append(
                f"paranoid: {obj!r} carries an OWNED bit without the OWNEE bit"
            )

    # -- per-space allocator structures ----------------------------------------------
    for name, space in iter_spaces(collector):
        free_list = getattr(space, "free_list", None)
        if free_list is not None:
            for cell_bytes, cells in free_list._cells.items():
                for address in cells:
                    if not is_aligned(address):
                        problems.append(
                            f"paranoid {name}: unaligned free cell {address:#x}"
                        )
                    if heap.contains(address):
                        problems.append(
                            f"paranoid {name}: free cell {address:#x} "
                            f"({cell_bytes}B) aliases a live object"
                        )
                    if address in quarantine:
                        problems.append(
                            f"paranoid {name}: fenced address {address:#x} "
                            "is available for reuse on the free list"
                        )
        chunks = getattr(space, "_chunks", None)
        if chunks is not None:
            for cells in chunks.values():
                for address in cells:
                    if not heap.contains(address) and address not in quarantine:
                        problems.append(
                            f"paranoid {name}: committed cell {address:#x} "
                            "has no table entry and is not fenced"
                        )
        allocated = getattr(space, "_allocated", None)
        if allocated is not None:
            for address, nbytes in allocated.items():
                if not heap.contains(address) and address not in quarantine:
                    problems.append(
                        f"paranoid {name}: orphan bump cell {address:#x} "
                        f"({nbytes}B) has no table entry and is not fenced"
                    )

    # -- zone-routing agreement -------------------------------------------------------
    for name, facade in iter_sharded_spaces(collector):
        zone_of = facade.zone_of
        for zone, shard in enumerate(facade.shards):
            chunks = getattr(shard, "_chunks", None) or {}
            for cells in chunks.values():
                for address in cells:
                    routed = zone_of(address)
                    if routed != zone:
                        problems.append(
                            f"paranoid {name}: cell {address:#x} held by "
                            f"zone {zone} but routes to zone {routed}"
                        )
            free_list = getattr(shard, "free_list", None)
            if free_list is not None:
                for cells in free_list._cells.values():
                    for address in cells:
                        routed = zone_of(address)
                        if routed != zone:
                            problems.append(
                                f"paranoid {name}: free cell {address:#x} on "
                                f"zone {zone} free list routes to zone {routed}"
                            )

    return problems
