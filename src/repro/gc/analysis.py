"""Heap analysis: reachability queries outside of collections.

Violation reports give a path at GC time; when debugging interactively you
often want the same questions answered *now*, without registering an
assertion: who keeps this object alive?  how much memory would freeing it
release?  what does this subsystem retain?

All functions operate on a quiesced VM (no collection in progress) and do
not mutate header bits — reachability is :meth:`ObjectHeap.closure
<repro.heap.heap.ObjectHeap.closure>`, a Python-side visited set, so they
are safe to call between any two mutator operations.

* :func:`path_to` — shortest root-to-object reference chain (BFS), the
  interactive analog of the Figure-1 report.
* :func:`reachable_from` — the transitive closure below an object.
* :func:`retained_size` — bytes that would become unreachable if one object
  vanished (computed by re-running reachability with the object excluded);
  this is the classic dominator-based "retained size" of heap profilers.
* :func:`incoming_references` — every (holder, slot) that references an
  object, including roots.
* :func:`heap_census` — live objects/bytes per class.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional, Union

from repro.heap.layout import NULL
from repro.heap.object_model import HeapObject

if TYPE_CHECKING:
    from repro.runtime.vm import VirtualMachine

Target = Union[HeapObject, int]


def _address_of(vm: "VirtualMachine", target: Target) -> int:
    if isinstance(target, HeapObject):
        return target.address
    if isinstance(target, int):
        return target
    obj = getattr(target, "obj", None)
    if obj is not None:
        return obj.address
    raise TypeError(f"cannot analyze {target!r}")


def path_to(vm: "VirtualMachine", target: Target) -> Optional[tuple[str, list[HeapObject]]]:
    """Shortest reference chain from a root to ``target``.

    Returns ``(root_description, [objects root-first ... target])``, or None
    when the object is unreachable (i.e. garbage awaiting collection).
    """
    heap = vm.heap
    wanted = _address_of(vm, target)
    parents: dict[int, tuple[Optional[int], str]] = {}
    queue: deque[int] = deque()
    for description, address in vm.root_entries():
        if address not in parents:
            parents[address] = (None, description)
            queue.append(address)
    while queue:
        address = queue.popleft()
        if address == wanted:
            chain: list[HeapObject] = []
            cursor: Optional[int] = address
            root_desc = ""
            while cursor is not None:
                chain.append(heap.get(cursor))
                cursor, desc = parents[cursor]
                if cursor is None:
                    root_desc = desc
            chain.reverse()
            return root_desc, chain
        for ref in heap.get(address).reference_slots():
            if ref != NULL and ref not in parents:
                parents[ref] = (address, "")
                queue.append(ref)
    return None


def reachable_from(vm: "VirtualMachine", target: Target) -> set[int]:
    """Addresses of every object reachable from ``target`` (inclusive)."""
    return vm.heap.closure([_address_of(vm, target)])


def retained_size(vm: "VirtualMachine", target: Target) -> int:
    """Bytes that would be reclaimed if ``target`` disappeared.

    The target's own size plus everything reachable *only* through it —
    the "retained size" heap profilers report, and the quantity the
    paper's memory-drag discussion is about (the dragged Company "keeps a
    great deal of data live").
    """
    heap = vm.heap
    excluded = _address_of(vm, target)
    roots = [address for _desc, address in vm.root_entries()]
    retained = heap.closure(roots)
    if excluded in retained:
        retained -= heap.closure(roots, excluding=excluded)
    else:
        # Unreachable already: its retained set is its own closure.
        retained = heap.closure([excluded])
    return sum(heap.get(a).size_bytes for a in retained)


def incoming_references(
    vm: "VirtualMachine", target: Target
) -> list[tuple[str, Optional[HeapObject]]]:
    """Everything referencing ``target``: ``(description, holder)`` pairs.

    Heap holders carry the holding object; root holders have ``None`` with
    the root description.  This is the "who is keeping it alive" question
    answered directly.
    """
    heap = vm.heap
    wanted = _address_of(vm, target)
    holders: list[tuple[str, Optional[HeapObject]]] = []
    for description, address in vm.root_entries():
        if address == wanted:
            holders.append((description, None))
    for obj in heap:
        for index, ref in zip(obj.reference_slot_indices(), obj.reference_slots()):
            if ref == wanted:
                if obj.cls.is_array:
                    slot_name = f"[{index}]"
                else:
                    slot_name = obj.cls.all_fields[index].name
                holders.append((f"{obj.cls.name}.{slot_name}", obj))
    return holders


def heap_census(vm: "VirtualMachine") -> dict[str, dict]:
    """Live objects and bytes per class, descending by bytes."""
    census: dict[str, dict] = {}
    for obj in vm.heap:
        entry = census.setdefault(obj.cls.name, {"objects": 0, "bytes": 0})
        entry["objects"] += 1
        entry["bytes"] += obj.size_bytes
    return dict(
        sorted(census.items(), key=lambda item: item[1]["bytes"], reverse=True)
    )
