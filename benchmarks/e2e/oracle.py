"""The benchmark's own reachability reference.

A breadth-first walk over ``obj.slots`` from the VM's roots.  It reads mark
bits nowhere and shares no code with ``repro.gc.tracer``, so agreeing with
it says something about the collector.
"""

from __future__ import annotations

from collections import deque


def reachable(vm) -> set[int]:
    """Addresses of every object reachable from ``vm``'s roots."""
    heap = vm.heap
    seen: set[int] = set()
    queue: deque[int] = deque()
    for _description, address in vm.root_entries():
        if address and address not in seen:
            seen.add(address)
            queue.append(address)
    while queue:
        obj = heap.get(queue.popleft())
        cls = obj.cls
        if cls.is_array:
            children = obj.slots if cls.element_kind.is_reference else ()
        else:
            slots = obj.slots
            children = [slots[i] for i in cls.ref_slots]
        for child in children:
            if child and child not in seen:
                seen.add(child)
                queue.append(child)
    return seen


def live_set_problems(vm, label: str) -> list[str]:
    """After a full collection the heap table must hold exactly the
    reachable set."""
    expected = reachable(vm)
    live = vm.heap.stats.objects_live
    if live != len(expected):
        return [f"{label}: {live} objects live, reference walk reaches {len(expected)}"]
    missing = [a for a in expected if not vm.heap.contains(a)]
    if missing:
        return [f"{label}: {len(missing)} reachable objects are not in the heap table"]
    return []
