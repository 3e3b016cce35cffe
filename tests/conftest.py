"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine

#: Collectors that support the full assertion machinery.
ALL_COLLECTORS = ["marksweep", "semispace", "generational"]


@pytest.fixture
def vm() -> VirtualMachine:
    """A MarkSweep VM with assertions enabled and a roomy heap."""
    return VirtualMachine(heap_bytes=4 << 20)


@pytest.fixture
def tight_vm() -> VirtualMachine:
    """A small-heap VM that collects frequently under allocation."""
    return VirtualMachine(heap_bytes=64 << 10)


@pytest.fixture
def base_vm() -> VirtualMachine:
    """The paper's Base configuration: no assertion infrastructure."""
    return VirtualMachine(heap_bytes=4 << 20, assertions=False, track_paths=False)


@pytest.fixture(params=ALL_COLLECTORS)
def any_vm(request) -> VirtualMachine:
    """Parametrized over all three collectors."""
    return VirtualMachine(heap_bytes=4 << 20, collector=request.param)


@pytest.fixture
def node_class(vm):
    """A linked-list node class on the default vm."""
    return vm.define_class(
        "Node", [("next", FieldKind.REF), ("value", FieldKind.INT)]
    )


def make_node_class(vm: VirtualMachine):
    return vm.define_class(
        "Node", [("next", FieldKind.REF), ("value", FieldKind.INT)]
    )


def build_chain(vm: VirtualMachine, node_cls, length: int, root_name: str = "head"):
    """Build a rooted linked list; returns the list of handles, head first."""
    nodes = []
    with vm.scope("build_chain"):
        prev = None
        for i in range(length):
            node = vm.new(node_cls, value=i)
            if prev is not None:
                prev["next"] = node
            else:
                vm.statics.set_ref(root_name, node.address)
            nodes.append(node)
            prev = node
    return nodes


def oracle_reachable(heap, seeds, excluding=None) -> set[int]:
    """Brute-force reachability over the heap's table: every address with a
    live (tabled, not ``FREED``) object reachable from ``seeds`` without
    entering ``excluding``.

    The tests' one oracle for "what is reachable", written as a fixpoint
    over the whole table rather than a worklist walk and sharing no code
    with ``ObjectHeap.closure`` on purpose: it is what convicts it
    (``tests/test_heap_objectheap.py``), and what the mark-set and
    fault-injection suites judge the collectors by.
    """
    live = {
        address: set(obj.reference_slots())
        for address, obj in heap.address_table().items()
        if not obj.is_freed and address != excluding
    }
    reached = set(seeds) & live.keys()
    while True:
        grown = reached.union(*(live[address] for address in reached)) & live.keys()
        if grown == reached:
            return reached
        reached = grown
