"""The paranoid wellformedness walker and its per-GC collector hooks.

Three surfaces under test: :func:`repro.verify.paranoid.paranoid_problems`
(each allocator-structure invariant fires on hand-planted damage and stays
silent on clean heaps), ``verify_heap(..., paranoid=True)`` composition,
and the ``paranoid=True`` VM mode (walks around every collection, typed
``HeapVerificationError`` on damage, bit-identical counters when clean).
"""

from __future__ import annotations

import pytest

from repro.gc.verify import HeapVerificationError, verify_heap
from repro.runtime.vm import VirtualMachine
from repro.verify import iter_spaces, paranoid_problems

HEAP = 1 << 20


def _populated_vm(collector: str = "marksweep", **kwargs):
    """A VM with a statically-rooted 16-node chain (all nodes stay live)."""
    vm = VirtualMachine(heap_bytes=HEAP, collector=collector,
                        telemetry=False, **kwargs)
    node = vm.define_class("PNode", [("next", "ref"), ("v", "int")])
    with vm.scope("populate"):
        handles = [vm.new(node, v=i) for i in range(16)]
        for a, b in zip(handles, handles[1:]):
            a["next"] = b
        vm.statics.set_ref("head", handles[0].address)
    return vm, handles


# -- clean heaps are clean --------------------------------------------------------------


@pytest.mark.parametrize("collector", ["marksweep", "semispace", "generational"])
def test_clean_heap_has_no_paranoid_problems(collector):
    vm, _handles = _populated_vm(collector)
    vm.gc("settle")
    assert paranoid_problems(vm) == []
    assert verify_heap(vm, raise_on_error=False, paranoid=True) == []


def test_iter_spaces_expands_zone_shards():
    vm = VirtualMachine(heap_bytes=HEAP, gc_workers=2, telemetry=False)
    names = [name for name, _space in iter_spaces(vm.collector)]
    assert any("/z" in name for name in names), names


# -- each invariant convicts planted damage ---------------------------------------------


def test_free_cell_aliasing_a_live_object_is_flagged():
    vm, handles = _populated_vm()
    space = vm.collector.space
    live = handles[0].address
    space.free_list.push(live, space.cell_size(live))
    problems = paranoid_problems(vm)
    assert any("aliases a live object" in p for p in problems), problems


def test_fenced_address_on_the_free_list_is_flagged():
    vm, handles = _populated_vm()
    space = vm.collector.space
    victim = handles[-1].address
    # Model a buggy sweep: the cell is both quarantined and reusable.
    vm.collector.quarantine.fence(victim)
    space.free_list.push(victim, space.cell_size(victim))
    problems = paranoid_problems(vm)
    assert any("is available for reuse" in p for p in problems), problems


def test_committed_cell_without_table_entry_is_flagged():
    vm, handles = _populated_vm()
    victim = handles[-1].address
    # Evict the object from the table while the chunk metadata still
    # charges the cell — a phantom allocation nobody owns.
    vm.heap.evict(vm.heap.get(victim))
    problems = paranoid_problems(vm)
    assert any("has no table entry" in p for p in problems), problems


def test_orphan_bump_cell_is_flagged():
    vm, handles = _populated_vm("semispace")
    space = vm.collector.from_space
    victim = handles[-1].address
    assert victim in space._allocated
    vm.heap.evict(vm.heap.get(victim))
    problems = paranoid_problems(vm)
    assert any("orphan bump cell" in p for p in problems), problems


def test_zone_routing_disagreement_is_flagged():
    vm = VirtualMachine(heap_bytes=HEAP, gc_workers=2, telemetry=False)
    node = vm.define_class("ZNode", [("v", "int")])
    with vm.scope("zones"):
        handles = [vm.new(node, v=i) for i in range(8)]
        facade = vm.collector.space
        address = handles[0].address
        home = facade.zone_of(address)
        wrong = (home + 1) % len(facade.shards)
        chunk = address >> 16
        cell = facade.shards[home]._chunks[chunk].pop(address)
        facade.shards[wrong]._chunks.setdefault(chunk, {})[address] = cell
        problems = paranoid_problems(vm)
        assert any("routes to zone" in p for p in problems), problems


# -- the per-GC hooks -------------------------------------------------------------------


def test_paranoid_vm_walks_around_every_collection():
    vm, _handles = _populated_vm(paranoid=True)
    assert vm.collector.paranoid is True
    before = vm.collector.paranoid_walks
    vm.gc("walk me")
    assert vm.collector.paranoid_walks == before + 2  # pre + post


def test_paranoid_hook_raises_typed_error_on_damage():
    vm, handles = _populated_vm(paranoid=True)
    space = vm.collector.space
    live = handles[0].address
    space.free_list.push(live, space.cell_size(live))
    with pytest.raises(HeapVerificationError) as excinfo:
        vm.gc("damaged")
    assert "paranoid[pre-gc]" in str(excinfo.value)
    assert excinfo.value.problems  # the full problem list rides along


def test_paranoid_minor_collections_are_walked_too():
    vm, _handles = _populated_vm("generational", paranoid=True)
    before = vm.collector.paranoid_walks
    vm.minor_gc("walk the nursery")
    assert vm.collector.paranoid_walks == before + 1  # post-minor


def test_paranoid_off_is_bit_identical():
    counters = {}
    for paranoid in (False, True):
        vm, _handles = _populated_vm(paranoid=paranoid)
        for _ in range(3):
            vm.gc("identity")
        s = vm.stats
        counters[paranoid] = (
            s.collections, s.objects_traced, s.edges_traced,
            s.objects_freed, s.bytes_freed, s.header_bit_checks,
        )
        if not paranoid:
            assert vm.collector.paranoid_walks == 0
    assert counters[False] == counters[True]


def test_readonly_verify_leaves_lazy_debt_untouched():
    vm = VirtualMachine(heap_bytes=HEAP, sweep_mode="lazy", telemetry=False)
    node = vm.define_class("LNode", [("v", "int")])
    with vm.scope("lazy"):
        for i in range(64):
            vm.new(node, v=i)
    vm.gc("make garbage")  # scope closed: all 64 are dead, sweep deferred
    debt = vm.collector.sweep_debt()
    assert debt > 0
    problems = verify_heap(vm, raise_on_error=False, paranoid=True)
    assert problems == []
    assert vm.collector.sweep_debt() == debt  # read-only: debt unchanged
