"""Heap-analysis toolkit tests (paths, retained size, incoming refs)."""

import pytest

from repro.gc.analysis import (
    heap_census,
    incoming_references,
    path_to,
    reachable_from,
    retained_size,
)
from repro.heap import header as hdr
from repro.heap.object_model import FieldKind
from tests.conftest import build_chain, make_node_class


class TestPathTo:
    def test_path_through_chain(self, vm, node_class):
        nodes = build_chain(vm, node_class, 4)
        root_desc, chain = path_to(vm, nodes[3])
        assert "head" in root_desc
        assert [o.address for o in chain] == [n.obj.address for n in nodes]

    def test_path_is_shortest(self, vm, node_class):
        nodes = build_chain(vm, node_class, 5)
        vm.statics.set_ref("shortcut", nodes[3].address)
        root_desc, chain = path_to(vm, nodes[4])
        assert "shortcut" in root_desc
        assert len(chain) == 2

    def test_unreachable_returns_none(self, vm, node_class):
        with vm.scope():
            orphan = vm.new(node_class)
        assert path_to(vm, orphan.obj) is None

    def test_direct_root(self, vm, node_class):
        nodes = build_chain(vm, node_class, 1)
        root_desc, chain = path_to(vm, nodes[0])
        assert len(chain) == 1


class TestReachability:
    def test_closure_includes_self_and_descendants(self, vm, node_class):
        nodes = build_chain(vm, node_class, 4)
        closure = reachable_from(vm, nodes[1])
        assert closure == {n.obj.address for n in nodes[1:]}

    def test_cycle_terminates(self, vm, node_class):
        nodes = build_chain(vm, node_class, 3)
        nodes[2]["next"] = nodes[0]
        closure = reachable_from(vm, nodes[0])
        assert len(closure) == 3


class TestRetainedSize:
    def test_chain_tail_retained_by_middle(self, vm, node_class):
        nodes = build_chain(vm, node_class, 5)
        size = retained_size(vm, nodes[2])
        expected = sum(n.obj.size_bytes for n in nodes[2:])
        assert size == expected

    def test_shared_objects_not_retained(self, vm, node_class):
        with vm.scope():
            a = vm.new(node_class)
            b = vm.new(node_class)
            shared = vm.new(node_class)
            a["next"] = shared
            b["next"] = shared
            vm.statics.set_ref("a", a.address)
            vm.statics.set_ref("b", b.address)
        # a retains only itself: shared survives via b.
        assert retained_size(vm, a) == a.obj.size_bytes

    def test_memory_drag_quantified(self, vm):
        """The §3.2.1 oldCompany point: the dragged root retains the whole
        structure it dominates."""
        from repro.workloads.jbb.entities import build_company

        with vm.scope():
            company = build_company(vm, 1, 2, 5)
            vm.statics.set_ref("oldCompany", company.address)
        drag = retained_size(vm, company)
        # The company graph is hundreds of objects; dropping the root frees
        # essentially all of it.
        assert drag > 50 * 8
        vm.statics.drop_ref("oldCompany")
        vm.gc()
        assert vm.heap.stats.objects_live == 0

    def test_unreachable_object_retains_own_closure(self, vm, node_class):
        with vm.scope():
            a = vm.new(node_class)
            b = vm.new(node_class)
            a["next"] = b
        assert retained_size(vm, a) == a.obj.size_bytes + b.obj.size_bytes


class TestIncomingReferences:
    def test_field_and_root_holders_found(self, vm, node_class):
        nodes = build_chain(vm, node_class, 2)
        vm.statics.set_ref("also", nodes[1].address)
        holders = incoming_references(vm, nodes[1])
        descriptions = [d for d, _h in holders]
        assert any("also" in d for d in descriptions)
        assert any(d == "Node.next" for d in descriptions)

    def test_array_slot_named_by_index(self, vm, node_class):
        with vm.scope():
            arr = vm.new_array(node_class, 3)
            target = vm.new(node_class)
            arr[2] = target
            vm.statics.set_ref("arr", arr.address)
        holders = incoming_references(vm, target)
        assert any("[2]" in d for d, _h in holders)

    def test_no_holders_for_orphan(self, vm, node_class):
        with vm.scope():
            orphan = vm.new(node_class)
        assert incoming_references(vm, orphan.obj) == []


class TestCensus:
    def test_census_counts_by_class(self, vm, node_class):
        other = vm.define_class("Other", [("pad", FieldKind.INT)])
        build_chain(vm, node_class, 3)
        with vm.scope():
            vm.statics.set_ref("o", vm.new(other).address)
        census = heap_census(vm)
        assert census["Node"]["objects"] == 3
        assert census["Other"]["objects"] == 1
        assert census["Node"]["bytes"] == 3 * node_class.instance_size

    def test_census_sorted_by_bytes(self, vm, node_class):
        build_chain(vm, node_class, 10)
        census = heap_census(vm)
        sizes = [entry["bytes"] for entry in census.values()]
        assert sizes == sorted(sizes, reverse=True)


# -- what the analyses see between a lazy collection and its sweep ---------------------------


def _lazy_pair(sweep_mode):
    """``keep`` is rooted; two garbage nodes (one held by the other) point
    at it; one collection has run and, lazily, swept nothing yet."""
    from repro.runtime.vm import VirtualMachine

    vm = VirtualMachine(heap_bytes=4 << 20, sweep_mode=sweep_mode)
    node = make_node_class(vm)
    with vm.scope():
        keep = vm.new(node)
        vm.statics.set_ref("keep", keep.address)
        first, second = vm.new(node), vm.new(node)
        first["next"] = keep
        second["next"] = keep
    vm.gc()
    assert vm.collector.sweep_debt() == (sweep_mode == "lazy")
    return vm, keep


@pytest.mark.parametrize("sweep_mode", ["eager", "lazy"])
class TestUnsweptGarbageIsNotLive:
    def test_census_counts_the_live_only(self, sweep_mode):
        vm, _keep = _lazy_pair(sweep_mode)
        assert heap_census(vm)["Node"]["objects"] == 1

    def test_no_dead_holder_is_named(self, sweep_mode):
        vm, keep = _lazy_pair(sweep_mode)
        assert [d for d, _h in incoming_references(vm, keep)] == ["static 'keep'"]

    def test_the_answers_leave_the_debt_alone(self, sweep_mode):
        vm, keep = _lazy_pair(sweep_mode)
        heap_census(vm), incoming_references(vm, keep), path_to(vm, keep)
        assert vm.collector.sweep_debt() == (sweep_mode == "lazy")


class TestPathToOnADamagedHeap:
    """``path_to`` follows ``ObjectHeap.closure``'s policy: an edge that is
    null, untabled or freed is neither entered nor followed."""

    def _damaged(self, vm, node_class, damage):
        nodes = build_chain(vm, node_class, 3)
        with vm.scope():
            orphan = vm.new(node_class)
        damage(nodes[1].obj)
        return nodes, orphan

    @pytest.mark.parametrize("damage", ["dangling", "freed"])
    def test_unreachable_target_is_none_not_an_error(self, vm, node_class, damage):
        def dangle(obj):
            obj.slots[0] = 0x7FFF0  # no object was ever allocated here

        def free(obj):
            vm.heap.get(obj.slots[0]).status |= hdr.FREED_BIT

        nodes, orphan = self._damaged(vm, node_class, dangle if damage == "dangling" else free)
        assert path_to(vm, orphan.obj) is None
        assert path_to(vm, nodes[2].obj.address) is None
        _desc, chain = path_to(vm, nodes[1])
        assert [o.address for o in chain] == [n.obj.address for n in nodes[:2]]
        assert {n.obj.address for n in nodes[:2]} == reachable_from(vm, nodes[0])
