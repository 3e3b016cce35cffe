"""assert-instances (§2.4.1): per-class live-instance limits."""

import pytest

from repro.core.reporting import AssertionKind
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from tests.conftest import build_chain, make_node_class


class TestInstanceLimits:
    def test_under_limit_passes(self, vm, node_class):
        build_chain(vm, node_class, 3)
        vm.assertions.assert_instances(node_class, 5)
        vm.gc()
        assert len(vm.engine.log) == 0

    def test_at_limit_passes(self, vm, node_class):
        build_chain(vm, node_class, 5)
        vm.assertions.assert_instances(node_class, 5)
        vm.gc()
        assert len(vm.engine.log) == 0

    def test_over_limit_triggers(self, vm, node_class):
        build_chain(vm, node_class, 6)
        vm.assertions.assert_instances(node_class, 5)
        vm.gc()
        violations = vm.engine.log.of_kind(AssertionKind.INSTANCES)
        assert len(violations) == 1
        assert violations[0].details["count"] == 6
        assert violations[0].details["limit"] == 5

    def test_zero_limit_flags_any_instance(self, vm, node_class):
        """'Passing 0 for I checks that no instances of a particular class
        exist (at GC time).'"""
        build_chain(vm, node_class, 1)
        vm.assertions.assert_instances(node_class, 0)
        vm.gc()
        assert len(vm.engine.log.of_kind(AssertionKind.INSTANCES)) == 1

    def test_counts_only_live_instances(self, vm, node_class):
        nodes = build_chain(vm, node_class, 8)
        vm.assertions.assert_instances(node_class, 5)
        nodes[3]["next"] = None  # nodes 4..7 die
        vm.gc()
        assert len(vm.engine.log) == 0
        assert node_class.instance_count == 4

    def test_count_resets_each_gc(self, vm, node_class):
        build_chain(vm, node_class, 3)
        vm.assertions.assert_instances(node_class, 10)
        vm.gc()
        vm.gc()
        assert node_class.instance_count == 3  # not 6

    def test_by_class_name(self, vm, node_class):
        build_chain(vm, node_class, 2)
        vm.assertions.assert_instances("Node", 1)
        vm.gc()
        assert len(vm.engine.log) == 1

    def test_singleton_pattern_check(self, vm):
        singleton_cls = vm.define_class("Singleton", [("data", "int")])
        vm.assertions.assert_instances(singleton_cls, 1)
        with vm.scope():
            a = vm.new(singleton_cls)
            vm.statics.set_ref("instance", a.address)
        vm.gc()
        assert len(vm.engine.log) == 0
        # A second instance appears (e.g. via serialization): violation.
        with vm.scope():
            b = vm.new(singleton_cls)
            vm.statics.set_ref("rogue", b.address)
        vm.gc()
        assert len(vm.engine.log.of_kind(AssertionKind.INSTANCES)) == 1

    def test_untracked_classes_not_counted(self, vm, node_class):
        other = vm.define_class("Other")
        build_chain(vm, node_class, 3)
        vm.assertions.assert_instances(other, 0)
        vm.gc()
        assert len(vm.engine.log) == 0
        assert node_class.instance_count == 0  # Node is not tracked

    def test_limit_update_takes_latest(self, vm, node_class):
        build_chain(vm, node_class, 4)
        vm.assertions.assert_instances(node_class, 1)
        vm.assertions.assert_instances(node_class, 10)
        vm.gc()
        assert len(vm.engine.log) == 0

    def test_violation_repeats_while_over(self, vm, node_class):
        build_chain(vm, node_class, 2)
        vm.assertions.assert_instances(node_class, 1)
        vm.gc()
        vm.gc()
        assert len(vm.engine.log.of_kind(AssertionKind.INSTANCES)) == 2

    def test_no_path_available_for_instances(self, vm, node_class):
        """§2.7: for assert-instances 'the problem paths may have been traced
        earlier' — no path is reported."""
        build_chain(vm, node_class, 2)
        vm.assertions.assert_instances(node_class, 1)
        vm.gc()
        violation = vm.engine.log.of_kind(AssertionKind.INSTANCES)[0]
        assert violation.path is None


@pytest.mark.parametrize("sweep_mode", ["eager", "lazy"])
@pytest.mark.parametrize("owned", [False, True], ids=["unowned", "owned"])
def test_instance_count_increments_include_the_ownership_phase(sweep_mode, owned):
    """Every increment of ``instance_count`` is on the books, whichever phase
    made it: with one ``Item`` owned by the box, phase 1 marks the ``Item``s
    before the root scan, and the stat must still read 2."""
    vm = VirtualMachine(heap_bytes=1 << 20, collector="marksweep", sweep_mode=sweep_mode)
    box_cls = vm.define_class("Box", [("a", FieldKind.REF), ("b", FieldKind.REF)])
    item_cls = vm.define_class("Item", [("n", FieldKind.INT)])
    with vm.scope("instances"):
        box = vm.new(box_cls)
        box["a"], box["b"] = vm.new(item_cls), vm.new(item_cls)
        vm.statics.set_ref("box", box.address)
        vm.assertions.assert_instances(item_cls, 5)
        if owned:
            vm.assertions.assert_ownedby(box, box["a"])
    vm.gc()
    assert item_cls.instance_count == 2
    assert vm.stats.instance_count_increments == 2
    assert len(vm.engine.log) == 0
