"""VM facade: construction, threads, allocation, configuration."""

import pytest

from repro.errors import AssertionUsageError, RuntimeFault
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from tests.conftest import make_node_class


class TestConstruction:
    def test_default_is_marksweep_with_assertions(self):
        vm = VirtualMachine()
        assert vm.collector.name == "marksweep"
        assert vm.engine is not None
        assert vm.assertions is not None
        assert vm.collector.track_paths

    def test_base_configuration(self):
        vm = VirtualMachine(assertions=False)
        assert vm.engine is None
        assert vm.assertions is None
        assert not vm.collector.track_paths

    def test_unknown_collector_rejected(self):
        with pytest.raises(RuntimeFault):
            VirtualMachine(collector="cheney")

    @pytest.mark.parametrize("name", ["marksweep", "semispace", "generational"])
    def test_all_collectors_constructible(self, name):
        vm = VirtualMachine(heap_bytes=1 << 20, collector=name)
        assert vm.collector.name == name

    def test_prebuilt_collector_rejects_the_options_it_would_drop(self):
        # Each of these configures the collector the VM builds; an instance
        # was configured when it was built.
        from repro.gc.marksweep import MarkSweepCollector

        with pytest.raises(RuntimeFault) as caught:
            VirtualMachine(
                collector=MarkSweepCollector(1 << 20), hardened=True,
                sweep_mode="lazy", gc_workers=2, max_heap_bytes=4 << 20,
            )
        for option in ("hardened", "max_heap_bytes", "sweep_mode", "gc_workers"):
            assert option in str(caught.value)
        with pytest.raises(RuntimeFault, match="^gc_workers: options"):
            VirtualMachine(collector=MarkSweepCollector(1 << 20), gc_workers=0)
        collector = MarkSweepCollector(1 << 20, sweep_mode="lazy", hardened=True)
        assert VirtualMachine(collector=collector).collector is collector

    def test_assertions_property_raises_in_base_config(self):
        vm = VirtualMachine(assertions=False)
        from repro.core.api import GcAssertions

        with pytest.raises(AssertionUsageError):
            GcAssertions(vm)

    def test_describe_mentions_collector(self):
        vm = VirtualMachine()
        assert "marksweep" in vm.describe()


class TestThreads:
    def test_main_thread_exists(self):
        vm = VirtualMachine()
        assert vm.current_thread is vm.main_thread
        assert vm.main_thread.name == "main"

    def test_new_thread_gets_unique_id(self):
        vm = VirtualMachine()
        t1 = vm.new_thread()
        t2 = vm.new_thread("worker")
        assert t1.thread_id != t2.thread_id
        assert t2.name == "worker"

    def test_on_thread_switches_allocation_context(self):
        vm = VirtualMachine()
        cls = make_node_class(vm)
        worker = vm.new_thread("w")
        worker.begin_region()
        with vm.on_thread(worker):
            with vm.scope():
                vm.new(cls)
        assert len(worker.region_queue) == 1
        assert vm.current_thread is vm.main_thread

    def test_scope_binds_to_named_thread(self):
        vm = VirtualMachine()
        worker = vm.new_thread("w")
        with vm.scope(thread=worker) as scope:
            assert worker.scopes == [scope]
        assert worker.scopes == []


class TestAllocation:
    def test_new_by_class_name(self):
        vm = VirtualMachine()
        make_node_class(vm)
        with vm.scope():
            node = vm.new("Node", value=3)
            assert node["value"] == 3

    def test_new_array_negative_length_rejected(self):
        vm = VirtualMachine()
        with pytest.raises(RuntimeFault):
            vm.new_array(FieldKind.INT, -1)

    def test_new_on_array_class_rejected(self):
        vm = VirtualMachine()
        cls = make_node_class(vm)
        arr_cls = vm.array_class(cls)
        with pytest.raises(RuntimeFault):
            vm.new(arr_cls)

    def test_array_class_by_string(self):
        vm = VirtualMachine()
        make_node_class(vm)
        assert vm.array_class("Node").name == "Node[]"
        assert vm.array_class("int").name == "int[]"

    def test_define_class_accepts_string_kinds(self):
        vm = VirtualMachine()
        cls = vm.define_class("S", [("a", "int"), ("b", "ref")])
        assert cls.field("a").kind is FieldKind.INT
        assert cls.field("b").kind is FieldKind.REF

    def test_minor_gc_requires_generational(self):
        vm = VirtualMachine()
        with pytest.raises(RuntimeFault):
            vm.minor_gc()


class TestRootCallbacks:
    def test_root_entries_cover_statics_and_threads(self):
        vm = VirtualMachine()
        cls = make_node_class(vm)
        frame = vm.main_thread.push_frame("m")
        with vm.scope():
            a = vm.new(cls)
            b = vm.new(cls)
            vm.statics.set_ref("s", a.address)
            frame.set_ref("f", b.address)
            roots = {addr for _d, addr in vm.root_entries()}
            assert a.address in roots
            assert b.address in roots

    def test_null_roots_clears_everywhere(self):
        vm = VirtualMachine()
        cls = make_node_class(vm)
        frame = vm.main_thread.push_frame("m")
        with vm.scope():
            a = vm.new(cls)
            vm.statics.set_ref("s", a.address)
            frame.set_ref("f", a.address)
            vm.null_roots({a.address})
            roots = {addr for _d, addr in vm.root_entries()}
            assert a.address not in roots
