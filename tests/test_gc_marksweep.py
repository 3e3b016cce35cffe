"""MarkSweep collector behavior: reachability, reclamation, recycling."""

import pytest

from repro.errors import OutOfMemoryError, UseAfterFreeError
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from tests.conftest import build_chain, make_node_class


class TestReachability:
    def test_static_rooted_objects_survive(self, vm, node_class):
        nodes = build_chain(vm, node_class, 5)
        vm.gc()
        for node in nodes:
            assert node.is_live

    def test_unrooted_objects_are_collected(self, vm, node_class):
        with vm.scope():
            vm.new(node_class)
        vm.gc()
        assert vm.heap.stats.objects_live == 0

    def test_frame_local_roots_survive(self, vm, node_class):
        frame = vm.current_thread.push_frame("f")
        with vm.scope():
            node = vm.new(node_class)
            frame.set_ref("n", node.address)
        vm.gc()
        assert node.is_live
        vm.current_thread.pop_frame()
        vm.gc()
        assert not node.is_live

    def test_scope_roots_survive_until_exit(self, vm, node_class):
        with vm.scope():
            node = vm.new(node_class)
            vm.gc()
            assert node.is_live
        vm.gc()
        assert not node.is_live

    def test_transitive_reachability(self, vm, node_class):
        nodes = build_chain(vm, node_class, 10)
        vm.gc()
        assert all(n.is_live for n in nodes)
        # Cut the chain in the middle: the tail dies.
        nodes[4]["next"] = None
        vm.gc()
        assert all(n.is_live for n in nodes[:5])
        assert all(not n.is_live for n in nodes[5:])

    def test_cycles_are_collected(self, vm, node_class):
        with vm.scope():
            a = vm.new(node_class)
            b = vm.new(node_class)
            a["next"] = b
            b["next"] = a
        vm.gc()
        assert not a.is_live
        assert not b.is_live

    def test_cycle_rooted_survives(self, vm, node_class):
        with vm.scope():
            a = vm.new(node_class)
            b = vm.new(node_class)
            a["next"] = b
            b["next"] = a
            vm.statics.set_ref("cycle", a.address)
        vm.gc()
        assert a.is_live and b.is_live

    def test_multiple_gcs_idempotent_on_live_graph(self, vm, node_class):
        build_chain(vm, node_class, 8)
        vm.gc()
        live_after_first = vm.heap.stats.objects_live
        vm.gc()
        vm.gc()
        assert vm.heap.stats.objects_live == live_after_first


class TestAllocationTriggers:
    def test_gc_triggered_by_pressure(self, node_class):
        vm = VirtualMachine(heap_bytes=16 << 10)
        cls = make_node_class(vm)
        for _ in range(2000):
            with vm.scope():
                vm.new(cls)
        assert vm.stats.collections > 0

    def test_oom_when_live_exceeds_heap(self):
        vm = VirtualMachine(heap_bytes=8 << 10)
        cls = make_node_class(vm)
        with pytest.raises(OutOfMemoryError):
            build_chain(vm, cls, 10_000)

    def test_address_recycling_after_gc(self, node_class, vm):
        with vm.scope():
            a = vm.new(node_class)
        addr = a.obj.address
        vm.gc()
        with vm.scope():
            b = vm.new(node_class)
            # Same size class: the freed cell is recycled LIFO.
            assert b.obj.address == addr

    def test_run_cache_serves_small_allocations_from_recycled_cells(self):
        """The regime the run cache targets: popping cells a sweep freed.

        A count, not a timing: one refill per run of cells, so the fast
        path must take at least nine allocations in ten.
        """
        vm = VirtualMachine(heap_bytes=8 << 20, assertions=False, telemetry=False)
        cls = make_node_class(vm)
        allocate = vm.collector.allocate
        n_allocs = 20_000
        for _ in range(n_allocs):
            allocate(cls)  # unrooted prefill ...
        vm.gc("populate the free lists")  # ... freed: the cells are recycled
        hits_before = vm.stats.alloc_fast_hits
        for _ in range(n_allocs):
            allocate(cls)
        assert (vm.stats.alloc_fast_hits - hits_before) / n_allocs >= 0.9

    def test_use_after_free_detected(self, vm, node_class):
        with vm.scope():
            a = vm.new(node_class)
        vm.gc()
        with pytest.raises(UseAfterFreeError):
            a["value"]


class TestSweepHygiene:
    def test_mark_bits_cleared_after_collection(self, vm, node_class):
        build_chain(vm, node_class, 4)
        vm.gc()
        assert not vm.heap.marks

    def test_space_accounting_matches_object_table(self, vm, node_class):
        build_chain(vm, node_class, 16)
        vm.gc()
        assert vm.collector.bytes_in_use() >= vm.heap.live_bytes()

    def test_stats_counters_move(self, vm, node_class):
        build_chain(vm, node_class, 16)
        vm.gc()
        stats = vm.stats
        assert stats.collections == 1
        assert stats.full_collections == 1
        assert stats.objects_traced >= 16
        assert stats.objects_swept >= 16
        assert stats.gc_seconds > 0

    def test_gc_log_records_reason(self, vm):
        vm.gc(reason="unit test")
        assert any("unit test" in line for line in vm.collector.gc_log)


class TestNoDanglingReferences:
    def test_all_fields_point_to_live_objects_after_gc(self, vm, node_class):
        nodes = build_chain(vm, node_class, 20)
        nodes[9]["next"] = None
        vm.gc()
        heap = vm.heap
        for obj in heap:
            for ref in obj.reference_slots():
                if ref != 0:
                    assert heap.contains(ref), "dangling reference after GC"
