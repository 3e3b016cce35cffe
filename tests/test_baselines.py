"""Cork-style growth and staleness baselines."""

import pytest

from repro.baselines import StalenessDetector, TypeGrowthProfiler
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from repro.workloads.containers import Vector
from tests.conftest import build_chain, make_node_class


class TestTypeGrowthProfiler:
    def test_flags_monotonically_growing_type(self, vm):
        leak_cls = vm.define_class("Leaky", [("payload", FieldKind.INT)])
        profiler = TypeGrowthProfiler(vm)
        retained = Vector.new(vm)
        vm.statics.set_ref("retained", retained.handle.address)
        for round_ in range(5):
            with vm.scope():
                for _ in range(10):
                    retained.append(vm.new(leak_cls))
            vm.gc()
        reports = profiler.report()
        assert any(r.type_name == "Leaky" for r in reports)
        leaky = next(r for r in reports if r.type_name == "Leaky")
        assert leaky.last_bytes > leaky.first_bytes
        assert "Leaky" in leaky.render()

    def test_stable_type_not_flagged(self, vm, node_class):
        profiler = TypeGrowthProfiler(vm)
        build_chain(vm, node_class, 10)
        for _ in range(5):
            vm.gc()
        assert profiler.report() == []

    def test_churning_type_not_flagged(self, vm, node_class):
        """High allocation but stable live volume: no report."""
        profiler = TypeGrowthProfiler(vm)
        build_chain(vm, node_class, 10)
        for _ in range(5):
            with vm.scope():
                for _ in range(50):
                    vm.new(node_class)
            vm.gc()
        assert profiler.report() == []

    def test_reports_types_not_instances(self, vm):
        """The paper's precision contrast: Cork output has no paths."""
        leak_cls = vm.define_class("Leaky", [("p", FieldKind.INT)])
        profiler = TypeGrowthProfiler(vm)
        retained = Vector.new(vm)
        vm.statics.set_ref("r", retained.handle.address)
        for _ in range(4):
            with vm.scope():
                for _ in range(8):
                    retained.append(vm.new(leak_cls))
            vm.gc()
        report = profiler.report()[0]
        assert not hasattr(report, "path")
        assert not hasattr(report, "address")

    def test_detach_stops_observing(self, vm, node_class):
        profiler = TypeGrowthProfiler(vm)
        vm.gc()
        profiler.detach()
        vm.gc()
        assert profiler.collections_observed == 1


class TestStalenessDetector:
    def test_idle_objects_become_candidates(self, vm, node_class):
        nodes = build_chain(vm, node_class, 3)
        detector = StalenessDetector(vm, stale_after=2)
        for _ in range(3):
            vm.gc()
        candidates = detector.candidates()
        assert len(candidates) == 3
        assert candidates[0].idle_epochs >= 2

    def test_accessed_objects_stay_fresh(self, vm, node_class):
        nodes = build_chain(vm, node_class, 2)
        detector = StalenessDetector(vm, stale_after=2)
        for _ in range(4):
            nodes[0]["value"]  # the read barrier refreshes node 0
            vm.gc()
        stale_addresses = {c.address for c in detector.candidates()}
        assert nodes[0].obj.address not in stale_addresses
        assert nodes[1].obj.address in stale_addresses

    def test_false_positive_on_live_idle_data(self, vm, node_class):
        """The heuristic's weakness the paper calls out: rarely-touched but
        perfectly live data is flagged."""
        nodes = build_chain(vm, node_class, 1)  # a "config" object
        detector = StalenessDetector(vm, stale_after=2)
        for _ in range(3):
            vm.gc()
        assert detector.candidates()  # flagged despite being alive and needed

    def test_freed_objects_drop_out(self, vm, node_class):
        with vm.scope():
            vm.new(node_class)
        detector = StalenessDetector(vm, stale_after=1)
        vm.gc()
        vm.gc()
        assert detector.candidates() == []

    @pytest.mark.parametrize("sweep_mode", ["eager", "lazy"])
    def test_new_occupants_of_recycled_cells_start_fresh(self, sweep_mode):
        vm = VirtualMachine(heap_bytes=4 << 20, sweep_mode=sweep_mode)
        cls = make_node_class(vm)
        detector = StalenessDetector(vm, stale_after=3)
        with vm.scope():
            dead = {vm.new(cls).address for _ in range(50)}
        vm.gc()
        vm.collector.sweep_all()
        fresh = build_chain(vm, cls, 50)
        assert {node.address for node in fresh} & dead  # the cells were recycled
        for _ in range(3):
            vm.gc()
        # First sighted at the second collection: idle for two epochs, not
        # three — neither the dead occupant's sighting (a lazy collection
        # leaves it tabled) nor its record carries over to the new one.
        assert detector.candidates() == []

    def test_candidate_types_summary(self, vm, node_class):
        build_chain(vm, node_class, 4)
        detector = StalenessDetector(vm, stale_after=1)
        vm.gc()
        vm.gc()
        assert detector.candidate_types() == {"Node": 4}

    def test_single_hook_enforced(self, vm):
        StalenessDetector(vm)
        with pytest.raises(RuntimeError):
            StalenessDetector(vm)

    def test_detach_restores_hook(self, vm):
        detector = StalenessDetector(vm)
        detector.detach()
        assert vm.access_hook is None
        StalenessDetector(vm)  # re-installable

    def test_read_counter(self, vm, node_class):
        nodes = build_chain(vm, node_class, 1)
        detector = StalenessDetector(vm)
        nodes[0]["value"]
        nodes[0]["value"]
        assert detector.reads_observed == 2
