"""Zone-sharded parallel marking: identity, merges, zones, and spans.

The contract under test everywhere here: sharding the heap into zones and
draining them on a worker pool changes *who* traces each object, never
*what* is traced, freed, counted, or reported.  Sequential runs (the
unsharded heap, ``gc_workers`` unset) are the ground truth; every parallel
configuration must be counter-identical and violation-identical to it.
"""

import random

import pytest

from repro.errors import HeapError
from repro.gc.stats import GcStats
from repro.heap.layout import HEAP_BASE_ADDRESS
from repro.heap.object_model import FieldKind
from repro.heap.space import CHUNK_SHIFT
from repro.heap.zones import (
    DEFAULT_ZONE_COUNT,
    MAX_ZONES,
    ZONE_STRIDE,
    ZoneMap,
    ZonedFreeListSpace,
)
from repro.runtime.vm import VirtualMachine
from tests.conftest import make_node_class

HEAP = 256 << 10


# -- zone map ---------------------------------------------------------------------------


class TestZoneMap:
    def test_strided_maps_each_zone_base(self):
        zone_map = ZoneMap.strided(8, HEAP_BASE_ADDRESS)
        for zone in range(8):
            address = HEAP_BASE_ADDRESS + zone * ZONE_STRIDE + 0x40
            assert zone_map.zone_of(address) == zone

    def test_strided_out_of_range_falls_back_to_granule_hash(self):
        zone_map = ZoneMap.strided(4, HEAP_BASE_ADDRESS)
        beyond = HEAP_BASE_ADDRESS + 4 * ZONE_STRIDE + 0x123
        assert 0 <= zone_map.zone_of(beyond) < 4
        assert 0 <= zone_map.zone_of(0x10) < 4  # below base too

    def test_hashed_keeps_granule_neighbours_together(self):
        zone_map = ZoneMap.hashed(8)
        base = 0x40000
        assert zone_map.zone_of(base) == zone_map.zone_of(base + 0x100)

    def test_zone_count_bounds(self):
        with pytest.raises(HeapError):
            ZoneMap.hashed(0)
        with pytest.raises(HeapError):
            ZoneMap.hashed(MAX_ZONES + 1)


# -- zoned space ------------------------------------------------------------------------


class TestZonedFreeListSpace:
    def test_allocations_rotate_across_zones(self):
        space = ZonedFreeListSpace("t", 1 << 20, zones=4)
        zones = {space.zone_of(space.allocate(16)) for _ in range(8)}
        assert zones == {0, 1, 2, 3}

    def test_reserve_run_serves_one_zone_per_refill(self):
        space = ZonedFreeListSpace("t", 1 << 20, zones=4)
        run = space.reserve_run(16, 16)
        assert len(run) == 16
        assert {space.zone_of(address) for address in run} == {space.zone_of(run[0])}
        # The next refill rotates to a different zone.
        second = space.reserve_run(16, 16)
        assert space.zone_of(second[0]) != space.zone_of(run[0])

    def test_shared_budget_binds_before_any_shard(self):
        space = ZonedFreeListSpace("t", 64, zones=4)
        assert space.allocate(32) is not None
        assert space.allocate(32) is not None
        assert space.allocate(16) is None  # global budget, not shard space
        assert space.bytes_free == 0

    def test_chunk_routing_covers_each_zones_first_chunk(self):
        # A zone's first chunk *starts* below the shard base (the base
        # carries the heap-base offset, the chunk grid does not); routing
        # by start address would hand it to the previous zone and its
        # cells would never be swept.
        space = ZonedFreeListSpace("t", 1 << 20, zones=4)
        addresses = [space.allocate(16) for _ in range(8)]
        for chunk_id in space.chunk_ids():
            cells = space.chunk_cells(chunk_id)
            assert cells, f"chunk {chunk_id:#x} routed to a shard that lacks it"
            for address, _cell in cells:
                assert address >> CHUNK_SHIFT == chunk_id
        listed = {a for cid in space.chunk_ids() for a, _ in space.chunk_cells(cid)}
        assert set(addresses) <= listed

    def test_free_returns_cell_to_owning_shard(self):
        from repro.heap.freelist import size_class_for

        space = ZonedFreeListSpace("t", 1 << 20, zones=4)
        address = space.allocate(24)
        shard = space.shard_for(address)
        space.free(address)
        assert space.bytes_in_use == 0
        assert shard.free_list.pop(size_class_for(24)) == address

    def test_deny_next_refuses_at_the_facade(self):
        space = ZonedFreeListSpace("t", 1 << 20, zones=2)
        space.deny_next(1)
        assert space.allocate(16) is None
        assert space.allocate(16) is not None


# -- stats / census merges --------------------------------------------------------------


class TestMerges:
    def test_gcstats_merge_sums_counters_and_maxes_timers(self):
        pause = GcStats()
        pause.objects_traced = 10
        pause.edges_traced = 12
        pause.gc_seconds = 0.5
        partial = GcStats()
        partial.objects_traced = 7
        partial.edges_traced = 9
        partial.gc_seconds = 0.0  # worker partials carry no pause time
        merged = pause.merge(partial)
        assert merged.objects_traced == 17
        assert merged.edges_traced == 21
        # One pause, not two: the timer is the max of the observers.
        assert merged.gc_seconds == 0.5
        # Inputs are untouched.
        assert pause.objects_traced == 10 and partial.objects_traced == 7


# -- sequential/parallel identity -------------------------------------------------------


def _grown_vm(**kwargs) -> VirtualMachine:
    """A VM with a deterministic multi-GC history: churn + survivors."""
    vm = VirtualMachine(heap_bytes=HEAP, **kwargs)
    cls = make_node_class(vm)
    rng = random.Random(7)
    survivors = []
    for round_no in range(6):
        with vm.scope():
            prev = None
            for i in range(200):
                node = vm.new(cls, value=i)
                if prev is not None:
                    prev["next"] = node
                prev = node
                if rng.random() < 0.05:
                    survivors.append(node.address)
            arr = vm.new_array(cls, 16)
            for idx, address in enumerate(survivors[-16:]):
                arr[idx] = vm.handle(address)
            vm.statics.set_ref(f"arr-{round_no}", arr.address)
        vm.gc(f"round {round_no}")
    return vm


COUNTERS = (
    "objects_traced",
    "edges_traced",
    "objects_freed",
    "bytes_freed",
    "header_bit_checks",
    "instance_count_increments",
    "assertion_checks",
    "violations_detected",
)


def _counter_signature(vm) -> dict:
    return {field: getattr(vm.stats, field) for field in COUNTERS}


class TestCounterIdentity:
    def test_workers_one_matches_sequential(self):
        sequential = _counter_signature(_grown_vm())
        parallel = _counter_signature(_grown_vm(gc_workers=1))
        assert parallel == sequential

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_worker_counts_match_sequential(self, workers):
        sequential = _counter_signature(_grown_vm())
        parallel = _counter_signature(_grown_vm(gc_workers=workers))
        assert parallel == sequential

    def test_report_totals_match_stats(self):
        vm = _grown_vm(gc_workers=4)
        before_edges = vm.stats.edges_traced
        vm.gc("report check")
        report = vm.collector.last_parallel_mark
        # Per-zone work totals and per-worker attribution are two views of
        # the same drains; the pause's edge counter is their ground truth.
        drained = sum(report.zone_edges)
        assert drained == sum(report.edges_traced)
        assert drained == vm.stats.edges_traced - before_edges
        assert sum(report.zone_objects) == sum(report.objects_traced)
        # The deterministic scaling bound: one bin is always 1.0, and with
        # work spread over several zones more bins must help.
        assert report.zone_balance_speedup(1) == 1.0
        if sum(1 for e in report.zone_edges if e) > 1:
            assert report.zone_balance_speedup(8) > 1.0

    def test_zone_balance_bound_scales_with_workers(self):
        """The deterministic scaling curve: a pure function of the heap
        partition, so it gates where a wall clock (GIL, 1-core CI) cannot."""
        report = _grown_vm(gc_workers=4).collector.last_parallel_mark
        assert sum(1 for e in report.zone_edges if e) > 1, report.zone_edges
        assert report.zone_balance_speedup(4) >= report.zone_balance_speedup(2) > 1.0


# -- violation parity -------------------------------------------------------------------


def _violation_workload(vm) -> None:
    """One violation of each kind, deterministically."""
    cls = vm.define_class(
        "V", [("a", FieldKind.REF), ("b", FieldKind.REF), ("v", FieldKind.INT)]
    )
    with vm.scope():
        # assert_dead on an object that stays reachable from a static.
        victim = vm.new(cls, v=1)
        vm.statics.set_ref("keeper", victim.address)
        vm.assertions.assert_dead(victim, site="t:dead")
        # assert_unshared with two incoming references.
        shared = vm.new(cls, v=2)
        left, right = vm.new(cls, v=3), vm.new(cls, v=4)
        left["a"] = shared
        right["a"] = shared
        vm.statics.set_ref("left", left.address)
        vm.statics.set_ref("right", right.address)
        vm.assertions.assert_unshared(shared, site="t:unshared")
        # assert_instances over the limit.
        vm.assertions.assert_instances(cls, 2)
    vm.gc("violation check")


def _violation_signature(vm) -> set:
    return {
        (v.kind.value, v.address if v.address is not None else -1, v.site or "")
        for v in vm.assertions.violations
    }


class TestViolationParity:
    @pytest.mark.parametrize("sweep_mode", ["eager", "lazy"], ids=["eager-marksweep", "lazy-marksweep"])
    def test_same_violations_at_every_worker_count(self, sweep_mode):
        signatures = []
        for workers in (None, 1, 2, 4, 8):
            vm = VirtualMachine(heap_bytes=HEAP, sweep_mode=sweep_mode, gc_workers=workers)
            _violation_workload(vm)
            signature = _violation_signature(vm)
            assert signature, "scenario must actually violate"
            signatures.append(signature)
        assert all(s == signatures[0] for s in signatures[1:])


# -- spans ------------------------------------------------------------------------------


class TestWorkerSpans:
    def test_parallel_mark_emits_worker_spans(self):
        from repro.tracing.export import chrome_trace_events
        from repro.tracing.report import aggregate_spans
        from repro.tracing.spans import WORKER_TRACK_BASE

        vm = VirtualMachine(heap_bytes=HEAP, gc_workers=4, tracing=True)
        cls = make_node_class(vm)
        with vm.scope():
            prev = None
            for i in range(300):
                node = vm.new(cls, value=i)
                if prev is not None:
                    prev["next"] = node
                else:
                    vm.statics.set_ref("head", node.address)
                prev = node
        vm.gc("span check")
        worker_events = [
            event for event in vm.span_tracer.events if event[0] == "X"
        ]
        assert worker_events, "parallel mark produced no worker spans"
        names = {event[1] for event in worker_events}
        assert any(name.startswith("mark_worker_") for name in names)
        for event in worker_events:
            assert event[6] >= WORKER_TRACK_BASE
        # Export and aggregation both understand complete events.
        exported = chrome_trace_events(vm.span_tracer)
        tids = {row["tid"] for row in exported if row.get("ph") == "X"}
        assert tids and min(tids) >= WORKER_TRACK_BASE
        table = aggregate_spans(vm.span_tracer.events)
        assert any(name.startswith("mark_worker_") for name in table)


# -- fault pinning ----------------------------------------------------------------------


class TestPinZone:
    def test_pinned_victims_come_from_the_pinned_zone(self):
        from repro.faults.injector import FaultInjector

        vm = _grown_vm(gc_workers=4)
        injector = FaultInjector(vm, pin_zone=1)
        pool = injector._reachable()
        zone_of = vm.collector.zone_map.zone_of
        assert pool
        assert all(zone_of(address) == 1 for address in pool)

    def test_corrupt_freelist_routes_through_the_shard(self):
        from repro.faults.injector import FaultInjector

        vm = _grown_vm(gc_workers=4, hardened=True)
        injector = FaultInjector(vm, pin_zone=1)
        detail = injector.apply_now("corrupt-freelist")
        assert "/z1" in detail
