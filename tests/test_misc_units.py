"""Small-unit coverage: stats, scopes, errors, heap stats."""

import pytest

from repro.errors import (
    AssertionViolationHalt,
    MiniJSyntaxError,
    OutOfMemoryError,
    ReproError,
)
from repro.gc.stats import GcStats, PhaseTimer
from repro.heap.heap import HeapStats
from repro.runtime.handles import HandleScope
from tests.conftest import build_chain, make_node_class


class TestGcStats:
    def test_all_counters_start_zero(self):
        stats = GcStats()
        for field in GcStats.__slots__:
            assert getattr(stats, field) == 0

    def test_field_partition_is_total(self):
        assert set(GcStats.TIMER_FIELDS) | set(GcStats.COUNTER_FIELDS) == set(
            GcStats.__slots__
        )
        assert not set(GcStats.TIMER_FIELDS) & set(GcStats.COUNTER_FIELDS)

    def test_snapshot_separates_timers_from_counters(self):
        stats = GcStats()
        stats.collections = 3
        stats.gc_seconds = 0.25
        snap = stats.snapshot()
        assert set(snap) == {"counters", "timers"}
        assert set(snap["counters"]) == set(GcStats.COUNTER_FIELDS)
        assert set(snap["timers"]) == set(GcStats.TIMER_FIELDS)
        assert snap["counters"]["collections"] == 3
        assert snap["timers"]["gc_seconds"] == pytest.approx(0.25)
        assert all(isinstance(v, int) for v in snap["counters"].values())
        assert all(isinstance(v, float) for v in snap["timers"].values())

    def test_copy_is_independent(self):
        stats = GcStats()
        stats.collections = 2
        clone = stats.copy()
        clone.collections = 9
        assert stats.collections == 2

    def test_phase_timer_accumulates(self):
        stats = GcStats()
        with PhaseTimer(stats, "mark_seconds"):
            pass
        first = stats.mark_seconds
        with PhaseTimer(stats, "mark_seconds"):
            pass
        assert stats.mark_seconds >= first >= 0

    def test_phase_timer_records_on_exception(self):
        stats = GcStats()
        with pytest.raises(ValueError):
            with PhaseTimer(stats, "sweep_seconds"):
                raise ValueError("boom")
        assert stats.sweep_seconds >= 0


class TestHeapStats:
    def test_live_derived_from_alloc_and_free(self):
        stats = HeapStats()
        stats.objects_allocated = 10
        stats.objects_freed = 4
        assert stats.objects_live == 6

    def test_snapshot_shape(self):
        snap = HeapStats().snapshot()
        assert {"objects_allocated", "objects_live", "bytes_freed"} <= set(snap)


class TestHandleScope:
    def test_register_and_roots(self):
        scope = HandleScope("s")
        scope.register(0x1000)
        scope.register(0x2000)
        assert len(scope) == 2
        entries = list(scope.root_entries())
        assert all("'s'" in desc for desc, _a in entries)
        assert {a for _d, a in entries} == {0x1000, 0x2000}

    def test_null_entries_not_roots(self):
        scope = HandleScope()
        scope.register(0)
        assert list(scope.root_entries()) == []

    def test_forwarding(self):
        scope = HandleScope()
        scope.register(0x1000)
        scope.apply_forwarding({0x1000: 0x9000})
        assert [a for _d, a in scope.root_entries()] == [0x9000]

    def test_null_out_removes(self):
        scope = HandleScope()
        scope.register(0x1000)
        scope.register(0x2000)
        scope.null_out({0x1000})
        assert [a for _d, a in scope.root_entries()] == [0x2000]

    def test_nested_scopes_unwind_in_order(self, vm, node_class):
        with vm.scope("outer"):
            outer_obj = vm.new(node_class)
            with vm.scope("inner"):
                inner_obj = vm.new(node_class)
                vm.gc()
                assert outer_obj.is_live and inner_obj.is_live
            vm.gc()
            assert outer_obj.is_live
            assert not inner_obj.is_live
        vm.gc()
        assert not outer_obj.is_live


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(OutOfMemoryError, ReproError)
        assert issubclass(MiniJSyntaxError, ReproError)
        assert issubclass(AssertionViolationHalt, ReproError)

    def test_syntax_error_carries_position(self):
        err = MiniJSyntaxError("bad", 3, 7)
        assert err.line == 3
        assert err.column == 7
        assert "line 3" in str(err)

    def test_halt_carries_violation(self):
        sentinel = object()
        err = AssertionViolationHalt(sentinel)
        assert err.violation is sentinel

    def test_oom_message_is_informative(self, node_class):
        from repro.runtime.vm import VirtualMachine

        vm = VirtualMachine(heap_bytes=8 << 10)
        cls = make_node_class(vm)
        with pytest.raises(OutOfMemoryError) as exc:
            build_chain(vm, cls, 10_000)
        text = str(exc.value)
        assert "marksweep" in text
        assert "Node" in text
