"""Telemetry subsystem: events, histograms, census, sinks, ring bounding."""

import json

import pytest

from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from repro.telemetry import (
    EVENT_SCHEMA,
    EventRing,
    GcEvent,
    JsonlSink,
    LogHistogram,
    MemorySink,
    render_prometheus,
    take_census,
    validate_exposition,
)
from repro.telemetry.census import ClassCensus
from tests.conftest import ALL_COLLECTORS, build_chain, make_node_class


def _churn(vm, rounds=3, per_round=20, cls=None):
    if cls is None:
        cls = vm.classes.maybe("Node") or make_node_class(vm)
    for _ in range(rounds):
        with vm.scope():
            for _ in range(per_round):
                vm.new(cls)
        vm.gc()
    return cls


class TestEventStream:
    @pytest.mark.parametrize("collector", ALL_COLLECTORS)
    def test_events_emitted_per_collection(self, collector):
        vm = VirtualMachine(heap_bytes=1 << 20, collector=collector)
        _churn(vm)
        events = vm.telemetry.events.snapshot()
        assert len(events) == 3
        assert [e.seq for e in events] == [1, 2, 3]
        for event in events:
            assert event.collector == collector
            assert event.kind == "full"
            assert event.trigger == "explicit"
            assert event.pause_s > 0
            assert event.objects_traced >= 0
            assert event.heap_bytes == 1 << 20
            assert 0.0 <= event.occupancy_after <= 1.0

    def test_event_decomposition_matches_collection(self, vm, node_class):
        build_chain(vm, node_class, 8)
        with vm.scope():
            for _ in range(5):
                vm.new(node_class)
        vm.gc()
        event = vm.telemetry.events.latest
        # 5 scoped nodes died, the rooted chain survived.
        assert event.objects_freed == 5
        assert event.bytes_freed > 0
        assert event.live_after == event.live_before - 5
        assert event.bytes_after < event.bytes_before
        assert event.mark_s > 0 and event.sweep_s > 0
        assert event.pause_s >= event.mark_s

    def test_generational_minor_vs_full_kinds(self):
        vm = VirtualMachine(heap_bytes=1 << 20, collector="generational")
        cls = make_node_class(vm)
        with vm.scope():
            vm.new(cls)
        vm.minor_gc()
        vm.gc()
        kinds = [e.kind for e in vm.telemetry.events]
        assert kinds == ["minor", "full"]
        assert vm.telemetry.collections_by_kind == {"minor": 1, "full": 1}

    def test_violations_counted_on_event_and_by_kind(self, vm, node_class):
        with vm.scope():
            victim = vm.new(node_class)
            vm.statics.set_ref("keep", victim.address)
            vm.assertions.assert_dead(victim, site="telemetry-test")
        vm.gc()
        event = vm.telemetry.events.latest
        assert event.violations == 1
        assert vm.telemetry.violations_by_kind == {"assert-dead": 1}

    def test_pause_histogram_fed_per_collection(self, vm, node_class):
        _churn(vm, rounds=4)
        assert vm.telemetry.pause_hist.count == 4
        assert vm.telemetry.pause_hist.summary()["p99"] > 0

    def test_allocation_sizes_recorded(self, vm, node_class):
        before = vm.telemetry.alloc_hist.count
        with vm.scope():
            vm.new(node_class)
            vm.new_array(FieldKind.INT, 64)
        assert vm.telemetry.alloc_hist.count == before + 2
        assert vm.telemetry.alloc_hist.max_value >= 64 * 8

    def test_wall_and_mono_timestamps_stamped(self, vm, node_class):
        import time

        wall_before = time.time()
        _churn(vm, rounds=2)
        wall_after = time.time()
        for event in vm.telemetry.events:
            assert wall_before <= event.wall_time <= wall_after
            assert event.mono_time > 0.0
            start, end = event.pause_interval
            assert end == event.mono_time
            assert end - start == pytest.approx(event.pause_s)
        # Events are chronological on the monotonic clock.
        monos = [e.mono_time for e in vm.telemetry.events]
        assert monos == sorted(monos)

    def test_rows_are_schema_versioned(self, vm, node_class):
        _churn(vm, rounds=1)
        row = vm.telemetry.events.latest.as_dict()
        assert row["schema"] == EVENT_SCHEMA == "repro-gc-event/2"
        assert "wall_time" in row and "mono_time" in row

    def test_as_dict_is_asdict_plus_the_derived_keys(self, vm, node_class):
        import dataclasses

        _churn(vm, rounds=1)
        event = vm.telemetry.events.latest
        expected = dataclasses.asdict(event)
        expected["schema"] = EVENT_SCHEMA
        expected["occupancy_before"] = event.occupancy_before
        expected["occupancy_after"] = event.occupancy_after
        row = event.as_dict()
        assert row == expected and list(row) == list(expected)

    def test_from_row_loads_current_and_v1_rows(self, vm, node_class):
        _churn(vm, rounds=1)
        event = vm.telemetry.events.latest
        row = json.loads(json.dumps(event.as_dict()))
        assert GcEvent.from_row(row) == event
        # A version-1 row: no schema key, no timestamps, no derived keys.
        v1 = {
            k: v for k, v in row.items()
            if k not in ("schema", "wall_time", "mono_time",
                         "occupancy_before", "occupancy_after")
        }
        loaded = GcEvent.from_row(v1)
        assert loaded.seq == event.seq
        assert loaded.pause_s == event.pause_s
        assert loaded.wall_time == 0.0 and loaded.mono_time == 0.0


class TestDisabledMode:
    def test_disabled_vm_has_no_hub(self):
        vm = VirtualMachine(heap_bytes=1 << 20, telemetry=False)
        assert vm.telemetry is None
        assert vm.collector.telemetry is None
        _churn(vm)  # must not blow up anywhere on the emit path

    def test_work_counters_identical_enabled_vs_disabled(self):
        def counters(telemetry):
            vm = VirtualMachine(heap_bytes=128 << 10, telemetry=telemetry)
            _churn(vm, rounds=3, per_round=50)
            return vm.stats.snapshot()["counters"]

        assert counters(True) == counters(False)


class TestEventRing:
    def _event(self, seq):
        return GcEvent(
            seq=seq, collector="marksweep", kind="full", trigger="t",
            pause_s=0.001, ownership_s=0.0, mark_s=0.0, sweep_s=0.0,
            objects_traced=0, edges_traced=0, objects_swept=0,
            objects_freed=0, bytes_freed=0, objects_promoted=0,
            bytes_before=0, bytes_after=0, live_before=0, live_after=0,
            heap_bytes=1024, assertion_checks=0, ownees_checked=0, violations=0,
        )

    def test_bounded_with_drop_accounting(self):
        ring = EventRing(capacity=4)
        for seq in range(10):
            ring.append(self._event(seq))
        assert len(ring) == 4
        assert ring.dropped == 6
        assert ring.appended == 10
        assert [e.seq for e in ring] == [6, 7, 8, 9]
        assert ring.latest.seq == 9

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EventRing(capacity=0)

    def test_vm_ring_bounds_long_runs(self, monkeypatch):
        monkeypatch.setattr("repro.telemetry.DEFAULT_RING_CAPACITY", 5)
        vm = VirtualMachine(heap_bytes=1 << 20)
        _churn(vm, rounds=8)
        assert len(vm.telemetry.events) == 5
        assert vm.telemetry.events.dropped == 3
        assert [e.seq for e in vm.telemetry.events] == [4, 5, 6, 7, 8]


class TestLogHistogram:
    def test_percentiles_on_uniform_distribution(self, monkeypatch):
        monkeypatch.setattr("repro.telemetry.histogram.BUCKETS_PER_DECADE", 10)
        hist = LogHistogram(1, 10_000)
        for value in range(1, 1001):
            hist.record(value)
        # Log buckets at 10/decade have ~26% relative width; interpolation
        # should land well within one bucket of the true percentile.
        assert hist.percentile(50) == pytest.approx(500, rel=0.30)
        assert hist.percentile(90) == pytest.approx(900, rel=0.30)
        assert hist.percentile(99) == pytest.approx(990, rel=0.30)
        assert hist.percentile(0) == 1
        assert hist.percentile(100) == 1000
        assert hist.count == 1000
        assert hist.mean == pytest.approx(500.5)

    def test_percentiles_on_bimodal_distribution(self):
        hist = LogHistogram(1e-6, 10.0)
        for _ in range(90):
            hist.record(0.001)
        for _ in range(10):
            hist.record(1.0)
        assert hist.percentile(50) == pytest.approx(0.001, rel=0.35)
        assert hist.percentile(99) == pytest.approx(1.0, rel=0.35)

    def test_constant_distribution_collapses(self):
        hist = LogHistogram(1, 1000)
        for _ in range(50):
            hist.record(42)
        for p in (1, 50, 99, 100):
            assert hist.percentile(p) == pytest.approx(42)

    def test_out_of_range_values_are_kept(self):
        hist = LogHistogram(10, 100)
        hist.record(1)       # below lo -> first bucket
        hist.record(10_000)  # above hi -> overflow bucket
        assert hist.count == 2
        assert hist.min_value == 1
        assert hist.max_value == 10_000
        assert hist.percentile(100) == 10_000

    def test_empty_histogram_summary(self):
        summary = LogHistogram(1, 10).summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            LogHistogram(0, 10)
        with pytest.raises(ValueError):
            LogHistogram(10, 10)

    def test_prometheus_buckets_are_cumulative_shape(self):
        hist = LogHistogram(1, 100)
        for value in (1, 5, 50, 5000):
            hist.record(value)
        buckets = hist.nonzero_buckets()
        assert sum(count for _upper, count in buckets) == 4
        assert buckets[-1][0] == float("inf")  # overflow bucket


class TestCensus:
    def test_take_census_counts_and_bytes(self, vm, node_class):
        build_chain(vm, node_class, 4)
        census = take_census(vm.heap)
        assert census["Node"][0] == 4
        assert census["Node"][1] > 0

    def test_series_stay_aligned_through_class_birth_and_death(self):
        census = ClassCensus()
        census.observe({"A": (1, 8)}, gc_number=1)
        census.observe({"A": (2, 16), "B": (1, 8)}, gc_number=2)
        census.observe({"B": (3, 24)}, gc_number=3)
        assert census.samples == 3
        assert census.count_series("A") == [1, 2, 0]
        assert census.bytes_series("B") == [0, 8, 24]
        assert census.gc_numbers == [1, 2, 3]
        assert census.latest() == {"B": (3, 24)}

    def test_vm_samples_census_at_every_gc(self, vm, node_class):
        build_chain(vm, node_class, 6)
        vm.gc()
        vm.gc()
        census = vm.telemetry.census
        assert census.samples == 2
        assert census.count_series("Node") == [6, 6]

    def test_cork_profiler_consumes_telemetry_census(self, vm):
        from repro.baselines import TypeGrowthProfiler
        from repro.workloads.containers import Vector

        leak_cls = vm.define_class("Leaky", [("p", FieldKind.INT)])
        profiler = TypeGrowthProfiler(vm)
        assert isinstance(profiler.census, ClassCensus)
        retained = Vector.new(vm)
        vm.statics.set_ref("r", retained.handle.address)
        for _ in range(4):
            with vm.scope():
                for _ in range(8):
                    retained.append(vm.new(leak_cls))
            vm.gc()
        assert profiler.collections_observed == 4
        assert len(profiler.history["Leaky"]) == 4
        assert any(r.type_name == "Leaky" for r in profiler.report())


class TestSinks:
    def test_memory_sink_receives_every_event(self, vm, node_class):
        sink = vm.telemetry.add_sink(MemorySink())
        _churn(vm, rounds=3)
        assert len(sink) == 3
        assert [e.seq for e in sink.events] == [1, 2, 3]
        vm.telemetry.close()
        assert sink.closed

    def test_jsonl_round_trip(self, tmp_path, vm, node_class):
        path = str(tmp_path / "events.jsonl")
        vm.telemetry.add_sink(JsonlSink(path))
        _churn(vm, rounds=3)
        vm.telemetry.close()
        rows = JsonlSink.load(path)
        assert len(rows) == 3
        live = [e.as_dict() for e in vm.telemetry.events]
        assert rows == live  # exact round trip through JSON
        assert {"seq", "pause_s", "occupancy_after", "trigger"} <= set(rows[0])

    def test_unused_jsonl_sink_touches_no_file(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = JsonlSink(str(path))
        sink.close()
        assert not path.exists()

    def test_failing_sink_does_not_break_collection(self, vm, node_class):
        class Exploding:
            def emit(self, event):
                raise RuntimeError("exporter down")

            def close(self):
                raise RuntimeError("still down")

        vm.telemetry.add_sink(Exploding())
        _churn(vm, rounds=2)  # collections must survive the bad sink
        assert vm.telemetry.sink_errors == 2
        assert len(vm.telemetry.events) == 2
        vm.telemetry.close()
        assert vm.telemetry.sink_errors == 3


class TestExportFormats:
    def test_summary_is_json_serializable_and_complete(self, vm, node_class):
        build_chain(vm, node_class, 5)
        vm.gc()
        summary = json.loads(json.dumps(vm.telemetry.summary()))
        assert summary["collections"] == {"full": 1}
        assert len(summary["events"]) == 1
        assert summary["pause_seconds"]["count"] == 1
        assert summary["census"]["classes"]["Node"]["counts"] == [5]

    def test_prometheus_exposition_shape(self, vm, node_class):
        build_chain(vm, node_class, 5)
        vm.gc()
        text = render_prometheus(vm.telemetry)
        assert "# TYPE repro_gc_collections_total counter" in text
        assert 'repro_gc_collections_total{collector="marksweep",kind="full"} 1' in text
        assert "# TYPE repro_gc_pause_seconds histogram" in text
        assert 'repro_gc_pause_seconds_bucket{le="+Inf"} 1' in text
        assert 'repro_heap_live_objects{class="Node"} 5' in text
        assert text.endswith("\n")

    def test_render_mentions_pauses_and_census(self, vm, node_class):
        build_chain(vm, node_class, 5)
        vm.gc()
        text = vm.telemetry.render()
        assert "collections: 1" in text
        assert "p99=" in text
        assert "Node" in text

    def test_exposition_conformance(self, vm, node_class):
        build_chain(vm, node_class, 5)
        vm.gc()
        assert validate_exposition(render_prometheus(vm.telemetry)) == []

    def test_exposition_escapes_hostile_class_names(self, vm):
        # Label values carrying the format's three special characters
        # (backslash, double quote, newline) must be escaped, and HELP
        # text must survive too — the conformance checker sees both.
        hostile = vm.define_class(
            'Weird"Cls\\\nX',
            [("next", FieldKind.REF), ("value", FieldKind.INT)],
        )
        build_chain(vm, hostile, 3, root_name="hostile")
        vm.gc()
        text = render_prometheus(vm.telemetry)
        assert validate_exposition(text) == []
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        # The raw specials never appear inside a rendered label value.
        for line in text.splitlines():
            assert "\n" not in line

    def test_validator_flags_format_violations(self):
        assert validate_exposition("") == []
        cases = {
            "no trailing newline": "metric 1",
            "bad escape": 'm{l="a\\q"} 1\n',
            "unquoted label": "m{l=a} 1\n",
            "bad value": "m one\n",
            "unknown type": "# TYPE m flavor\nm 1\n",
            "undeclared family": "# TYPE a counter\na 1\nb 2\n",
            "duplicate type": "# TYPE m counter\n# TYPE m gauge\nm 1\n",
        }
        for label, text in cases.items():
            assert validate_exposition(text), f"{label!r} passed validation"
        # Histogram suffixes bind samples to their declared family.
        ok = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\nh_sum 1.5\nh_count 3\n'
        )
        assert validate_exposition(ok) == []
