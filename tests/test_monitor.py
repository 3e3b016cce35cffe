"""Continuous heap-health monitoring: time series, MMU, SLOs, health, HTTP."""

from __future__ import annotations

import io
import itertools
import json
import random
import threading
import urllib.error
import urllib.request
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.heap.object_model import FieldKind
from repro.monitor import (
    AlertEvent,
    BurnRateRule,
    HEALTH_SCHEMA,
    MonitorHub,
    MonitorServer,
    SloObjective,
    SloSet,
    TimeSeries,
    busy_time,
    default_slos,
    health_report,
    health_score,
    health_status,
    merge_intervals,
    mmu,
    mmu_curve,
    render_monitor_frame,
    render_monitor_metrics,
    run_monitor,
    utilization_timeline,
    validate_health_report,
)
from repro.runtime.vm import VirtualMachine
from repro.telemetry import GcEvent, MemorySink, validate_exposition


def churn(vm, node_cls, objects: int = 400, batch: int = 40) -> None:
    """Allocate garbage in batches so the VM collects along the way."""
    with vm.scope("churn"):
        for start in range(0, objects, batch):
            batch_nodes = [vm.new(node_cls) for _ in range(batch)]
            del batch_nodes
    vm.gc("churn: settle")


def impossible_slos() -> SloSet:
    """One objective no collection can meet: breached by the first pause."""
    objective = SloObjective(
        "impossible", "pause under 0s", budget=0.0,
        probe=lambda hub, e: e.pause_s <= 0.0,
    )
    return SloSet([BurnRateRule(objective)])


def monitored_vm(slos=None, heap=1 << 20) -> VirtualMachine:
    hub = MonitorHub(slos) if slos is not None else MonitorHub()
    return VirtualMachine(heap_bytes=heap, monitor=hub)


# -- TimeSeries -------------------------------------------------------------------------


class TestTimeSeries:
    def test_append_and_query(self, monkeypatch):
        monkeypatch.setattr("repro.monitor.timeseries.DEFAULT_SERIES_CAPACITY", 8)
        ts = TimeSeries("pause_s")
        for i in range(5):
            ts.append(float(i), i * 10.0)
        assert len(ts) == 5
        assert ts.latest() == (4.0, 40.0)
        assert ts.latest_value() == 40.0
        assert ts.values() == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert ts.values(since=2.0) == [20.0, 30.0, 40.0]

    def test_bounded_with_drop_accounting(self, monkeypatch):
        monkeypatch.setattr("repro.monitor.timeseries.DEFAULT_SERIES_CAPACITY", 4)
        ts = TimeSeries("x")
        for i in range(10):
            ts.append(float(i), float(i))
        assert len(ts) == 4
        assert ts.appended == 10
        assert ts.dropped == 6
        assert ts.values() == [6.0, 7.0, 8.0, 9.0]


# -- interval normalization -------------------------------------------------------------


class TestMergeIntervals:
    def test_sorts_and_coalesces(self):
        merged = merge_intervals([(5.0, 6.0), (1.0, 2.0), (1.5, 3.0)])
        assert merged == [(1.0, 3.0), (5.0, 6.0)]

    def test_drops_empty_and_handles_touching(self):
        merged = merge_intervals([(1.0, 1.0), (2.0, 3.0), (3.0, 4.0)])
        assert merged == [(2.0, 4.0)]

    def test_empty(self):
        assert merge_intervals([]) == []


# -- MMU vs brute-force oracle ----------------------------------------------------------


def oracle_busy(intervals, start, end):
    """Independent overlap sum, chronological — the float-exactness twin."""
    total = 0.0
    for s, e in intervals:
        overlap_lo = max(s, start)
        overlap_hi = min(e, end)
        if overlap_hi > overlap_lo:
            total += overlap_hi - overlap_lo
    return total


def oracle_mmu(intervals, window, t0, t1):
    """Brute-force sliding window: evaluate every candidate start position
    (pause edges and edges shifted by the window, clipped), independently
    of the implementation's sweep."""
    merged = merge_intervals(intervals)
    span = t1 - t0
    if span == 0.0:
        return 1.0
    if span <= window:
        return max(0.0, (span - oracle_busy(merged, t0, t1)) / span)
    starts = {t0, t1 - window}
    for s, e in merged:
        for candidate in (s, e, s - window, e - window):
            if t0 <= candidate <= t1 - window:
                starts.add(candidate)
    worst = 0.0
    for start in sorted(starts):
        busy = oracle_busy(merged, start, start + window)
        if busy > worst:
            worst = busy
    return max(0.0, (window - worst) / window)


class TestMmu:
    def test_no_pauses_is_full_utilization(self):
        assert mmu([], 1.0, 0.0, 10.0) == 1.0

    def test_single_pause_exact(self):
        # One 10ms pause in a 1s run; any 100ms window holding it has
        # 90ms of mutator time.
        intervals = [(0.5, 0.51)]
        assert mmu(intervals, 0.1, 0.0, 1.0) == pytest.approx(0.9)
        assert mmu(intervals, 0.1, 0.0, 1.0) == oracle_mmu(intervals, 0.1, 0.0, 1.0)

    def test_back_to_back_pauses(self):
        # Two adjacent 10ms pauses act as one 20ms pause.
        intervals = [(0.5, 0.51), (0.51, 0.52)]
        assert mmu(intervals, 0.1, 0.0, 1.0) == pytest.approx(0.8)
        assert mmu(intervals, 0.04, 0.0, 1.0) == pytest.approx(0.5)

    def test_window_longer_than_run(self):
        # Span 1s, window 10s: the whole span is the single window.
        intervals = [(0.2, 0.4)]
        assert mmu(intervals, 10.0, 0.0, 1.0) == pytest.approx(0.8)

    def test_window_saturated_by_pause(self):
        intervals = [(0.3, 0.7)]
        assert mmu(intervals, 0.2, 0.0, 1.0) == 0.0

    def test_empty_span(self):
        assert mmu([(0.0, 1.0)], 0.5, 5.0, 5.0) == 1.0

    def test_exact_oracle_equality_randomized(self):
        # The load-bearing property: the breakpoint sweep returns the
        # bit-identical float the brute-force sliding window returns.
        rng = random.Random(20090615)
        for trial in range(40):
            t0 = rng.uniform(0.0, 2.0)
            t1 = t0 + rng.uniform(0.5, 8.0)
            intervals = []
            cursor = t0
            for _ in range(rng.randint(0, 12)):
                cursor += rng.uniform(0.0, 0.4)
                width = rng.uniform(0.001, 0.2)
                if cursor + width > t1:
                    break
                intervals.append((cursor, cursor + width))
                cursor += width
            rng.shuffle(intervals)
            for window in (0.01, 0.1, 0.37, 1.0, 10.0):
                got = mmu(intervals, window, t0, t1)
                want = oracle_mmu(intervals, window, t0, t1)
                assert got == want, (trial, window, intervals, got, want)
                assert 0.0 <= got <= 1.0

    def test_dense_grid_never_beats_the_sweep(self):
        # Sampled window placements can only see >= the minimum the
        # breakpoint sweep found (modulo float dust on the busy sums).
        intervals = [(0.11, 0.13), (0.4, 0.45), (0.8, 0.91)]
        result = mmu(intervals, 0.2, 0.0, 1.0)
        merged = merge_intervals(intervals)
        for i in range(400):
            start = i * (1.0 - 0.2) / 399
            util = (0.2 - busy_time(merged, start, start + 0.2)) / 0.2
            assert util >= result - 1e-12

    def test_mmu_curve_sorted_and_monotone_shape(self):
        intervals = [(0.2, 0.25), (0.6, 0.64)]
        curve = mmu_curve(intervals, [1.0, 0.01, 0.1], 0.0, 1.0)
        assert [w for w, _ in curve] == [0.01, 0.1, 1.0]
        for _, value in curve:
            assert 0.0 <= value <= 1.0

    def test_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            mmu([], 0.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            mmu([], 1.0, 2.0, 1.0)


class TestUtilizationTimeline:
    def test_buckets_and_partial_tail(self):
        rows = utilization_timeline([(0.25, 0.5)], 0.0, 2.5, 1.0)
        assert [t for t, _ in rows] == [0.0, 1.0, 2.0]
        assert rows[0][1] == pytest.approx(0.75)
        assert rows[1][1] == 1.0
        assert rows[2][1] == 1.0  # half-width tail, fully mutator

    def test_fully_paused_bucket(self):
        rows = utilization_timeline([(1.0, 2.0)], 0.0, 3.0, 1.0)
        assert rows[1][1] == 0.0

    def test_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            utilization_timeline([], 0.0, 1.0, 0.0)


# -- MonitorHub wiring ------------------------------------------------------------------


class TestMonitorHub:
    def test_vm_monitor_kwarg_attaches_hub(self):
        vm = VirtualMachine(heap_bytes=1 << 20, monitor=True)
        assert isinstance(vm.monitor, MonitorHub)
        assert vm.monitor.slos is not None  # stock catalog
        node = vm.define_class("N", [("next", FieldKind.REF)])
        churn(vm, node)
        assert vm.monitor.gc_events_seen == vm.stats.collections
        assert len(vm.monitor.pause_intervals) == vm.stats.collections

    def test_monitor_off_by_default_zero_state(self):
        vm = VirtualMachine(heap_bytes=1 << 20)
        assert vm.monitor is None

    def test_monitor_requires_telemetry(self):
        with pytest.raises(ConfigurationError):
            VirtualMachine(heap_bytes=1 << 20, telemetry=False, monitor=True)

    def test_intervals_match_event_timestamps(self):
        vm = monitored_vm()
        node = vm.define_class("N", [("next", FieldKind.REF)])
        churn(vm, node)
        events = vm.telemetry.events.snapshot()
        assert events
        for event, interval in zip(events, vm.monitor.pause_intervals):
            assert interval == event.pause_interval
            assert interval[1] - interval[0] == pytest.approx(event.pause_s)

    def test_series_follow_events(self):
        vm = monitored_vm()
        node = vm.define_class("N", [("next", FieldKind.REF)])
        churn(vm, node)
        hub = vm.monitor
        latest = vm.telemetry.events.latest
        assert hub.series["pause_s"].latest_value() == latest.pause_s
        assert hub.series["heap_live_bytes"].latest_value() == latest.bytes_after
        assert hub.series["occupancy"].latest_value() == latest.occupancy_after
        assert 0.0 <= hub.series["utilization"].latest_value() <= 1.0

    def test_counter_identity_with_monitor_armed(self):
        """The hub observes collections; it must never change them."""
        counters = {}
        for armed in (False, True):
            vm = VirtualMachine(heap_bytes=256 << 10, monitor=armed)
            node = vm.define_class("N", [("next", FieldKind.REF)])
            churn(vm, node, objects=600)
            vm.collector.sweep_all()
            s = vm.stats
            counters[armed] = (
                s.collections, s.objects_traced, s.edges_traced,
                s.objects_freed, s.bytes_freed,
            )
        assert counters[False] == counters[True]

    def test_mmu_and_utilization_queries(self):
        vm = monitored_vm()
        node = vm.define_class("N", [("next", FieldKind.REF)])
        churn(vm, node)
        hub = vm.monitor
        assert 0.0 <= hub.mmu(0.1) <= 1.0
        points = hub.mmu_points((0.01, 1.0))
        assert len(points) == 2 and points[0][0] == 0.01
        assert 0.0 <= hub.utilization_now() <= 1.0
        buckets = hub.utilization_buckets(0.01)
        assert buckets and all(0.0 <= u <= 1.0 for _t, u in buckets)


def pause_event(seq: int, start: float, end: float) -> GcEvent:
    """A GC event that says nothing but when its pause ran."""
    return GcEvent(
        seq=seq, collector="marksweep", kind="full", trigger="test",
        pause_s=end - start, ownership_s=0.0, mark_s=0.0, sweep_s=0.0,
        objects_traced=0, edges_traced=0, objects_swept=0, objects_freed=0,
        bytes_freed=0, objects_promoted=0, bytes_before=0, bytes_after=0,
        live_before=0, live_after=0, heap_bytes=1, assertion_checks=0,
        ownees_checked=0, violations=0, mono_time=end,
    )


def full_scan_utilization(hub: MonitorHub, window_s: float) -> float:
    """The oracle: ``utilization_now`` as it was, visiting the whole ring."""
    t0, t1 = hub.observed_span()
    start = max(t0, t1 - window_s)
    span = t1 - start
    if span <= 0:
        return 1.0
    return max(0.0, (span - oracle_busy(hub.pause_intervals, start, t1)) / span)


class CountingIntervals(deque):
    """A deque that counts what a newest-first walk visits."""

    visited = 0

    def __reversed__(self):
        for interval in super().__reversed__():
            self.visited += 1
            yield interval


class TestUtilizationNowIsBounded:
    @settings(max_examples=200, deadline=None)
    @given(
        pauses=st.lists(
            st.tuples(
                st.floats(0.0, 0.6),      # gap since the previous pause's end
                st.floats(1e-6, 0.4),     # pause length (may reach back over the gap)
                st.booleans(),            # arrives after the next one (shared hub)
            ),
            min_size=1, max_size=60,
        ),
        window_s=st.floats(1e-3, 5.0),
        capacity=st.sampled_from([4, 16, 4096]),
    )
    def test_equals_the_full_scan_and_stops_at_the_window(
        self, pauses, window_s, capacity
    ):
        # Two tenants' pauses can overlap, and one stamped earlier can
        # reach the shared hub later: build in end order, deliver swapped.
        intervals, end = [], 100.0
        for gap, length, _late in pauses:
            end += gap
            intervals.append((end - length, end))
        arrivals = list(intervals)
        for index, (_gap, _length, late) in enumerate(pauses[:-1]):
            if late:
                arrivals[index], arrivals[index + 1] = arrivals[index + 1], arrivals[index]

        with mock.patch("repro.monitor.timeseries.DEFAULT_INTERVAL_CAPACITY", capacity):
            hub = MonitorHub()
        for seq, (start, end) in enumerate(arrivals, 1):
            hub.emit(pause_event(seq, start, end))

        ends = [e for _s, e in hub.pause_intervals]
        assert ends == sorted(ends)
        assert len(ends) == min(len(intervals), capacity)
        if len(intervals) <= capacity:
            assert sorted(hub.pause_intervals) == sorted(intervals)

        counting = CountingIntervals(hub.pause_intervals, maxlen=capacity)
        hub.pause_intervals = counting
        assert hub.utilization_now(window_s) == pytest.approx(
            full_scan_utilization(hub, window_s), abs=1e-12
        )
        t0, t1 = hub.observed_span()
        overlapping = sum(1 for e in ends if e > max(t0, t1 - window_s))
        assert counting.visited <= overlapping + 1

    def test_a_full_ring_costs_the_window_not_the_ring(self):
        hub = MonitorHub()
        capacity = hub.pause_intervals.maxlen
        for seq in range(capacity + 500):  # 10 ms pause every 100 ms
            hub.emit(pause_event(seq + 1, seq * 0.1, seq * 0.1 + 0.01))
        assert len(hub.pause_intervals) == capacity
        counting = CountingIntervals(hub.pause_intervals, maxlen=capacity)
        hub.pause_intervals = counting
        value = hub.utilization_now()
        assert counting.visited == 11  # ten pauses in the second, and the one that stops it
        assert value == pytest.approx(full_scan_utilization(hub, 1.0), abs=1e-12)
        assert value == pytest.approx(0.9, abs=1e-9)


# -- SLO burn-rate engine ---------------------------------------------------------------


def threshold_rule(budget=0.1, factor=2.0, long_window=10, short_window=4,
                   clear_good=3, limit=0.05):
    objective = SloObjective(
        "test-pause", f"pause under {limit}s", budget=budget,
        probe=lambda hub, e: e.pause_s <= limit,
    )
    return BurnRateRule(objective, long_window=long_window,
                        short_window=short_window, factor=factor,
                        clear_good=clear_good)


class TestBurnRate:
    def test_fires_when_both_windows_burn(self):
        rule = threshold_rule()
        alerts = [rule.observe(False, seq=i, wall_time=0.0) for i in range(3)]
        fired = [a for a in alerts if a is not None]
        assert len(fired) == 1 and fired[0].state == "firing"
        assert rule.firing
        assert fired[0].burn_rate >= rule.factor
        assert fired[0].short_burn_rate >= rule.factor

    def test_long_window_alone_does_not_fire(self):
        # Crafted so the long window reaches the firing factor exactly
        # when the short window is quiet: T,F,F,T,F with long=4/short=2,
        # budget 0.25, factor 3.  At the last observation the long rate
        # is 0.75/0.25 = 3x (>= factor) but the short rate is only
        # 0.5/0.25 = 2x -> the rule must stay silent (stale-burn guard).
        rule = threshold_rule(budget=0.25, factor=3.0, long_window=4,
                              short_window=2, clear_good=100)
        observations = [True, False, False, True, False]
        alerts = [rule.observe(good, seq=i, wall_time=0.0)
                  for i, good in enumerate(observations)]
        assert not rule.firing and not any(alerts)
        long_rate, short_rate = rule.burn_rates()
        assert long_rate >= rule.factor > short_rate

    def test_clear_hysteresis(self):
        rule = threshold_rule(clear_good=3)
        for i in range(3):
            rule.observe(False, seq=i, wall_time=0.0)
        assert rule.firing
        # One good observation in the middle of the incident: stays firing.
        assert rule.observe(True, seq=3, wall_time=0.0) is None
        assert rule.observe(False, seq=4, wall_time=0.0) is None
        assert rule.firing
        # Three consecutive good observations clear it.
        assert rule.observe(True, seq=5, wall_time=0.0) is None
        assert rule.observe(True, seq=6, wall_time=0.0) is None
        resolved = rule.observe(True, seq=7, wall_time=0.0)
        assert resolved is not None and resolved.state == "resolved"
        assert not rule.firing
        assert rule.transitions == 2

    def test_zero_budget_fires_immediately(self):
        rule = threshold_rule(budget=0.0, clear_good=2)
        alert = rule.observe(False, seq=1, wall_time=0.0)
        assert alert is not None and alert.state == "firing"
        assert alert.burn_rate == pytest.approx(1e18, rel=1e17) or alert.burn_rate == float("inf")

    def test_zero_budget_does_not_flap_on_stale_history(self):
        # Regression: after a clear, the old bad observations still inside
        # the long window must not re-fire the rule.
        rule = threshold_rule(budget=0.0, long_window=20, clear_good=2)
        rule.observe(False, seq=1, wall_time=0.0)
        assert rule.firing
        transitions = []
        for i in range(10):
            alert = rule.observe(True, seq=2 + i, wall_time=0.0)
            if alert is not None:
                transitions.append(alert.state)
        assert transitions == ["resolved"]
        assert not rule.firing
        # A fresh bad observation fires again.
        again = rule.observe(False, seq=99, wall_time=0.0)
        assert again is not None and again.state == "firing"

    def test_budget_remaining(self):
        rule = threshold_rule(budget=0.5, long_window=4)
        for good in (True, True, False, False):
            rule.observe(good, seq=0, wall_time=0.0)
        assert rule.budget_remaining() == pytest.approx(0.0)

    def test_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            SloObjective("x", "d", budget=1.5, probe=lambda h, e: True)
        with pytest.raises(ConfigurationError):
            SloObjective("x", "d", budget=0.1, probe=lambda h, e: True,
                         severity="sms")
        with pytest.raises(ConfigurationError):
            BurnRateRule(
                SloObjective("x", "d", budget=0.1, probe=lambda h, e: True),
                long_window=4, short_window=8,
            )


class TestSloSet:
    def test_duplicate_objectives_rejected(self):
        rule = threshold_rule()
        with pytest.raises(ConfigurationError):
            SloSet([rule, threshold_rule()])
        slos = SloSet([rule])
        with pytest.raises(ConfigurationError):
            slos.add(threshold_rule())

    def test_status_document(self):
        slos = SloSet([threshold_rule()])
        doc = slos.status()
        assert doc["schema"] == "repro-slo/1"
        assert doc["healthy"] is True
        row = doc["objectives"][0]
        assert row["objective"] == "test-pause"
        assert row["budget_remaining"] == 1.0
        json.dumps(doc)  # must be JSON-serializable (no Infinity)

    def test_default_catalog_validates_inputs(self):
        assert len(default_slos().rules) == 5
        with pytest.raises(ConfigurationError):
            default_slos(mmu_floor=2.0)
        with pytest.raises(ConfigurationError):
            default_slos(pause_p99_s=0.0)

    def test_exit_codes(self):
        slos = SloSet([threshold_rule()])
        assert slos.exit_code() == 0
        for i in range(4):
            slos.rules[0].observe(False, seq=i, wall_time=0.0)
        assert slos.exit_code() == 1


class TestAlertsThroughTelemetry:
    def test_alerts_reach_sinks_and_the_hub(self):
        # An impossible pause objective (zero budget, threshold 0) goes
        # bad on the first collection; its alert must travel the sink
        # fan-out like any other event.
        objective = SloObjective(
            "impossible", "pause under 0s", budget=0.0,
            probe=lambda hub, e: e.pause_s <= 0.0,
        )
        slos = SloSet([BurnRateRule(objective, clear_good=2)])
        vm = monitored_vm(slos)
        sink = MemorySink()
        vm.telemetry.add_sink(sink)
        node = vm.define_class("N", [("next", FieldKind.REF)])
        churn(vm, node)
        hub = vm.monitor
        assert hub.alerts, "hub never saw its own alert"
        alert = hub.alerts[0]
        assert isinstance(alert, AlertEvent)
        assert alert.objective == "impossible" and alert.state == "firing"
        sunk = [e for e in sink.events if getattr(e, "event", None) == "alert"]
        assert sunk, "MemorySink never saw the alert"
        assert sunk[0].as_dict()["objective"] == "impossible"
        assert not hub.slos.healthy()
        assert health_status(hub) == ("unhealthy", 503)


# -- health -----------------------------------------------------------------------------


class TestHealth:
    def test_report_validates_and_scores(self):
        vm = monitored_vm(default_slos())
        node = vm.define_class("N", [("next", FieldKind.REF)])
        churn(vm, node)
        hub = vm.monitor
        report = health_report(hub)
        assert validate_health_report(report) == []
        assert report["schema"] == HEALTH_SCHEMA
        assert report["status"] == "ok" and report["http_code"] == 200
        assert 0.0 <= report["score"] <= 100.0
        assert report["gc_events"] == hub.gc_events_seen
        assert report["slo"]["schema"] == "repro-slo/1"
        assert 0.0 <= health_score(hub) <= 100.0
        json.dumps(report)

    def test_validator_catches_drift(self):
        vm = monitored_vm()
        node = vm.define_class("N", [("next", FieldKind.REF)])
        churn(vm, node)
        report = health_report(vm.monitor)
        report["schema"] = "repro-health/0"
        report.pop("mmu")
        report["http_code"] = 418
        problems = validate_health_report(report)
        assert len(problems) >= 3

    def test_frame_renders(self):
        vm = monitored_vm(default_slos())
        node = vm.define_class("N", [("next", FieldKind.REF)])
        churn(vm, node)
        frame = render_monitor_frame(vm, vm.monitor, 1, 1.0)
        assert "health" in frame and "MMU:" in frame and "SLOs:" in frame
        assert "pause-p99" in frame


# -- HTTP server ------------------------------------------------------------------------


def http_get(url):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()


class TestMonitorServer:
    @pytest.fixture
    def served(self, monkeypatch):
        # Thresholds a loaded box cannot breach: these tests read the
        # endpoints' documents, not the wall clock (the 503 side has its own
        # test below).
        monkeypatch.setattr("repro.monitor.slo.CHECK_LATENCY_S", 60.0)
        vm = monitored_vm(default_slos(pause_p99_s=60.0, mmu_floor=1e-9))
        node = vm.define_class("N", [("next", FieldKind.REF)])
        churn(vm, node)
        server = MonitorServer(vm.monitor, port=0).start()
        yield vm, server
        server.stop()

    def test_metrics_endpoint_conforms(self, served):
        vm, server = served
        code, body = http_get(server.url + "/metrics")
        assert code == 200
        assert validate_exposition(body) == []
        assert "repro_gc_pause_seconds" in body       # telemetry exporter
        assert "repro_mmu_ratio" in body              # monitor families
        assert "repro_heap_health_score" in body
        assert "repro_slo_budget_remaining_ratio" in body

    def test_health_endpoint(self, served):
        vm, server = served
        code, body = http_get(server.url + "/health")
        assert code == 200
        report = json.loads(body)
        assert validate_health_report(report) == []

    def test_slo_endpoint(self, served):
        vm, server = served
        code, body = http_get(server.url + "/slo")
        assert code == 200
        doc = json.loads(body)
        assert doc["schema"] == "repro-slo/1"
        assert len(doc["objectives"]) == 5

    def test_unknown_endpoint_404_and_root_index(self, served):
        vm, server = served
        code, body = http_get(server.url + "/nope")
        assert code == 404
        code, body = http_get(server.url + "/")
        assert code == 200 and "/metrics" in body

    def test_health_serves_503_when_firing(self):
        objective = SloObjective(
            "impossible", "pause under 0s", budget=0.0,
            probe=lambda hub, e: e.pause_s <= 0.0,
        )
        vm = monitored_vm(SloSet([BurnRateRule(objective)]))
        node = vm.define_class("N", [("next", FieldKind.REF)])
        churn(vm, node)
        with MonitorServer(vm.monitor, port=0) as server:
            code, body = http_get(server.url + "/health")
            assert code == 503
            assert json.loads(body)["status"] == "unhealthy"

    def test_chaos_flips_health_to_503_and_clean_rounds_bring_it_back(self, monkeypatch):
        """The end-to-end drill CI's ``monitor-smoke`` runs: every endpoint
        conformant on a clean run, seeded faults (sentinel repairs, engine
        and snapshot degradations) fire a burn-rate alert and turn
        ``/health`` 503, clean rounds roll the bad observations out of the
        burn windows, and the exposition is still valid afterwards."""
        from repro.errors import ReproError
        from repro.faults import FaultInjector, FaultPlan
        from repro.workloads.suite import build_suite

        entry = build_suite()["lusearch"]
        # gc_workers=4: the SLO machinery must evaluate the same way when
        # pauses come from zone-sharded parallel marking.  The wall-clock
        # objectives get thresholds a loaded box cannot breach (as in the
        # ``served`` fixture): what flips health here is the zero-budget
        # ``no-degradation`` objective, which counts repairs, not seconds.
        monkeypatch.setattr("repro.monitor.slo.CHECK_LATENCY_S", 60.0)
        slos = default_slos(pause_p99_s=60.0, mmu_floor=1e-9)
        vm = VirtualMachine(
            heap_bytes=entry.heap_bytes, hardened=True,
            max_heap_bytes=entry.heap_bytes * 2,
            monitor=MonitorHub(slos),
            gc_workers=4,
        )
        hub = vm.monitor
        with MonitorServer(hub, port=0) as server:
            # Phase 1: clean workload -> 200, conformant endpoints.
            entry.run(vm)
            code, body = http_get(server.url + "/metrics")
            assert code == 200
            assert validate_exposition(body) == []
            code, body = http_get(server.url + "/health")
            report = json.loads(body)
            assert code == 200 and report["status"] == "ok", (code, report["status"])
            assert validate_health_report(report) == []
            assert report["schema"] == HEALTH_SCHEMA
            code, body = http_get(server.url + "/slo")
            slo = json.loads(body)
            assert code == 200 and slo["schema"] == "repro-slo/1", (code, slo)
            assert slo["healthy"] and len(slo["objectives"]) == 5, slo

            # Phase 2: seeded chaos faults -> degradations, a burn-rate
            # alert fires, /health serves 503.
            injector = FaultInjector(vm, FaultPlan.one_of_each(7)).attach()
            try:
                entry.run(vm)
                injector.apply_remaining()
                vm.gc("monitor drill: chaos settle")
            except ReproError:
                pass  # a typed error surfacing is a documented fault outcome
            finally:
                injector.detach()
            assert sum(hub.degradations_by_kind.values()) > 0, "chaos left no marks"
            assert [a for a in hub.alerts if a.state == "firing"], (
                "no burn-rate alert fired under chaos"
            )
            code, body = http_get(server.url + "/health")
            assert code == 503, f"expected 503 under chaos, got {code}"
            assert json.loads(body)["status"] == "unhealthy"

            # Phase 3: clean rounds -> the alert resolves, /health serves 200.
            for _ in range(20):
                entry.run(vm)
                if http_get(server.url + "/health")[0] == 200:
                    break
            code, body = http_get(server.url + "/health")
            assert code == 200, f"health never recovered (still {code})"
            assert [a for a in hub.alerts if a.state == "resolved"], (
                "firing alert never resolved"
            )
            code, body = http_get(server.url + "/metrics")
            assert validate_exposition(body) == [], "post-chaos exposition drifted"

    def test_render_monitor_metrics_standalone_conforms(self):
        vm = monitored_vm(default_slos())
        node = vm.define_class("N", [("next", FieldKind.REF)])
        churn(vm, node)
        assert validate_exposition(render_monitor_metrics(vm.monitor)) == []


# -- live view / CLI --------------------------------------------------------------------


def gated(runner):
    """``(runner, wait)`` for a live view that never sleeps and always paints
    the same frames: the workload parks until the view has painted frame 1
    and asks to wait; that wait releases it and returns when it is done, so
    frame 2 is the settled one."""
    gate = threading.Event()

    def parked(vm):
        assert gate.wait(timeout=60)
        runner(vm)

    def wait(worker, interval):
        gate.set()
        worker.join()

    return parked, wait


#: An interval nobody could sit through: a view that slept would hang here.
NEVER = 3600.0


class TestRunMonitor:
    def watch(self, slos):
        vm = monitored_vm(slos)
        node = vm.define_class("N", [("next", FieldKind.REF)])
        stream = io.StringIO()
        ticks = itertools.count()
        runner, wait = gated(lambda v: churn(v, node))
        rc = run_monitor(
            vm, vm.monitor, runner, interval=NEVER, stream=stream, ansi=False,
            clock=lambda: float(next(ticks)), wait=wait,
        )
        return rc, stream.getvalue()

    def test_watch_loop_repaints_and_exits_clean(self):
        rc, out = self.watch(default_slos())
        assert rc == 0
        assert "repro monitor" in out and "SLOs:" in out
        # Exactly the two frames, stamped by the injected clock.
        assert out.count("repro monitor") == 2
        assert "up    1.0s  frame 1" in out and "up    2.0s  frame 2" in out

    def test_watch_reports_slo_breach(self):
        rc, out = self.watch(impossible_slos())
        assert rc == 1
        assert "SLO breach" in out

    @pytest.mark.parametrize("view", ["top", "monitor"])
    @pytest.mark.parametrize("outcome", ["clean", "workload-error", "slo-breach"])
    def test_both_views_share_one_exit_code_contract(self, view, outcome):
        """A dead workload is exit 1 in either view; a blown SLO only where
        SLOs are the view's business."""
        from repro.tracing import run_top

        vm = monitored_vm(impossible_slos() if outcome == "slo-breach" else default_slos())
        node = vm.define_class("N", [("next", FieldKind.REF)])

        def workload(vm):
            churn(vm, node)
            if outcome == "workload-error":
                raise RuntimeError("workload blew up")

        stream = io.StringIO()
        runner, wait = gated(workload)
        args = dict(interval=NEVER, stream=stream, ansi=False, wait=wait)
        if view == "top":
            rc = run_top(vm, runner, **args)
        else:
            rc = run_monitor(vm, vm.monitor, runner, **args)
        out = stream.getvalue()
        assert rc == {"clean": 0, "workload-error": 1, "slo-breach": int(view == "monitor")}[outcome]
        assert ("workload failed: RuntimeError" in out) == (outcome == "workload-error")
        assert ("SLO breach" in out) == (outcome == "slo-breach" and view == "monitor")


class TestCliMonitor:
    def test_clean_run_exits_zero(self, capsys):
        from repro.__main__ import main

        assert main(["monitor", "--workload", "lusearch"]) == 0
        out = capsys.readouterr().out
        assert "repro monitor" in out and "SLOs:" in out

    def test_serve_watch_frames(self, capsys):
        from repro.__main__ import main

        rc = main([
            "monitor", "--workload", "lusearch",
            "--serve", "0", "--watch", "--frames", "2", "--interval", "0.05",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving /metrics /health /slo at http://127.0.0.1:" in out

    def test_unknown_workload_exits_two(self, capsys):
        from repro.__main__ import main

        assert main(["monitor", "--workload", "nope"]) == 2
        capsys.readouterr()

    def test_bad_slo_configuration_exits_two(self, capsys):
        from repro.__main__ import main

        assert main(["monitor", "--workload", "lusearch", "--mmu-floor", "2.0"]) == 2
        assert "configuration error" in capsys.readouterr().out

    def test_chaos_seed_breaches_slo(self, capsys):
        from repro.__main__ import main

        rc = main(["monitor", "--workload", "lusearch", "--chaos-seed", "7"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "SLO breach" in out
        assert "no-degradation" in out
