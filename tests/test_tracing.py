"""In-pause span tracing: recorder, Chrome export, attribution, CLI.

The invariants under test, in order of importance:

* **Zero overhead when off** — a VM built without ``tracing=True`` has no
  span tracer anywhere a hot path could reach, and with telemetry off too
  no collection builds a pause record.
* **Counters equal spans** — :class:`~repro.gc.stats.PhaseTimer` keeps the
  same two ``perf_counter`` readings it adds to the ``GcStats`` timer in
  the pause's record, which the span tracer and telemetry both read, so
  summing span durations reproduces the timer fields and each event's
  pause is its collection's ``gc_seconds`` increment, bit-for-bit.
* **Spans observe, never change** — deterministic work counters are
  identical with tracing on and off, on every collector.
* **The export conforms** — Chrome ``trace_event`` JSON with balanced B/E
  pairs, monotonic timestamps, and pid/tid on every event, so Perfetto
  loads it.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.__main__ import main
from repro.gc.stats import GcStats, PauseRecord, PhaseTimer
from repro.runtime.vm import VirtualMachine
from repro.snapshot import SnapshotPolicy
from repro.telemetry import GcEvent
from repro.tracing import (
    MARK_ATTRIBUTION_UNTAGGED,
    TRACE_SCHEMA,
    SpanTracer,
    aggregate_spans,
    chrome_trace_events,
    collapsed_stacks,
    render_span_table,
    trace_payload,
    validate_chrome_trace,
    write_chrome_trace,
    write_flamegraph,
)
from repro.workloads.jbb import JbbConfig, run_pseudojbb

#: Every (collector, sweep_mode) combination with a distinct code path.
#: Generational sweeps eagerly, its one discipline; only mark-sweep takes
#: the option.
CONFIGS = [
    ("marksweep", "eager"),
    ("marksweep", "lazy"),
    ("generational", "eager"),
    ("semispace", None),
]


def _traced_vm(collector: str, sweep_mode, tracing=True, **kwargs) -> VirtualMachine:
    if collector == "marksweep":
        kwargs["sweep_mode"] = sweep_mode
    return VirtualMachine(
        heap_bytes=1 << 20, collector=collector, tracing=tracing, **kwargs
    )


def _run_workload(vm: VirtualMachine) -> None:
    run_pseudojbb(
        vm,
        JbbConfig(
            iterations=2,
            transactions_per_iteration=150,
            assert_dead_orders=True,
            gc_per_iteration=True,
        ),
    )
    vm.gc("test: final collection")


class TestSpanTracer:
    def test_begin_end_pairs(self):
        tracer = SpanTracer()
        with tracer.span("collect", kind="full"):
            with tracer.span("pause"):
                pass
        assert tracer.spans_begun == tracer.spans_ended == 2
        assert tracer.open_depth == 0
        phs = [e[0] for e in tracer.events]
        assert phs == ["B", "B", "E", "E"]

    def test_instants_and_counters(self):
        tracer = SpanTracer()
        tracer.instant("assertion_armed", cat="assertion", site="here")
        tracer.counter("sweep_debt", chunks=3)
        phs = {e[0] for e in tracer.events}
        assert phs == {"i", "C"}

    def test_snapshot_events_is_a_copy(self):
        tracer = SpanTracer()
        tracer.instant("x")
        snap = tracer.snapshot_events()
        tracer.instant("y")
        assert len(snap) == 1


class TestZeroOverheadWhenOff:
    def test_off_by_default(self):
        vm = VirtualMachine(heap_bytes=1 << 20)
        assert vm.span_tracer is None
        assert vm.collector.span_tracer is None

    @pytest.mark.parametrize("collector,sweep_mode", CONFIGS)
    def test_no_span_objects_allocated_when_disabled(self, collector, sweep_mode, monkeypatch):
        built: list[str] = []
        init = PauseRecord.__init__

        def counted(record, kind, *rest):
            built.append(kind)
            init(record, kind, *rest)

        monkeypatch.setattr(PauseRecord, "__init__", counted)
        vm = _traced_vm(collector, sweep_mode, tracing=False, telemetry=False)
        _run_workload(vm)
        assert vm.stats.collections > 0
        assert vm.span_tracer is None
        assert built == []
        # The count is live: a traced run builds one record per collection.
        vm = _traced_vm(collector, sweep_mode, telemetry=False)
        _run_workload(vm)
        assert len([kind for kind in built if kind != "slice"]) == vm.stats.collections

    def test_phase_timer_without_spans_matches_legacy(self):
        stats = GcStats()
        with PhaseTimer(stats, "gc_seconds"):
            pass
        assert stats.gc_seconds > 0.0


class TestCounterIdentity:
    @pytest.mark.parametrize("collector,sweep_mode", CONFIGS)
    def test_tracing_never_changes_collector_work(self, collector, sweep_mode):
        seen = {}
        for tracing in (False, True):
            vm = _traced_vm(collector, sweep_mode, tracing=tracing)
            _run_workload(vm)
            vm.collector.sweep_all()
            s = vm.stats
            seen[tracing] = (
                s.collections,
                s.objects_traced,
                s.edges_traced,
                s.objects_freed,
                s.bytes_freed,
            )
        assert seen[False] == seen[True]


class TestTimerSpanUnification:
    """sum(span durations) must equal the GcStats timers *exactly* —
    PhaseTimer hands the same two clock readings to both sides."""

    SPAN_TO_TIMER = {
        "pause": "gc_seconds",
        "mark": "mark_seconds",
        "sweep": "sweep_seconds",
        "lazy_sweep_slice": "lazy_sweep_seconds",
        "ownership_phase": "ownership_phase_seconds",
    }

    @pytest.mark.parametrize("collector,sweep_mode", CONFIGS)
    def test_span_sums_equal_timers(self, collector, sweep_mode):
        vm = _traced_vm(collector, sweep_mode)
        _run_workload(vm)
        vm.collector.sweep_all()
        totals: dict[str, float] = {}
        stack = []
        for event in vm.span_tracer.events:
            if event[0] == "B":
                stack.append((event[1], event[3]))
            elif event[0] == "E":
                name, begin_ts = stack.pop()
                totals[name] = totals.get(name, 0.0) + (event[2] - begin_ts)
        assert not stack
        for span_name, timer_attr in self.SPAN_TO_TIMER.items():
            timer_value = getattr(vm.stats, timer_attr)
            span_sum = totals.get(span_name, 0.0)
            # Exact float equality on purpose: identical readings summed
            # in identical order.  Any drift means a phase bypassed the
            # unified PhaseTimer.
            assert span_sum == timer_value, (span_name, span_sum, timer_value)


def _collections(events: list) -> list[tuple[float, float, dict[str, float]]]:
    """Per ``collect`` span: its begin and end, and the summed durations of
    the phases directly under its ``pause``, by name."""
    out = []
    stack: list[tuple[str, float]] = []
    phases: dict[str, float] = {}
    for event in events:
        if event[0] == "B":
            if event[1] == "collect":
                phases = {}
            stack.append((event[1], event[3]))
        elif event[0] == "E":
            name, begin = stack.pop()
            if stack and stack[-1][0] == "pause":
                phases[name] = phases.get(name, 0.0) + (event[2] - begin)
            if name == "collect":
                out.append((begin, event[2], phases))
    return out


class TestOneRecordPerPause:
    """A GcEvent and the spans are read off the same pause record: the
    event's pause is the ``gc_seconds`` increment of its collection, its
    phase seconds the span durations, its interval inside its ``collect``
    span — with a snapshot serialized after every collection, which is
    mutator-side cost outside the pause."""

    @pytest.mark.parametrize("collector,sweep_mode", CONFIGS)
    def test_event_pause_is_the_timer_increment(self, collector, sweep_mode, tmp_path):
        vm = _traced_vm(collector, sweep_mode)
        SnapshotPolicy(str(tmp_path / "snaps"), every_n_gcs=1).attach(vm)
        seen: list[tuple[GcEvent, float]] = []

        class AtEmit:
            def emit(self, event) -> None:
                if isinstance(event, GcEvent):
                    seen.append((event, vm.stats.gc_seconds))

            def close(self) -> None:
                pass

        vm.telemetry.add_sink(AtEmit())
        _run_workload(vm)
        vm.collector.sweep_all()
        assert vm.telemetry.snapshots
        collections = _collections(vm.span_tracer.events)
        assert len(seen) == len(collections) == vm.stats.collections
        before = 0.0
        for (event, gc_seconds), (begin, end, phases) in zip(seen, collections):
            assert before + event.pause_s == gc_seconds, (event.seq, event.pause_s)
            before = gc_seconds
            assert event.ownership_s == phases.get("ownership_phase", 0.0)
            assert event.mark_s == phases.get("mark", 0.0)
            assert event.sweep_s == phases.get("sweep", 0.0)
            pause_start, pause_end = event.pause_interval
            assert begin <= pause_start <= pause_end <= end


class TestNestingInvariants:
    #: Allowed parents per span name (None = top level).
    ALLOWED_PARENTS = {
        "collect": {None},
        "prologue": {"collect"},
        "pause": {"collect"},
        "ownership_phase": {"pause"},
        "mark": {"pause"},
        "root_scan": {"mark"},
        "mark_drain": {"mark"},
        "sweep": {"collect", "prologue", "pause", None},
        "lazy_sweep_slice": {"sweep"},
        "snapshot_serialize": {"collect", None},
    }

    @pytest.mark.parametrize("collector,sweep_mode", CONFIGS)
    def test_span_parents(self, collector, sweep_mode):
        vm = _traced_vm(collector, sweep_mode)
        _run_workload(vm)
        vm.collector.sweep_all()
        stack: list[str] = []
        seen: set[str] = set()
        for event in vm.span_tracer.events:
            if event[0] == "B":
                name = event[1]
                parent = stack[-1] if stack else None
                allowed = self.ALLOWED_PARENTS.get(name)
                assert allowed is not None, f"unknown span {name!r}"
                assert parent in allowed, (name, parent)
                stack.append(name)
                seen.add(name)
            elif event[0] == "E":
                assert stack, "unbalanced end"
                assert event[1] == stack.pop()
        assert not stack
        assert {"collect", "pause", "mark", "root_scan", "mark_drain"} <= seen

    def test_minor_collections_get_minor_kind(self):
        vm = _traced_vm("generational", "eager")
        _run_workload(vm)
        kinds = {
            e[4].get("kind")
            for e in vm.span_tracer.events
            if e[0] == "B" and e[1] == "collect" and e[4]
        }
        assert "minor" in kinds or "full" in kinds
        # A minor collect span must never contain another collect span.
        depth = 0
        for event in vm.span_tracer.events:
            if event[0] == "B" and event[1] == "collect":
                assert depth == 0, "nested collect spans"
                depth += 1
            elif event[0] == "E" and event[1] == "collect":
                depth -= 1


class TestChromeExport:
    @pytest.mark.parametrize("collector,sweep_mode", CONFIGS)
    def test_schema_conformance(self, collector, sweep_mode, tmp_path):
        vm = _traced_vm(collector, sweep_mode)
        _run_workload(vm)
        path = tmp_path / "trace.json"
        summary = write_chrome_trace(vm.span_tracer, str(path), meta={"w": "test"})
        assert summary["file_bytes"] > 0
        problems = validate_chrome_trace(str(path))
        assert problems == []
        payload = json.loads(path.read_text())
        assert payload["otherData"]["schema"] == TRACE_SCHEMA
        assert payload["otherData"]["w"] == "test"
        events = payload["traceEvents"]
        assert all("pid" in e and "tid" in e for e in events)
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in metadata} >= {"process_name", "thread_name"}

    @pytest.mark.parametrize(
        "collector,sweep_mode,options",
        [(collector, sweep_mode, {}) for collector, sweep_mode in CONFIGS]
        + [("marksweep", "eager", {"gc_workers": 2}), ("marksweep", "lazy", {"gc_workers": 2})],
    )
    def test_payload_is_the_reference_writers_byte_for_byte(self, collector, sweep_mode, options):
        """The one exporter against the single-VM writer it replaced
        (``tests/reference_chrome_trace.py``), worker lanes included."""
        from tests import reference_chrome_trace as reference

        vm = _traced_vm(collector, sweep_mode, **options)
        _run_workload(vm)
        tracer = vm.span_tracer
        assert tracer.open_depth == 0 and tracer.events
        assert ("X" in {e[0] for e in tracer.events}) == bool(options)
        assert json.dumps(trace_payload(tracer, {"w": "test"})) == json.dumps(
            reference.trace_payload(tracer, {"w": "test"})
        )

    def test_timestamps_rebased_and_monotonic(self):
        vm = _traced_vm("marksweep", "eager")
        _run_workload(vm)
        events = chrome_trace_events(vm.span_tracer)
        timed = [e for e in events if e["ph"] != "M"]
        assert timed[0]["ts"] >= 0.0
        assert all(a["ts"] <= b["ts"] for a, b in zip(timed, timed[1:]))

    def test_validator_catches_unbalanced_events(self):
        payload = {
            "traceEvents": [
                {"name": "x", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            ],
            "displayTimeUnit": "ms",
        }
        assert validate_chrome_trace(payload)

    def test_validator_catches_nonmonotonic_ts(self):
        payload = {
            "traceEvents": [
                {"name": "x", "ph": "B", "ts": 5, "pid": 1, "tid": 1},
                {"name": "x", "ph": "E", "ts": 1, "pid": 1, "tid": 1},
            ],
            "displayTimeUnit": "ms",
        }
        assert validate_chrome_trace(payload)


class TestAssertionLifecycleInstants:
    def test_register_armed_checked_violated(self):
        vm = VirtualMachine(heap_bytes=1 << 20, tracing=True)
        from repro.heap.object_model import FieldKind

        node = vm.define_class("Node", [("next", FieldKind.REF)])
        with vm.scope():
            keep = vm.new(node)
            vm.statics.set_ref("keep", keep.address)
            vm.assertions.assert_dead(keep, site="test: still rooted")
        vm.gc("test: check assertions")
        instants = {
            e[1] for e in vm.span_tracer.events if e[0] == "i" and e[2] == "assertion"
        }
        assert {"assertion_register", "assertion_armed",
                "assertion_checked", "assertion_violated"} <= instants

    def test_satisfied_assertion_has_no_violation_instant(self):
        vm = VirtualMachine(heap_bytes=1 << 20, tracing=True)
        from repro.heap.object_model import FieldKind

        node = vm.define_class("Node", [("next", FieldKind.REF)])
        with vm.scope():
            doomed = vm.new(node)
            vm.assertions.assert_dead(doomed, site="test: truly dead")
        vm.gc("test: check assertions")
        instants = [e[1] for e in vm.span_tracer.events if e[0] == "i"]
        assert "assertion_checked" in instants
        assert "assertion_violated" not in instants


class TestMarkAttributionAndFlame:
    def _attributed_vm(self) -> VirtualMachine:
        vm = VirtualMachine(
            heap_bytes=1 << 20, tracing=SpanTracer(attribute_marks=True)
        )
        _run_workload(vm)
        return vm

    def test_attribution_keyed_by_type_and_site(self):
        vm = self._attributed_vm()
        attribution = vm.span_tracer.mark_attribution
        assert attribution, "no mark work attributed"
        for (type_name, site), (objects, nbytes) in attribution.items():
            assert isinstance(type_name, str) and type_name
            assert site == MARK_ATTRIBUTION_UNTAGGED or isinstance(site, str)
            assert objects > 0 and nbytes > 0

    def test_collapsed_stacks_format(self, tmp_path):
        vm = self._attributed_vm()
        stacks = collapsed_stacks(vm.span_tracer)
        assert stacks
        for line in stacks:
            frames, _, value = line.rpartition(" ")
            assert frames.startswith("collect;mark_drain;")
            assert int(value) > 0
        by_objects = collapsed_stacks(vm.span_tracer, weight="objects")
        assert len(by_objects) == len(stacks)
        out = tmp_path / "mark.folded"
        summary = write_flamegraph(vm.span_tracer, str(out))
        assert summary["stacks"] == len(stacks)
        assert out.read_text().count("\n") == len(stacks)

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError):
            collapsed_stacks(SpanTracer(), weight="seconds")

    def test_attribution_off_by_default(self):
        vm = _traced_vm("marksweep", "eager")
        _run_workload(vm)
        assert vm.span_tracer.mark_attribution == {}


class TestAggregationAndReport:
    def test_aggregate_totals_and_self_times(self):
        vm = _traced_vm("marksweep", "lazy")
        _run_workload(vm)
        vm.collector.sweep_all()
        agg = aggregate_spans(vm.span_tracer.events)
        for row in agg.values():
            assert row["self_s"] <= row["total_s"] + 1e-12
            assert row["max_s"] <= row["total_s"] + 1e-12
        # Children are contained in the parent's total.
        assert agg["root_scan"]["total_s"] + agg["mark_drain"]["total_s"] <= (
            agg["mark"]["total_s"] + 1e-9
        )
        table = render_span_table(agg)
        assert "mark_drain" in table and "span" in table

    def test_aggregate_tolerates_live_recording(self):
        tracer = SpanTracer()
        tracer.begin("collect")
        tracer.begin("pause")
        tracer.end()
        agg = aggregate_spans(tracer.snapshot_events())
        assert "pause" in agg and "collect" not in agg


class TestLazySliceTelemetry:
    def test_slice_latency_recorded(self):
        vm = VirtualMachine(heap_bytes=1 << 20, sweep_mode="lazy")
        _run_workload(vm)
        vm.collector.sweep_all()
        summary = vm.telemetry.summary()
        slices = summary["lazy_sweep_slices"]
        assert slices["chunks_swept"] > 0
        assert slices["latency_seconds"]["count"] > 0
        assert "lazy sweep" in vm.telemetry.render()

    def test_eager_mode_records_no_slices(self):
        vm = VirtualMachine(heap_bytes=1 << 20, sweep_mode="eager")
        _run_workload(vm)
        assert vm.telemetry.summary()["lazy_sweep_slices"]["chunks_swept"] == 0


class TestCliTrace:
    def test_trace_run_lusearch(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        flame = tmp_path / "mark.folded"
        rc = main([
            "trace", "run", "--workload", "lusearch",
            "--out", str(out), "--flame", str(flame),
        ])
        assert rc == 0
        assert validate_chrome_trace(str(out)) == []
        assert flame.read_text().strip()
        assert "Perfetto" in capsys.readouterr().out or out.exists()

    def test_trace_run_swapleak(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(["trace", "run", "--workload", "swapleak", "--out", str(out)])
        assert rc == 0
        assert validate_chrome_trace(str(out)) == []
        assert "swapleak" in capsys.readouterr().out

    def test_trace_run_unknown_workload(self, tmp_path, capsys):
        rc = main([
            "trace", "run", "--workload", "nope",
            "--out", str(tmp_path / "t.json"),
        ])
        assert rc == 2
        assert "unknown workload" in capsys.readouterr().out

    def test_trace_report_prints_attribution(self, capsys):
        rc = main(["trace", "report", "--workload", "pseudojbb", "--assertions"])
        assert rc == 0
        out = capsys.readouterr().out
        # The span table is the whole report: what an edge costs under each
        # drain is the benchmark's gc.tracer.*_edges_per_s probes.
        table = out.split("\n\n", 1)[1].splitlines()
        assert table[0].split() == ["span", "count", "total", "self", "mean", "max"]
        assert {"collect", "mark_drain", "ownership_phase"} <= {row.split()[0] for row in table[1:]}
        assert "mark_drain attribution" not in out

    def test_top_fixed_frames(self):
        """``frames=N`` detaches after N repaints, workload running or not.
        Clock and wait are injected, so no frame waits on the wall clock:
        the workload is parked until the view has painted its last frame."""
        import io
        import itertools

        from repro.tracing import run_top

        release = threading.Event()

        def workload(vm):
            assert release.wait(timeout=60)
            run_pseudojbb(vm, JbbConfig(iterations=1, transactions_per_iteration=20))

        vm = VirtualMachine(heap_bytes=1 << 20, tracing=True)
        stream = io.StringIO()
        ticks = itertools.count()
        try:
            rc = run_top(
                vm, workload, interval=3600.0, frames=2, stream=stream, ansi=False,
                clock=lambda: float(next(ticks)), wait=lambda worker, interval: None,
            )
        finally:
            # In-process, a detached workload would keep mutating (and
            # holding the GIL) under whatever test runs next.
            release.set()
            for thread in threading.enumerate():
                if thread.name == "repro-view-workload":
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        assert rc == 0
        out = stream.getvalue()
        assert out.count("repro top") == 2
        assert "up    1.0s  frame 1" in out and "up    2.0s  frame 2" in out
        assert "pauses: (no collections yet)" in out
        assert "(workload still running after 2 frames; detaching)" in out

    def test_top_runs_to_a_settled_final_frame(self, capsys):
        rc = main(["top", "--workload", "pseudojbb", "--interval", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        final = out.rsplit("-" * 72, 1)[-1]
        assert "repro top" in final
        assert "pauses: p50=" in final
        assert "hottest phases" in final
        assert "detaching" not in out
