"""End-to-end request tracing across the multi-tenant service (tier 1).

What this file pins:

* trace-context propagation — W3C-traceparent-shaped ids survive the
  stamp → encode → FrameDecoder → from_frame round trip, and unknown
  trace-ish keys from newer clients pass through untouched;
* sequence numbering — every outbound session frame carries a monotonic
  ``seq`` assigned *before* shedding, so the client-side
  :class:`~repro.service.wire.SequenceTracker` counts exactly the shed
  frames;
* mono delivery-lag measurement — the SLO scores perf_counter span
  stamps; wall-clock time is display-only and cannot skew the budget;
* exemplars — a firing delivery-lag alert names the trace_id of a bad
  observation;
* the served-with-tracing path is counter-identical to a direct VM run
  (the zero-overhead-when-off *and* non-perturbation-when-on contract);
* the merged export validates as a Chrome trace and re-parents every
  tenant-track GC span under the owning request span.
"""

from __future__ import annotations

import json

import pytest

from repro.runtime.vm import VirtualMachine
from repro.service import (
    AssertionService,
    FrameDecoder,
    SequenceTracker,
    ServiceClient,
    ServiceConfig,
    TenantSession,
    encode_frame,
    resolve_workload,
)
from repro.tracing.distributed import (
    TENANT_TRACK_BASE,
    DistributedTracer,
    TraceContext,
    merge_service_trace,
    render_request_report,
    request_rows,
)
from repro.tracing.export import TRACE_PID, validate_chrome_trace


def _run_direct(workload: str = "swapleak", overrides=None):
    heap_bytes, runner = resolve_workload(workload, overrides=overrides or {})
    vm = VirtualMachine(
        heap_bytes=heap_bytes, assertions=True, telemetry=True,
        hardened=True, max_heap_bytes=heap_bytes * 2,
    )
    runner(vm)
    vm.collector.sweep_all()
    return vm.stats.snapshot()["counters"], vm.violation_lines()


# -- trace context ----------------------------------------------------------------------


class TestTraceContext:
    def test_new_ids_are_w3c_shaped(self):
        ctx = TraceContext.new()
        assert len(ctx.trace_id) == 32 and int(ctx.trace_id, 16) >= 0
        assert len(ctx.span_id) == 16 and int(ctx.span_id, 16) >= 0

    def test_seeded_rng_is_deterministic(self):
        import random

        a = TraceContext.new(random.Random(7))
        b = TraceContext.new(random.Random(7))
        assert a == b

    def test_child_shares_trace_and_parents_under_origin(self):
        root = TraceContext.new()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_span_id == root.span_id
        assert child.span_id != root.span_id

    def test_traceparent_round_trip(self):
        ctx = TraceContext.new()
        parsed = TraceContext.from_traceparent(ctx.to_traceparent())
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id

    def test_malformed_traceparent_is_none(self):
        assert TraceContext.from_traceparent("hello") is None
        assert TraceContext.from_traceparent("00-xyz-abc-01") is None

    def test_stamp_and_from_frame_round_trip(self):
        ctx = TraceContext.new()
        frame = ctx.stamp({"type": "open", "tenant": "acme"})
        recovered = TraceContext.from_frame(frame)
        assert recovered.trace_id == ctx.trace_id
        # from_frame recovers the *sender's position*: its span is the
        # frame's parent_span_id, which the receiver parents under.
        assert recovered.span_id == ctx.span_id

    def test_unstamped_frame_is_none(self):
        assert TraceContext.from_frame({"type": "open"}) is None
        assert TraceContext.from_frame({"trace_id": 42}) is None


class TestWireRoundTrip:
    def test_stamped_open_survives_the_decoder(self):
        ctx = TraceContext.new()
        frame = ctx.stamp({"type": "open", "tenant": "acme", "workload": "swapleak"})
        decoder = FrameDecoder()
        (decoded,) = decoder.feed(encode_frame(frame))
        assert decoded["trace_id"] == ctx.trace_id
        assert decoded["parent_span_id"] == ctx.span_id
        assert TraceContext.from_frame(decoded) == TraceContext.from_frame(frame)

    def test_unknown_trace_keys_from_future_clients_pass_through(self):
        frame = {
            "type": "open", "trace_id": "ab" * 16, "parent_span_id": "cd" * 8,
            "trace_flags": "01", "tracestate": "vendor=opaque",
        }
        decoder = FrameDecoder()
        (decoded,) = decoder.feed(encode_frame(frame))
        assert decoded == frame


# -- sequence numbers and gap detection -------------------------------------------------


class TestSequenceNumbers:
    def test_tracker_counts_gaps_per_session(self):
        tracker = SequenceTracker()
        assert tracker.observe({"session": "s1", "seq": 0}) == 0
        assert tracker.observe({"session": "s1", "seq": 1}) == 0
        assert tracker.observe({"session": "s1", "seq": 4}) == 2
        assert tracker.observe({"session": "s2", "seq": 3}) == 3  # 0..2 shed
        assert tracker.gaps == {"s1": 2, "s2": 3}
        assert tracker.total_gaps == 5

    def test_frames_without_seq_are_ignored(self):
        tracker = SequenceTracker()
        assert tracker.observe({"type": "welcome"}) == 0
        assert tracker.observe({"session": "s1", "type": "violation"}) == 0
        assert tracker.total_gaps == 0 and tracker.frames_seen == 0

    def test_session_numbers_every_frame_before_shedding(self):
        """Shed gc-event frames consume seqs: delivered seq gaps == drops."""
        heap_bytes, runner = resolve_workload("swapleak", overrides={"swaps": 48})
        session = TenantSession("s1", "acme", heap_bytes, queue_frames=2)
        session.run(runner)
        delivered = [frame for frame, _t in session.queue.drain()]
        assert all(isinstance(frame.get("seq"), int) for frame in delivered)
        tracker = SequenceTracker()
        for frame in delivered:
            tracker.observe(frame)
        assert session.queue.dropped_frames > 0
        assert tracker.total_gaps == session.queue.dropped_frames
        # seq space = delivered + shed, contiguous from 0.
        assert session.out_seq == len(delivered) + session.queue.dropped_frames

    def test_client_observes_shed_frames_end_to_end(self):
        config = ServiceConfig(http_port=None, outbound_queue_frames=2)
        with AssertionService(config) as service:
            with ServiceClient("127.0.0.1", service.port) as client:
                client.hello()
                opened = client.open("acme", "swapleak", overrides={"swaps": 64})
                assert opened["type"] == "opened"
                streamed: list = []
                result = client.submit(opened["session"], collect=streamed)
                closed = client.close_session(opened["session"], collect=streamed)
                assert result["outcome"] == "completed"
                # Client-side gap count equals the server's shed count.
                assert client.frames_missed == closed["dropped_frames"]


# -- mono-stamp delivery lag + exemplar alerts ------------------------------------------


class TestMonoDeliveryLag:
    def test_lag_is_mono_difference_not_wall_clock(self):
        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics(delivery_lag_slo_s=0.200)
        # A wall-clock step of a million seconds must not register: only
        # the perf_counter span (1ms, within SLO) is measured.
        metrics.observe_delivery_lags((500.0,), 500.001, wall_time=1e6)
        assert metrics.slo_status()["healthy"] is True
        assert metrics.delivery_lag.count == 1
        assert metrics.delivery_lag.percentile(50) < 0.1

    def test_backwards_mono_span_clamps_to_zero(self):
        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        metrics.observe_delivery_lags((500.0,), 499.0, wall_time=0.0)
        assert metrics.slo_status()["healthy"] is True

    def test_firing_alert_carries_exemplar_trace_id(self):
        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics(delivery_lag_slo_s=1e-9)
        for i in range(100):
            metrics.observe_delivery_lags(
                (0.0,), 1.0, wall_time=float(i), trace_id=f"{i:032x}"
            )
        firing = [a for a in metrics.alerts if a.state == "firing"]
        assert firing and firing[0].exemplar is not None
        assert len(firing[0].exemplar) == 32
        assert "exemplar=" in firing[0].render()
        status = metrics.slo_status()
        delivery = [
            o for o in status["objectives"]
            if o["objective"] == "violation-delivery-lag"
        ][0]
        assert delivery["exemplar"] is not None

    def test_resolved_alert_has_no_exemplar(self):
        from repro.monitor.slo import BurnRateRule, SloObjective

        rule = BurnRateRule(
            SloObjective("x", "d", budget=0.01, probe=lambda h, e: True),
            long_window=10, short_window=4, clear_good=4,
        )
        alerts = []
        for i in range(10):
            alert = rule.observe(False, seq=i, wall_time=0.0, exemplar="t1")
            if alert:
                alerts.append(alert)
        for i in range(10, 20):
            alert = rule.observe(True, seq=i, wall_time=0.0)
            if alert:
                alerts.append(alert)
        states = [a.state for a in alerts]
        assert states == ["firing", "resolved"]
        assert alerts[0].exemplar == "t1"
        assert alerts[1].exemplar is None


# -- the traced service, end to end -----------------------------------------------------


def _traced_session(service: AssertionService, tenant: str, ctx: TraceContext):
    with ServiceClient("127.0.0.1", service.port, trace=ctx) as client:
        client.hello()
        opened = client.open(tenant, "swapleak", overrides={"swaps": 32})
        assert opened["type"] == "opened", opened
        assert opened["trace_id"] == ctx.trace_id
        streamed: list = []
        result = client.submit(opened["session"], collect=streamed)
        assert result["type"] == "result", result
        client.close_session(opened["session"], collect=streamed)
    return opened, result, streamed


class TestDistributedService:
    def test_tracing_off_has_no_tracer_anywhere(self):
        with AssertionService(ServiceConfig(http_port=None)) as service:
            assert service.tracer is None
            with ServiceClient("127.0.0.1", service.port) as client:
                client.hello()
                opened = client.open("acme", "swapleak", overrides={"swaps": 8})
                result = client.submit(opened["session"])
                assert "trace_id" not in opened
                assert "trace_id" not in result
                client.close_session(opened["session"])
            assert service.traced_sessions == []

    def test_traced_run_is_counter_identical_to_direct(self):
        overrides = {"swaps": 32}
        direct_counters, direct_violations = _run_direct("swapleak", overrides)
        config = ServiceConfig(http_port=None, tracing=True)
        with AssertionService(config) as service:
            with ServiceClient("127.0.0.1", service.port, trace=True) as client:
                client.hello()
                opened = client.open("acme", "swapleak", overrides=overrides)
                result = client.submit(opened["session"])
                client.close_session(opened["session"])
        assert result["counters"] == direct_counters
        assert result["violations"] == direct_violations

    def test_request_lifecycle_spans_and_reparenting(self):
        config = ServiceConfig(http_port=None, tracing=True)
        with AssertionService(config) as service:
            ctx_a, ctx_b = TraceContext.new(), TraceContext.new()
            _traced_session(service, "tenant-a", ctx_a)
            _traced_session(service, "tenant-b", ctx_b)
            payload = service.merged_trace_payload()
            rows = request_rows(service.tracer)

        assert validate_chrome_trace(payload) == []

        # Two requests, each parented under its client's context and
        # carrying the full lifecycle breakdown.
        assert {row["trace_id"] for row in rows} == {
            ctx_a.trace_id, ctx_b.trace_id,
        }
        for row in rows:
            assert row["outcome"] == "completed"
            assert row["execution_s"] > 0
            assert row["violations_delivered"] > 0
            assert row["max_delivery_lag_s"] > 0

        events = payload["traceEvents"]
        request_spans = {
            e["args"]["span_id"]: e["args"]["trace_id"]
            for e in events
            if e.get("name") == "request" and e["pid"] == TRACE_PID
        }
        assert len(request_spans) == 2

        # Re-parenting invariant: every tenant track's span stream hangs
        # off a request span — top-level spans carry explicit parent
        # args, nested spans inherit by B/E containment.
        tenant_pids = sorted({
            e["pid"] for e in events if e["pid"] >= TENANT_TRACK_BASE
        })
        assert len(tenant_pids) == 2
        for pid in tenant_pids:
            track = [e for e in events if e["pid"] == pid and e["ph"] != "M"]
            assert track, f"tenant pid {pid} has no events"
            depth = 0
            saw_top_level_span = False
            saw_gc_pause = False
            for event in track:
                if event["ph"] == "B":
                    if depth == 0:
                        saw_top_level_span = True
                        parent = event["args"]["parent_span_id"]
                        assert parent in request_spans
                        assert event["args"]["trace_id"] == request_spans[parent]
                    if event["name"] == "pause":
                        saw_gc_pause = True
                        assert depth > 0  # nested under collect
                    depth += 1
                elif event["ph"] == "E":
                    depth -= 1
                elif event["ph"] == "i":
                    # Instants (assertion lifecycle) always carry linkage.
                    assert event["args"]["parent_span_id"] in request_spans
            assert saw_top_level_span and saw_gc_pause

        # Assertion-violation instants exist on tenant tracks and share
        # the clients' trace ids.
        instants = [
            e for e in events
            if e["ph"] == "i" and e["pid"] >= TENANT_TRACK_BASE
            and e.get("cat") == "assertion"
        ]
        assert instants
        assert {e["args"]["trace_id"] for e in instants} <= {
            ctx_a.trace_id, ctx_b.trace_id,
        }

    def test_rejected_open_still_gets_a_request_span(self):
        config = ServiceConfig(
            http_port=None, tracing=True, heap_budget_bytes=1,
        )
        with AssertionService(config) as service:
            with ServiceClient("127.0.0.1", service.port, trace=True) as client:
                client.hello()
                rejected = client.open("acme", "swapleak")
                assert rejected["type"] == "rejected"
                assert rejected["trace_id"] == client.trace.trace_id
            rows = request_rows(service.tracer)
        assert len(rows) == 1
        assert rows[0]["outcome"] == "rejected"
        assert rows[0]["trace_id"] is not None

    def test_unstamped_client_gets_server_rooted_trace(self):
        config = ServiceConfig(http_port=None, tracing=True)
        with AssertionService(config) as service:
            with ServiceClient("127.0.0.1", service.port) as client:
                client.hello()
                opened = client.open("acme", "swapleak", overrides={"swaps": 8})
                assert len(opened["trace_id"]) == 32
                client.submit(opened["session"])
                client.close_session(opened["session"])
            assert validate_chrome_trace(service.merged_trace_payload()) == []

    def test_render_request_report_is_printable(self):
        tracer = DistributedTracer()
        assert render_request_report(request_rows(tracer)) == "no requests traced"


class TestMergeRobustness:
    def test_open_spans_are_closed_at_the_horizon(self):
        tracer = DistributedTracer()
        lane = tracer.lane("k", "request s1 (acme)")
        span = tracer.begin(
            "request", start=tracer.t0 + 10.0, lane=lane, trace_id="ab" * 16,
        )
        tracer.record(
            "admission_wait", tracer.t0 + 10.0, tracer.t0 + 10.5, lane=lane,
            trace_id="ab" * 16, parent_span_id=span,
        )
        payload = merge_service_trace(tracer, [])
        assert validate_chrome_trace(payload) == []
        request = [
            e for e in payload["traceEvents"] if e.get("name") == "request"
        ][0]
        assert request["dur"] >= 0

    def test_abandoned_tenant_spans_do_not_break_validation(self):
        from repro.tracing.spans import SpanTracer

        tenant_tracer = SpanTracer()
        tenant_tracer.begin("collect", cat="gc")
        tenant_tracer.begin("pause", cat="gc")
        tenant_tracer.end()
        # "collect" left open: the merge drops the unmatched pair.
        record = {
            "tenant": "acme", "session": "s1", "tracer": tenant_tracer,
            "trace_id": "ab" * 16, "request_span_id": "cd" * 8,
        }
        payload = merge_service_trace(DistributedTracer(), [record])
        assert validate_chrome_trace(payload) == []
        names = [
            e["name"] for e in payload["traceEvents"]
            if e["ph"] in ("B", "E")
        ]
        assert "pause" in names and "collect" not in names

    def test_merged_payload_is_json_serializable(self):
        config = ServiceConfig(http_port=None, tracing=True)
        with AssertionService(config) as service:
            _traced_session(service, "acme", TraceContext.new())
            payload = service.merged_trace_payload(meta={"run": "test"})
        blob = json.loads(json.dumps(payload))
        assert blob["otherData"]["schema"] == "repro-dtrace/1"
        assert blob["otherData"]["run"] == "test"


# -- the loadgen acceptance shape -------------------------------------------------------


class TestLoadgenTrace:
    def test_trace_out_requires_self_hosting(self):
        from repro.errors import ConfigurationError
        from repro.service import LoadgenConfig, run_loadgen

        config = LoadgenConfig(
            sessions=1, port=12345, trace_out="/tmp/never-written.json",
        )
        with pytest.raises(ConfigurationError):
            run_loadgen(config)

    def test_multi_tenant_merged_export_acceptance(self, tmp_path):
        """The PR's acceptance artifact: >= 2 tenants' request spans on
        distinct tracks, nested GC pauses + violation instants, shared
        client trace ids, and a fired alert whose exemplar is in the
        export."""
        from repro.service import LoadgenConfig, run_loadgen

        out = str(tmp_path / "dtrace.json")
        config = LoadgenConfig(
            sessions=4, rate=400.0, seed=0,
            mix=(("swapleak", 1),),
            trace_out=out,
            delivery_lag_slo_s=1e-9,
        )
        report = run_loadgen(config)
        assert report.ok, report.render()
        assert report.trace["path"] == out
        assert validate_chrome_trace(out) == []

        with open(out) as handle:
            payload = json.load(handle)
        events = payload["traceEvents"]
        requests = [e for e in events if e.get("name") == "request"]
        client_trace_ids = {row["trace_id"] for row in report.requests}
        assert len(requests) == 4
        assert {e["args"]["trace_id"] for e in requests} == client_trace_ids

        tenant_pids = {e["pid"] for e in events if e["pid"] >= TENANT_TRACK_BASE}
        assert len(tenant_pids) >= 2
        pauses = {
            e["pid"] for e in events
            if e["ph"] == "B" and e["name"] == "pause"
            and e["pid"] >= TENANT_TRACK_BASE
        }
        violations = {
            e["pid"] for e in events
            if e["ph"] == "i" and e.get("cat") == "assertion"
            and e["pid"] >= TENANT_TRACK_BASE
        }
        assert len(pauses & violations) >= 2  # >= 2 tenants with both

        # The forced delivery-lag alert fired and its exemplar is a
        # trace id present in the export.
        firing = [
            a for a in report.alerts
            if a["objective"] == "violation-delivery-lag"
            and a["state"] == "firing"
        ]
        assert firing and firing[0]["exemplar"] in client_trace_ids
        # What CI's serve-smoke read instead: the printed report and the
        # ``--json-out`` document say the same.
        assert "exemplar=" in report.render()
        written = json.loads(json.dumps(report.as_dict()))
        assert {row["trace_id"] for row in written["requests"]} == client_trace_ids
        assert any(
            alert["state"] == "firing" and alert.get("exemplar") in client_trace_ids
            for alert in written["alerts"]
        )

    def test_merged_export_is_the_reference_writers_byte_for_byte(self, tmp_path):
        """The one exporter, composed per tenant, against the merge writer
        it replaced (``tests/reference_chrome_trace.py``) — on the same
        recordings, every request closed and every tenant stream balanced."""
        from repro.service import LoadgenConfig, run_loadgen
        from tests import reference_chrome_trace as reference

        meta = {"generator": "repro-loadgen", "seed": 0}
        with AssertionService(ServiceConfig(http_port=None, tracing=True)) as service:
            report = run_loadgen(
                LoadgenConfig(
                    sessions=4, rate=400.0, seed=0, mix=(("swapleak", 1),),
                    trace_out=str(tmp_path / "dtrace.json"),
                ),
                service=service,
            )
            assert report.ok, report.render()
            merged = service.merged_trace_payload(meta)
            expected = reference.merge_service_trace(
                service.tracer, service.traced_sessions, meta
            )
        assert len(service.traced_sessions) == 4
        assert all(span["end"] is not None for span in service.tracer.snapshot()[0])
        assert all(row["tracer"].open_depth == 0 for row in service.traced_sessions)
        assert json.dumps(merged) == json.dumps(expected)

    def test_cli_trace_out_prints_the_per_request_table(self, tmp_path, capsys):
        """``loadgen --trace-out`` is the one traced-load command: the report,
        then a row per request, and the merged export on disk."""
        from repro.__main__ import main

        out = tmp_path / "dtrace.json"
        assert main(["loadgen", "--quick", "--sessions", "3", "--seed", "0",
                     "--trace-out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "loadgen: 3/3 sessions completed" in printed
        header = next(line for line in printed.splitlines() if line.startswith("session "))
        assert header.split()[-1] == "trace_id" and "exec ms" in header
        rows = [line for line in printed.splitlines() if line.startswith("s") and "tenant-" in line]
        assert len(rows) == 3 and all(row.split()[2] == "completed" for row in rows)
        assert validate_chrome_trace(str(out)) == []

    def test_untraced_loadgen_report_has_no_trace_artifacts(self):
        from repro.service import LoadgenConfig, run_loadgen

        report = run_loadgen(LoadgenConfig(
            sessions=2, rate=400.0, seed=1, mix=(("swapleak", 1),),
        ))
        assert report.ok
        assert report.trace is None
        assert report.requests == []
