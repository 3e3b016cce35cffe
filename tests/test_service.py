"""The multi-tenant assertion service: wire protocol, admission, sessions.

Coverage map:

* framing — round-trip across arbitrary chunk boundaries, truncated and
  oversized frames rejected, unknown keys preserved (the same forward-
  compatibility discipline as the gc-event schema);
* admission — budget ledger, session cap, Retry-After rejections, and
  the acceptance-criteria ramp: 100+ concurrent sessions under budget
  with overflow rejected, never crashed;
* isolation — a session run through the server is **bit-identical** (GC
  counters + violation sets) to the same workload run directly on a VM,
  and a killed tenant perturbs nobody (the chaos cell);
* backpressure — bounded outbound queues shed gc-event frames and count
  them; critical frames always deliver;
* serving — /metrics carries tenant-labelled families that pass the
  exposition conformance checker.
"""

from __future__ import annotations

import json
import random
import struct
import threading
import time
from bisect import bisect_right
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SessionKilled, WireProtocolError
from repro.runtime.vm import VirtualMachine
from repro.service import (
    AdmissionController,
    AssertionService,
    FrameDecoder,
    FrameQueue,
    LoadgenConfig,
    ServiceClient,
    ServiceConfig,
    TenantSession,
    encode_frame,
    resolve_workload,
    run_loadgen,
)
from repro.service import server as server_module
from repro.service.session import HARDENED_GROWTH_CEILING
from repro.service.wire import MAX_FRAME_BYTES, encode_frame_trimmed


# -- wire protocol ----------------------------------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**40), 2**40) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_payloads = st.dictionaries(st.text(max_size=6), _json_values, max_size=4)
_FUZZ_LIMIT = 4096


def _framed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


#: fault -> (bytes on the wire, error text, bytes of it that must arrive
#: before the decoder can know, bytes of it the decoder has dropped by then).
_STREAM_FAULTS = {
    "zero-length": (struct.pack(">I", 0), "zero-length frame", 4, 0),
    "oversize": (struct.pack(">I", _FUZZ_LIMIT + 1), "exceeds the 4096-byte limit", 4, 0),
    "not-an-object": (_framed(b"[1,2]"), "must be a JSON object, got list", 9, 9),
    "undecodable": (_framed(b"\xff{}"), "undecodable frame body", 7, 7),
}


class TestFraming:
    @given(
        payloads=st.lists(_payloads, max_size=6),
        fault=st.sampled_from([None, *_STREAM_FAULTS]),
        tail=st.integers(0, 40),
        cuts=st.lists(st.integers(0, 1 << 16), max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_chunking_of_a_stream_decodes_alike(self, payloads, fault, tail, cuts):
        """What the decoder has handed out, counted and kept back depends on
        the bytes it was fed so far, never on how they were chunked — and a
        structural fault raises in the feed that completes it, with every
        frame before it counted and consumed."""
        good = [encode_frame(p) for p in payloads]
        ends = list(accumulate(map(len, good)))
        blob = b"".join(good)
        after = encode_frame({"after": "the fault"})
        if fault is None:
            blob += after[: tail % len(after)]  # a frame still in flight
        else:
            bad, message, needs, drops = _STREAM_FAULTS[fault]
            trips_at, dropped_to = len(blob) + needs, len(blob) + drops
            blob += bad + after
        edges = sorted({0, len(blob), *(cut % (len(blob) + 1) for cut in cuts)})
        decoder, frames, fed = FrameDecoder(_FUZZ_LIMIT), [], 0
        for lo, hi in zip(edges, edges[1:]):
            fed = hi
            if fault is not None and fed >= trips_at:
                with pytest.raises(WireProtocolError, match=message):
                    decoder.feed(blob[lo:hi])
                assert decoder.frames_decoded == len(payloads)
                assert decoder.bytes_consumed == fed
                assert decoder.pending_bytes == fed - dropped_to
                return
            frames += decoder.feed(blob[lo:hi])
            done = bisect_right(ends, fed)
            assert frames == payloads[:done]
            assert decoder.frames_decoded == done
            assert decoder.bytes_consumed == fed
            assert decoder.pending_bytes == fed - (ends[done - 1] if done else 0)
        assert fault is None and frames == payloads

    def test_round_trip(self):
        frames = [
            {"type": "hello", "schema": "repro-wire/1"},
            {"type": "open", "tenant": "acme", "workload": "swapleak"},
            {"type": "violation", "message": "x" * 500, "gc_number": 3},
        ]
        blob = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        assert decoder.feed(blob) == frames
        decoder.finish()  # clean boundary

    def test_round_trip_one_byte_chunks(self):
        frames = [{"type": "ping", "n": i} for i in range(5)]
        blob = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        out = []
        for i in range(len(blob)):
            out.extend(decoder.feed(blob[i:i + 1]))
        assert out == frames
        assert decoder.frames_decoded == 5

    def test_truncated_frame_rejected_at_eof(self):
        blob = encode_frame({"type": "open", "tenant": "t"})
        decoder = FrameDecoder()
        assert decoder.feed(blob[:-3]) == []
        assert decoder.pending_bytes > 0
        with pytest.raises(WireProtocolError, match="truncated"):
            decoder.finish()

    def test_oversized_frame_rejected_before_buffering(self):
        # A hostile length prefix is refused from the 4-byte header alone.
        prefix = struct.pack(">I", MAX_FRAME_BYTES + 1)
        decoder = FrameDecoder()
        with pytest.raises(WireProtocolError, match="exceeds"):
            decoder.feed(prefix)

    def test_oversized_payload_rejected_on_encode(self):
        with pytest.raises(WireProtocolError, match="over the"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 10)})

    def test_trimmed_encode_keeps_the_prefix_that_fits(self):
        lines = [f"violation line {i:04d} " + "x" * 40 for i in range(100)]
        frame = {"type": "result", "outcome": "completed", "violations": lines}
        limit = len(encode_frame(frame)) // 2
        blob = encode_frame_trimmed(frame, "violations", "violations_omitted", limit)
        assert len(blob) - 4 <= limit
        (trimmed,) = FrameDecoder().feed(blob)
        kept = trimmed["violations"]
        assert 0 < len(kept) < len(lines) and kept == lines[:len(kept)]
        assert trimmed["violations_omitted"] == len(lines) - len(kept)
        assert trimmed["outcome"] == "completed" and "violations_omitted" not in frame
        # One more line would not have fit.
        with pytest.raises(WireProtocolError):
            encode_frame({**trimmed, "violations": lines[:len(kept) + 2]}, limit)

    def test_trimmed_encode_rejects_an_oversize_shell(self):
        frame = {"type": "result", "blob": "x" * 500, "violations": ["a"]}
        with pytest.raises(WireProtocolError, match="over the 100-byte limit"):
            encode_frame_trimmed(frame, "violations", "violations_omitted", 100)

    def test_zero_length_frame_rejected(self):
        with pytest.raises(WireProtocolError, match="zero-length"):
            FrameDecoder().feed(struct.pack(">I", 0))

    def test_non_object_payload_rejected(self):
        body = json.dumps([1, 2, 3]).encode()
        blob = struct.pack(">I", len(body)) + body
        with pytest.raises(WireProtocolError, match="JSON object"):
            FrameDecoder().feed(blob)

    def test_undecodable_body_rejected(self):
        body = b"\xff\xfe{not json"
        blob = struct.pack(">I", len(body)) + body
        with pytest.raises(WireProtocolError, match="undecodable"):
            FrameDecoder().feed(blob)

    def test_unknown_keys_preserved(self):
        """Forward compatibility: a newer peer's extra keys survive the
        decode untouched — the gc-event v1 -> v2 discipline on the wire."""
        frame = {"type": "open", "tenant": "t", "future_field": {"nested": 1}}
        (decoded,) = FrameDecoder().feed(encode_frame(frame))
        assert decoded["future_field"] == {"nested": 1}


# -- admission control ------------------------------------------------------------------


class TestAdmission:
    def test_budget_ledger(self):
        ctl = AdmissionController(budget_bytes=1000)
        assert ctl.try_admit(600).admitted
        decision = ctl.try_admit(600)
        assert not decision.admitted
        assert decision.reason == "budget"
        assert decision.retry_after_s > 0
        ctl.release(600)
        assert ctl.try_admit(600).admitted
        snap = ctl.snapshot()
        assert snap["admitted_total"] == 2
        assert snap["rejected_total"] == 1
        assert snap["rejected_by_reason"] == {"budget": 1}

    def test_session_cap(self):
        ctl = AdmissionController(budget_bytes=10_000, max_sessions=2)
        assert ctl.try_admit(10).admitted
        assert ctl.try_admit(10).admitted
        decision = ctl.try_admit(10)
        assert not decision.admitted and decision.reason == "sessions"

    def test_peak_tracking(self):
        ctl = AdmissionController(budget_bytes=1000)
        ctl.try_admit(100)
        ctl.try_admit(100)
        ctl.release(100)
        ctl.try_admit(50)
        assert ctl.snapshot()["peak_sessions"] == 2
        assert ctl.snapshot()["peak_committed_bytes"] == 200

    def test_unbalanced_release_is_a_bug(self):
        ctl = AdmissionController(budget_bytes=1000)
        with pytest.raises(AssertionError, match="ledger"):
            ctl.release(10)


# -- frame queue backpressure -----------------------------------------------------------


class TestFrameQueue:
    def test_sheds_gc_events_when_full(self):
        queue = FrameQueue(max_frames=2)
        assert queue.push({"type": "gc-event", "seq": 1})
        assert queue.push({"type": "gc-event", "seq": 2})
        assert not queue.push({"type": "gc-event", "seq": 3})
        assert queue.dropped_frames == 1

    def test_critical_frames_never_shed(self):
        queue = FrameQueue(max_frames=1)
        queue.push({"type": "gc-event", "seq": 1})
        assert queue.push({"type": "violation", "message": "m"})
        assert queue.push({"type": "result", "outcome": "completed"})
        assert queue.dropped_frames == 0
        kinds = [frame["type"] for frame, _t in queue.drain()]
        assert kinds == ["gc-event", "violation", "result"]
        assert len(queue) == 0

    def test_one_wakeup_per_drained_batch(self):
        wakeups = []
        queue = FrameQueue(max_frames=4, notify=lambda: wakeups.append(len(queue)))
        for seq in range(4):
            queue.push({"type": "gc-event", "seq": seq})
        assert len(wakeups) == 1
        # A shed push queues nothing, so it must not raise a wake-up.
        assert not queue.push({"type": "gc-event", "seq": 4})
        assert len(wakeups) == 1
        assert len(queue.drain()) == 4
        queue.push({"type": "gc-event", "seq": 5})
        queue.push({"type": "violation", "seq": 6})
        assert len(wakeups) == 2
        assert [frame["seq"] for frame, _t in queue.drain()] == [5, 6]
        assert queue.drain() == []
        queue.push({"type": "result", "seq": 7})
        assert len(wakeups) == 3

    def test_coalesced_wakeups_lose_none_under_threads(self):
        """Two producers against a consumer that only drains when woken:
        every accepted frame comes out once, in its producer's order, and
        the consumer is never left asleep on a non-empty queue."""
        per_producer, producers = 5_000, 2
        wake = threading.Event()
        wakeups = []
        queue = FrameQueue(max_frames=64, notify=lambda: (wakeups.append(1), wake.set()))
        accepted = [[] for _ in range(producers)]

        def produce(who: int) -> None:
            rng = random.Random(who)
            for n in range(per_producer):
                if queue.push({"type": "gc-event", "who": who, "n": n}):
                    accepted[who].append(n)
                if rng.random() < 0.02:
                    time.sleep(rng.random() * 2e-4)

        threads = [threading.Thread(target=produce, args=(who,)) for who in range(producers)]
        for thread in threads:
            thread.start()
        rng = random.Random(99)
        drained = [[] for _ in range(producers)]
        stranded = None
        while any(t.is_alive() for t in threads) or len(queue):
            if not wake.wait(timeout=0.5):
                if len(queue):  # frames queued and nobody told us: a lost wake-up
                    stranded = len(queue)
                    break
                continue
            wake.clear()
            for frame, _t in queue.drain():
                drained[frame["who"]].append(frame["n"])
            if rng.random() < 0.3:
                time.sleep(rng.random() * 3e-4)
        for thread in threads:
            thread.join()
        assert stranded is None
        assert drained == accepted
        total = sum(len(a) for a in accepted)
        assert total + queue.dropped_frames == per_producer * producers
        assert queue.pushed_frames == total
        assert len(wakeups) <= total


# -- tenant sessions --------------------------------------------------------------------


def _run_direct(workload: str, overrides=None) -> tuple[dict, list[str]]:
    """The baseline leg: same workload, same VM configuration, no service."""
    heap_bytes, runner = resolve_workload(workload, overrides=overrides)
    vm = VirtualMachine(
        heap_bytes=heap_bytes, assertions=True, telemetry=True,
        hardened=True, max_heap_bytes=heap_bytes * 2,
    )
    runner(vm)
    vm.collector.sweep_all()
    return vm.stats.snapshot()["counters"], vm.violation_lines()


class TestTenantSession:
    def test_lifecycle_and_bit_identity(self):
        overrides = {"swaps": 24}
        heap_bytes, runner = resolve_workload("swapleak", overrides=overrides)
        session = TenantSession("s1", "acme", heap_bytes)
        assert session.state == "admitted"
        frame = session.run(runner)
        assert session.state == "draining"
        assert session.outcome == "completed"
        session.evict()
        assert session.state == "evicted"

        counters, violations = _run_direct("swapleak", overrides)
        assert frame["counters"] == counters
        assert frame["violations"] == violations
        assert session.violation_frames == len(violations)

    def test_streams_violations_and_gc_events(self):
        heap_bytes, runner = resolve_workload("swapleak", overrides={"swaps": 16})
        session = TenantSession("s1", "acme", heap_bytes, queue_frames=10_000)
        session.run(runner)
        frames = [frame for frame, _t in session.queue.drain()]
        kinds = {frame["type"] for frame in frames}
        assert "violation" in kinds and "gc-event" in kinds and "result" in kinds
        violation = next(f for f in frames if f["type"] == "violation")
        assert violation["kind"] == "assert-dead"
        assert violation["session"] == "s1"

    def test_slow_consumer_sheds_only_gc_events(self):
        heap_bytes, runner = resolve_workload("swapleak", overrides={"swaps": 24})
        session = TenantSession("s1", "acme", heap_bytes, queue_frames=2)
        frame = session.run(runner)
        assert session.queue.dropped_frames > 0
        assert frame["dropped_frames"] == session.queue.dropped_frames
        # The critical result frame rode over the full queue regardless.
        kinds = [f["type"] for f, _t in session.queue.drain()]
        assert "result" in kinds

    def test_conn_drop_discards_but_completes(self):
        heap_bytes, runner = resolve_workload("swapleak", overrides={"swaps": 16})
        session = TenantSession("s1", "acme", heap_bytes)
        session.drop_connection()
        frame = session.run(runner)
        assert session.outcome == "completed"
        assert session.discarded_frames > 0
        assert len(session.queue) == 0  # nothing reached the queue
        assert frame["counters"]["collections"] > 0

    def test_kill_hook_raises_session_killed(self):
        heap_bytes, _runner = resolve_workload("swapleak")
        session = TenantSession("s1", "acme", heap_bytes)
        with pytest.raises(SessionKilled):
            session.vm.service_hooks["session-kill"]()

    def test_killed_session_is_an_outcome_not_an_escape(self):
        heap_bytes, _runner = resolve_workload("swapleak", overrides={"swaps": 16})
        session = TenantSession("s1", "acme", heap_bytes)

        def killed_runner(vm):
            raise SessionKilled("injected mid-workload")

        frame = session.run(killed_runner)
        assert session.outcome == "killed"
        assert frame["outcome"] == "killed"

    def test_register_assertion_instances(self):
        heap_bytes, runner = resolve_workload("swapleak", overrides={"swaps": 8})
        session = TenantSession("s1", "acme", heap_bytes)
        session.register_assertion(
            {"kind": "instances", "class": "SObject", "limit": 2}
        )
        session.run(runner)
        assert any(
            "instances" in line.lower() or "SObject" in line
            for line in session.vm.violation_lines()
        )

    def test_register_assertion_rejects_unknown_kind(self):
        heap_bytes, _runner = resolve_workload("swapleak")
        session = TenantSession("s1", "acme", heap_bytes)
        with pytest.raises(WireProtocolError, match="unknown wire assertion"):
            session.register_assertion({"kind": "mystery"})
        with pytest.raises(WireProtocolError, match="'class' string"):
            session.register_assertion({"kind": "instances", "class": 3, "limit": "x"})

    def test_resolve_workload_unknown_name(self):
        with pytest.raises(WireProtocolError, match="unknown workload"):
            resolve_workload("not-a-workload")


# -- the server, end to end -------------------------------------------------------------


@pytest.fixture
def service():
    with AssertionService(ServiceConfig(http_port=None)) as svc:
        yield svc


class TestServerEndToEnd:
    def test_hello_welcome(self, service):
        with ServiceClient("127.0.0.1", service.port) as client:
            welcome = client.hello()
            assert welcome["schema"] == "repro-wire/1"

    def test_session_through_server_is_bit_identical(self, service):
        overrides = {"swaps": 24}
        with ServiceClient("127.0.0.1", service.port) as client:
            client.hello()
            opened = client.open("acme", "swapleak", overrides=overrides)
            assert opened["type"] == "opened"
            streamed = []
            result = client.submit(opened["session"], collect=streamed)
            closed = client.close_session(opened["session"], collect=streamed)
        assert result["outcome"] == "completed"
        assert closed["type"] == "closed"

        counters, violations = _run_direct("swapleak", overrides)
        assert result["counters"] == counters
        assert result["violations"] == violations
        assert sum(1 for f in streamed if f["type"] == "violation") == len(violations)
        assert any(f["type"] == "gc-event" for f in streamed)

    def test_stream_is_ordered_gap_accounted_and_batched(self, service, monkeypatch):
        wakeups = []

        class CountedSession(TenantSession):
            def __init__(self, *args, notify, **kwargs):
                super().__init__(
                    *args, notify=lambda: (wakeups.append(1), notify()), **kwargs
                )

        monkeypatch.setattr(server_module, "TenantSession", CountedSession)
        overrides = {"swaps": 48, "gc_every_swaps": 1}
        with ServiceClient("127.0.0.1", service.port) as client:
            client.hello()
            opened = client.open("acme", "swapleak", overrides=overrides)
            frames = []
            result = client.submit(opened["session"], collect=frames)
            frames.append(result)
            closed = client.close_session(opened["session"], collect=frames)
            missed = client.frames_missed
        seqs = [frame["seq"] for frame in frames]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert seqs[-1] == result["seq"]
        assert missed == closed["dropped_frames"] == seqs[-1] + 1 - len(seqs)
        # One loop wake-up per drained batch, not per frame.
        assert 0 < len(wakeups) < len(frames)

    def test_oversize_result_is_trimmed_not_fatal(self, service):
        """At 96 swaps with a GC per swap the result's violation lines
        alone pass the frame limit; the writer used to die on it and the
        client hung."""
        overrides = {"swaps": 96, "gc_every_swaps": 1}
        counters, violations = _run_direct("swapleak", overrides)
        assert len(json.dumps(violations)) > MAX_FRAME_BYTES
        with ServiceClient("127.0.0.1", service.port, timeout=10.0) as client:
            client.hello()
            opened = client.open("acme", "swapleak", overrides=overrides)
            submitted = time.monotonic()
            result = client.submit(opened["session"])
            assert time.monotonic() - submitted < 10.0
            assert result["type"] == "result" and result["outcome"] == "completed"
            assert result["counters"] == counters
            kept = result["violations"]
            assert kept and kept == violations[:len(kept)]
            assert len(kept) + result["violations_omitted"] == len(violations)
            client.close_session(opened["session"])
            client.send({"type": "ping"})
            assert client.recv()["type"] == "pong"

    def test_unencodable_frames_become_errors_under_their_seq(self):
        """With a frame limit no gc-event or result fits under, every
        frame is still answered for — the stand-ins keep the numbering."""
        config = ServiceConfig(http_port=None, max_frame_bytes=400)
        with AssertionService(config) as svc:
            with ServiceClient("127.0.0.1", svc.port, timeout=10.0) as client:
                client.hello()
                opened = client.open("acme", "swapleak", overrides={"swaps": 8})
                session = opened["session"]
                client.send({"type": "submit", "session": session})
                client.send({"type": "close", "session": session})
                frames = []
                while not frames or frames[-1]["type"] != "closed":
                    frames.append(client.recv())
                assert client.frames_missed == 0
                client.send({"type": "ping"})
                assert client.recv()["type"] == "pong"
        streamed = frames[:-1]
        assert [frame["seq"] for frame in streamed] == list(range(len(streamed)))
        errors = [frame for frame in streamed if frame["type"] == "error"]
        assert errors and all(frame["session"] == session for frame in errors)
        assert any("gc-event frame not sent" in frame["error"] for frame in errors)
        assert "result frame not sent" in streamed[-1]["error"]
        assert "over the 400-byte limit" in streamed[-1]["error"]

    def test_program_submission(self, service):
        source = """
        class Node { var next: Node; }
        def main(): int {
          var n: Node = new Node();
          n = null;
          gc();
          return 0;
        }
        """
        with ServiceClient("127.0.0.1", service.port) as client:
            client.hello()
            opened = client.open("lab", "swapleak")
            result = client.submit(opened["session"], program=source)
            client.close_session(opened["session"])
        assert result["outcome"] == "completed"
        assert result["counters"]["collections"] >= 1

    def test_explicit_gc_and_stats_frames(self, service):
        with ServiceClient("127.0.0.1", service.port) as client:
            client.hello()
            opened = client.open("acme", "swapleak")
            client.send({"type": "gc", "session": opened["session"]})
            ok = client.recv_until("ok")
            assert ok["re"] == "gc"
            stats = client.stats()
            assert stats["admission"]["active_sessions"] == 1
            client.close_session(opened["session"])

    def test_unknown_frame_type_gets_error_not_disconnect(self, service):
        with ServiceClient("127.0.0.1", service.port) as client:
            error = (client.send({"type": "frobnicate"}), client.recv())[1]
            assert error["type"] == "error"
            # Still alive afterwards:
            client.send({"type": "ping"})
            assert client.recv()["type"] == "pong"

    def test_double_submit_rejected(self, service):
        with ServiceClient("127.0.0.1", service.port) as client:
            client.hello()
            opened = client.open("acme", "swapleak", overrides={"swaps": 8})
            client.submit(opened["session"])
            second = client.submit(opened["session"])
            assert second["type"] == "error"
            assert "draining" in second["error"]

    def test_admission_rejection_has_retry_after(self):
        config = ServiceConfig(http_port=None, heap_budget_bytes=1)
        with AssertionService(config) as svc:
            with ServiceClient("127.0.0.1", svc.port) as client:
                client.hello()
                rejected = client.open("acme", "swapleak")
                assert rejected["type"] == "rejected"
                assert rejected["reason"] == "budget"
                assert rejected["retry_after_s"] > 0

    def test_abandoned_connection_releases_budget(self, service):
        with ServiceClient("127.0.0.1", service.port) as client:
            client.hello()
            client.open("acme", "swapleak")
            # Vanish without closing the session.
        deadline = __import__("time").monotonic() + 5.0
        while __import__("time").monotonic() < deadline:
            if service.admission.snapshot()["committed_bytes"] == 0:
                break
            __import__("time").sleep(0.02)
        snap = service.admission.snapshot()
        assert snap["committed_bytes"] == 0
        assert snap["active_sessions"] == 0


# -- the admission ledger under malformed and abandoned opens ---------------------------

_SWAPLEAK_COMMIT = resolve_workload("swapleak")[0] * HARDENED_GROWTH_CEILING
_LEDGER_BUDGET = 3 * _SWAPLEAK_COMMIT
_OPEN_STEPS = st.sampled_from([
    "open", "bad-collector", "overrides-not-an-object", "knob-not-an-integer",
    "over-budget", "close", "disconnect",
])


class TestAdmissionLedgerNeverLeaks:
    @settings(max_examples=25, deadline=None)
    @example(steps=["bad-collector", "open", "close"])
    @example(steps=["open", "open", "open", "bad-collector"])
    @given(steps=st.lists(_OPEN_STEPS, min_size=1, max_size=10))
    def test_committed_bytes_are_the_live_sessions(self, steps):
        """After every step the ledger holds exactly what the sessions still
        open were admitted with; a malformed ``open`` is a typed error on a
        connection that stays usable; at the end nothing is committed."""
        config = ServiceConfig(http_port=None, heap_budget_bytes=_LEDGER_BUDGET)
        with AssertionService(config) as svc:
            client = ServiceClient("127.0.0.1", svc.port, timeout=10.0)
            live: dict[str, int] = {}       # session -> committed bytes, this connection
            malformed = {
                "bad-collector": {"collector": "bogus"},
                "overrides-not-an-object": {"overrides": [1]},
                "knob-not-an-integer": {"overrides": {"swaps": "abc"}},
            }

            def settled() -> dict:
                # Only a disconnect is evicted behind the client's back.
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    snap = svc.admission.snapshot()
                    if snap["committed_bytes"] == sum(live.values()):
                        break
                    time.sleep(0.005)
                return snap

            try:
                for step in steps + ["disconnect"]:
                    if step == "open":
                        reply = client.open("acme", "swapleak")
                        if sum(live.values()) + _SWAPLEAK_COMMIT <= _LEDGER_BUDGET:
                            assert reply["type"] == "opened", reply
                            live[reply["session"]] = reply["committed_bytes"]
                        else:
                            assert reply["type"] == "rejected", reply
                    elif step in malformed:
                        client.send({"type": "open", "workload": "swapleak", **malformed[step]})
                        reply = client.recv_until("opened", "rejected", "error")
                        assert reply["type"] == "error", reply
                    elif step == "over-budget":
                        assert client.open("acme", "hsqldb")["type"] == "rejected"
                    elif step == "close" and live:
                        session = next(iter(live))
                        assert client.close_session(session)["type"] == "closed"
                        del live[session]
                    elif step == "disconnect":
                        client.close()
                        live.clear()
                        client = ServiceClient("127.0.0.1", svc.port, timeout=10.0)
                    snap = settled()
                    assert snap["committed_bytes"] == sum(live.values()), (step, snap)
                    assert snap["active_sessions"] == len(live), (step, snap)
                    assert 0 <= snap["committed_bytes"] <= snap["budget_bytes"]
                assert snap["committed_bytes"] == 0
                assert snap["released_total"] == snap["admitted_total"]
            finally:
                client.close()


# -- service-level metrics and SLOs -----------------------------------------------------


class TestServing:
    def test_metrics_endpoint_has_tenant_families(self):
        with AssertionService(ServiceConfig()) as svc:
            with ServiceClient("127.0.0.1", svc.port) as client:
                client.hello()
                opened = client.open("acme", "swapleak", overrides={"swaps": 16})
                client.submit(opened["session"])
                client.close_session(opened["session"])
            import urllib.request

            body = urllib.request.urlopen(f"{svc.http.url}/metrics").read().decode()
            health = json.loads(
                urllib.request.urlopen(f"{svc.http.url}/health").read().decode()
            )
        from repro.telemetry.sinks import validate_exposition

        assert validate_exposition(body) == []
        assert 'tenant="acme"' in body
        assert "repro_service_sessions_active" in body
        assert "repro_service_admission_latency_seconds_count" in body
        assert "repro_mmu_ratio" in body  # shared hub families ride along
        assert health["healthy"] is True

    def test_loadgen_against_a_running_service_then_the_scrape_conforms(self):
        """What CI's serve-smoke asked of a booted server, in process: the
        quick load mix completes against it with violations streamed, and
        afterwards /metrics is a valid tenant-labelled exposition and
        /health a well-formed document — at either status: the quick mix
        saturates the default budget on purpose, so the delivery-lag SLO
        may be firing (503)."""
        import urllib.error
        import urllib.request

        from repro.telemetry import validate_exposition

        with AssertionService(ServiceConfig()) as svc:
            report = run_loadgen(LoadgenConfig(quick=True, port=svc.port, seed=0))
            loaded = json.loads(json.dumps(report.as_dict()))  # as --json-out writes it
            body = urllib.request.urlopen(f"{svc.http.url}/metrics").read().decode()
            try:
                health = urllib.request.urlopen(f"{svc.http.url}/health").read()
            except urllib.error.HTTPError as degraded:
                assert degraded.code == 503
                health = degraded.read()
        assert loaded["completed"] >= 1 and loaded["errors"] == 0, loaded
        assert loaded["violation_frames"] >= 1, "no violation frames streamed"
        assert validate_exposition(body) == []
        assert 'tenant="' in body, "no tenant-labelled families in /metrics"
        assert "repro_service_sessions_active" in body
        assert "repro_service_admission_total" in body
        health = json.loads(health)
        assert isinstance(health["healthy"], bool), health
        assert health["budget_bytes"] > 0, health

    def test_slo_document_has_one_shape_on_both_servers(self):
        """One builder (``SloSet.status``): the service's ``/slo``, the
        monitor's, and a monitor with nothing armed serve the same keys."""
        import urllib.request

        from repro.monitor import MonitorHub, MonitorServer, default_slos

        with AssertionService(ServiceConfig()) as svc, \
                MonitorServer(MonitorHub(default_slos())) as armed, \
                MonitorServer(MonitorHub()) as unarmed:
            served, monitored, empty = (
                json.loads(urllib.request.urlopen(f"{url}/slo").read().decode())
                for url in (svc.http.url, armed.url, unarmed.url)
            )
        assert served["schema"] == monitored["schema"] == empty["schema"] == "repro-slo/1"
        assert set(served) == set(monitored) == set(empty)
        row_shapes = {
            frozenset(row) for row in served["objectives"] + monitored["objectives"]
        }
        assert len(served["objectives"]) == 2 and len(monitored["objectives"]) == 5
        assert len(row_shapes) == 1, row_shapes
        assert empty["objectives"] == [] and empty["healthy"] is True

    def test_admission_latency_slo_fires_on_sustained_breach(self):
        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        for i in range(300):
            # Mono span stamps: received at t, decided 0.5s later.
            metrics.observe_admission_latency(100.0, 100.5, wall_time=float(i))
        status = metrics.slo_status()
        assert status["healthy"] is False
        assert "admission-latency" in status["firing"]
        assert metrics.alerts  # the transition was recorded

    def test_healthy_means_what_the_monitor_means_by_it(self):
        """``SloSet.healthy``: nothing firing *and* no budget exhausted.  An
        alert that has resolved while its bad observations are still in the
        long window is not healthy yet — on the monitor or here."""
        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        for i in range(100):
            metrics.observe_admission_latency(100.0, 100.5, wall_time=float(i))
        for i in range(8):  # clear_good: the alert resolves
            metrics.observe_admission_latency(100.0, 100.001, wall_time=100.0 + i)
        status = metrics.slo_status()
        assert [alert.state for alert in metrics.alerts] == ["firing", "resolved"]
        assert status["firing"] == []
        assert status["exhausted"] == ["admission-latency"]
        assert status["healthy"] is False

    @pytest.mark.parametrize("peer_alive", [True, False], ids=["delivered", "write-raises"])
    def test_only_a_batch_that_was_written_counts_as_delivered(self, peer_alive):
        """A write that raised reached nobody: each violation frame of the
        batch is a bad observation of the delivery objective and no sample
        of the lag histogram.  (It used to be scored as delivered on time,
        so a dead peer improved the SLO.)  Either way the batch is scored
        under one metrics lock."""
        import asyncio

        class Peer:
            written = b""

            def write(self, data):
                if not peer_alive:
                    raise ConnectionResetError("peer gone")
                Peer.written += data

            async def drain(self):
                pass

        svc = AssertionService(ServiceConfig(http_port=None))  # never started
        svc.executor.shutdown()
        session = TenantSession("s1", "acme", 64 << 10)
        for seq in range(5):
            session.queue.push({"type": "violation", "session": "s1", "seq": seq})
        session.queue.push({"type": "gc-event", "session": "s1", "seq": 5})
        locked = []
        lock = svc.metrics._lock

        class CountingLock:
            def __enter__(self):
                locked.append(1)
                return lock.__enter__()

            def __exit__(self, *exc):
                return lock.__exit__(*exc)

        svc.metrics._lock = CountingLock()

        async def flush():
            await svc._flush(server_module._Connection(Peer()), session)

        asyncio.run(flush())
        assert len(locked) == 1
        delivery = next(
            row for row in svc.metrics.slo_status()["objectives"]
            if row["objective"] == "violation-delivery-lag"
        )
        assert delivery["observations"] == 5
        assert delivery["bad_observations"] == (0 if peer_alive else 5)
        assert svc.metrics.delivery_lag.count == (5 if peer_alive else 0)
        assert len(session.queue) == 0
        assert bool(Peer.written) == peer_alive

    def test_delivery_lag_slo_stays_healthy_under_fast_delivery(self):
        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics(delivery_lag_slo_s=0.200)
        for i in range(300):
            metrics.observe_delivery_lags((100.0,), 100.001, wall_time=float(i))
        assert metrics.slo_status()["healthy"] is True


# -- tenant isolation (the chaos contract) ----------------------------------------------


class TestTenantIsolation:
    def test_killed_tenant_perturbs_nobody(self):
        from repro.faults.chaos import run_tenant_isolation_cell

        cell = run_tenant_isolation_cell(seed=0)
        assert cell.ok, cell.render()
        assert cell.kinds_applied == {"conn-drop", "session-kill"}


# -- load generator ---------------------------------------------------------------------


class TestLoadgen:
    def test_quick_flow_run(self):
        report = run_loadgen(LoadgenConfig(quick=True, sessions=6, seed=5))
        assert report.ok, report.render()
        assert report.completed == 6
        assert report.errors == 0
        assert report.violation_frames > 0  # swapleak guarantees these
        assert report.open_latency.count == 6

    def test_ramp_drives_admission_to_the_limit(self):
        """The acceptance shape in miniature: more sessions than budget,
        peak pinned at capacity, overflow rejected — never crashed."""
        heap_bytes, _runner = resolve_workload("swapleak")
        capacity = 4
        report = run_loadgen(LoadgenConfig(
            sessions=capacity + 3,
            mode="ramp",
            seed=1,
            heap_budget_bytes=capacity * heap_bytes * 2,
            mix=(("swapleak", 1),),
        ))
        assert report.errors == 0
        assert report.peak_concurrent == capacity
        assert report.rejected == 3
        assert report.completed == capacity

    def test_hundred_concurrent_sessions(self):
        """Acceptance criteria: >=100 concurrent sessions under the heap
        budget, with admission rejections (not crashes) past the budget."""
        heap_bytes, _runner = resolve_workload("xalan")
        capacity = 100
        report = run_loadgen(LoadgenConfig(
            sessions=capacity + 10,
            mode="ramp",
            seed=0,
            heap_budget_bytes=capacity * heap_bytes * 2,
            mix=(("xalan", 1),),
        ))
        assert report.errors == 0
        assert report.peak_concurrent >= 100
        assert report.rejected == 10
        assert report.completed == capacity
