"""The reporting pipeline against the one it replaced.

``tests/reference_reporting.py`` is the parent's pipeline: a ``PathEntry``
per path step per violation, Figure-1 text rendered when recorded, the
session posing as a reaction handler, burn rates re-summed per observation.
Here the same programs run through both and must say the same thing: the
same report text, the same :class:`Violation` down to every path step's
(type, address, hash) and the reaction, the same session frames in the same
order under the same ``seq``, the same alerts — and the prefix encoder the
same bytes as ``encode_frame``.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reactions import Reaction
from repro.core.reporting import AssertionKind
from repro.errors import AssertionViolationHalt
from repro.monitor.slo import BurnRateRule, SloObjective
from repro.runtime.vm import VirtualMachine
from repro.service.session import SHEDDABLE_FRAMES, FrameQueue, TenantSession, resolve_workload
from repro.service.wire import SequenceTracker, ViolationFrameEncoder, encode_frame
from repro.workloads.containers import Vector
from repro.workloads.db import ENTRY, DbConfig, run_db
from repro.workloads.jbb import JbbConfig, run_pseudojbb
from repro.workloads.swapleak import SwapLeakConfig, run_swapleak

from tests.reference_reporting import (
    ReferenceBurnRateRule,
    ReferenceSession,
    ReferenceViolationLog,
    reference_reporting,
)

# -- programs that report ------------------------------------------------------------------

JBB_SMALL = dict(
    warehouses=1, districts_per_warehouse=2, customers_per_district=8,
    iterations=2, transactions_per_iteration=120, gc_per_iteration=True,
)


def _swapleak(vm):
    run_swapleak(vm, SwapLeakConfig(array_size=16, swaps=24, gc_every_swaps=4))


def _db_with_planted_verdicts(vm):
    """A correct db run, then assertions with a known answer (the recipe of
    the benchmark's ``asserted_db`` check): rooted dead objects and ownees
    held outside their owner must be reported, unrooted dead ones not."""
    run_db(vm, DbConfig(
        initial_entries=60, operations=300, key_space=600, sort_every=0, gc_every=100,
        assert_ownedby_entries=True, assert_dead_on_delete=True, seed=5,
    ))
    database = vm.handle(vm.statics.get_ref("spec.db.database"))
    keep = Vector.new(vm, capacity=16)
    vm.statics.set_ref("test.planted", keep.handle.address)
    with vm.scope("test.plant"):
        for index in range(6):
            entry = vm.new(ENTRY, id=-1 - index)
            keep.append(entry)
            vm.assertions.assert_dead(entry, site="test.rooted")
        for index in range(4):
            vm.assertions.assert_dead(vm.new(ENTRY, id=-100 - index), site="test.unrooted")
        for index in range(5):
            entry = vm.new(ENTRY, id=-200 - index)
            keep.append(entry)
            vm.assertions.assert_ownedby(database, entry, site="test.outside")
    vm.gc("planted verdicts")


def _jbb_last_order_leak(vm):
    run_pseudojbb(vm, JbbConfig(**JBB_SMALL, leak_last_order=True, assert_dead_orders=True))


def _jbb_order_table_leak(vm):
    run_pseudojbb(vm, JbbConfig(**JBB_SMALL, leak_order_table=True, assert_dead_orders=True))


PROGRAMS = {
    "swapleak": (_swapleak, 256 << 10),
    "db-planted": (_db_with_planted_verdicts, 1 << 20),
    "jbb-last-order": (_jbb_last_order_leak, 8 << 20),
    "jbb-order-table": (_jbb_order_table_leak, 8 << 20),
}
COLLECTORS = ("marksweep", "semispace", "generational")


def _arm(vm, reaction: Reaction) -> None:
    if reaction is Reaction.FORCE:
        vm.engine.policy.set_reaction(AssertionKind.DEAD, Reaction.FORCE)
    else:
        vm.engine.policy.set_default(reaction)


def _violation_fields(violation) -> tuple:
    path = violation.path
    return (
        violation.kind, violation.message, violation.type_name, violation.address,
        violation.alloc_seq, violation.alloc_site, violation.site, violation.gc_number,
        violation.reaction, violation.details,
        None if path is None else (
            path.root_description,
            [(e.type_name, e.address, e.identity_hash) for e in path.entries],
        ),
    )


def _report(program, heap_bytes, collector, reaction, reference: bool) -> dict:
    with reference_reporting() if reference else nullcontext():
        vm = VirtualMachine(heap_bytes=heap_bytes, collector=collector, telemetry=True)
        assert isinstance(vm.engine.log, ReferenceViolationLog) == reference
        _arm(vm, reaction)
        eager: list[str] = []
        vm.engine.log.sinks.append(lambda violation: eager.append(violation.render()))
        halted = None
        try:
            program(vm)
        except AssertionViolationHalt as halt:
            halted = _violation_fields(halt.violation)
        return {
            "lines": vm.violation_lines(),
            "rendered_when_recorded": eager,
            "violations": [_violation_fields(v) for v in vm.engine.log],
            "halted": halted,
            "by_kind": dict(vm.telemetry.violations_by_kind),
            "counters": vm.stats.snapshot()["counters"],
        }


@pytest.mark.parametrize("reaction", [Reaction.LOG, Reaction.FORCE, Reaction.HALT],
                         ids=lambda reaction: reaction.value)
@pytest.mark.parametrize("collector", COLLECTORS)
@pytest.mark.parametrize("name", PROGRAMS)
def test_reports_match_the_reference_pipeline(name, collector, reaction):
    program, heap_bytes = PROGRAMS[name]
    new = _report(program, heap_bytes, collector, reaction, reference=False)
    old = _report(program, heap_bytes, collector, reaction, reference=True)
    assert new["violations"], "the program must report something"
    assert new == old
    # Rendered on read is rendered-when-recorded: nothing a report shows
    # moved, was reclaimed or was renumbered in between.
    assert new["lines"] == new["rendered_when_recorded"]
    assert old["lines"] == old["rendered_when_recorded"]
    if reaction is Reaction.HALT:
        assert new["halted"] in new["violations"] and new["halted"][8] == "halt"


def test_paths_of_one_collection_share_their_steps():
    vm = VirtualMachine(heap_bytes=256 << 10)
    run_swapleak(vm, SwapLeakConfig(array_size=16, swaps=12, gc_every_swaps=0))
    violations = list(vm.engine.log)
    assert len({v.gc_number for v in violations}) == 1 and len(violations) > 4
    entries = [entry for v in violations for entry in v.path.entries]
    by_address = {}
    for entry in entries:
        assert by_address.setdefault(entry.address, entry) is entry
    # SArray -> SObject[] lead every path: two entries, not two per violation.
    for step in (0, 1):
        assert len({id(v.path.entries[step]) for v in violations}) == 1
    assert len(by_address) <= len(entries) - 2 * (len(violations) - 1)


# -- the session's frames -----------------------------------------------------------------


def _stable(value):
    """A frame without its stamps: timings are floats, everything else stays."""
    if isinstance(value, dict):
        return {k: _stable(v) for k, v in value.items() if not isinstance(v, float)}
    if isinstance(value, list):
        return [_stable(v) for v in value]
    return value


def _session_frames(session_class, overrides, queue_frames, drop_at=None) -> tuple:
    heap_bytes, runner = resolve_workload("swapleak", overrides=overrides)
    with reference_reporting() if session_class is ReferenceSession else nullcontext():
        session = session_class("s1", "acme", heap_bytes, queue_frames=queue_frames)
        if drop_at is not None:
            session.vm.gc_observers.append(
                lambda vm, freed: vm.stats.collections == drop_at and session.drop_connection()
            )
        result = session.run(runner)
    frames = [_stable(frame) for frame, _stamp in session.queue.drain()]
    return frames, _stable(result), (
        session.out_seq, session.violation_frames, session.gc_event_frames,
        session.discarded_frames, session.queue.dropped_frames, session.queue.pushed_frames,
    )


@pytest.mark.parametrize("queue_frames, drop_at", [(10_000, None), (8, None), (10_000, 3)],
                         ids=["roomy", "shedding", "connection-dropped"])
def test_session_frames_match_the_handler_based_session(queue_frames, drop_at):
    overrides = {"swaps": 24, "gc_every_swaps": 2}
    new = _session_frames(TenantSession, overrides, queue_frames, drop_at)
    old = _session_frames(ReferenceSession, overrides, queue_frames, drop_at)
    assert new == old
    frames, result, (out_seq, violations, gc_events, discarded, dropped, pushed) = new
    assert violations and gc_events
    assert out_seq == pushed + dropped + discarded
    if queue_frames > 1000 and drop_at is None:
        # Nothing shed: the k-th gc-event closes collection k, and the
        # violations of collection k are the frames just before it.
        collection, since = 1, 0
        for frame in frames:
            if frame["type"] == "violation":
                assert frame["gc_number"] == collection
                since += 1
            elif frame["type"] == "gc-event":
                assert frame["violations"] == since
                collection, since = collection + 1, 0
        assert frames[-1]["type"] == "result" and since == 0


def test_a_queue_filled_by_violations_sheds_the_next_gc_event_only():
    """The measured mix: 97 % of ``served_stream``'s frames are violations.
    The bound is what sheds a ``gc-event`` behind them — never a violation,
    never the result — and every shed frame is a gap the client counts."""
    queue = FrameQueue(max_frames=4)
    tracker = SequenceTracker()
    seq = 0

    def send(ftype):
        nonlocal seq
        frame = {"type": ftype, "session": "s1", "seq": seq}
        seq += 1
        return queue.push(frame)

    assert all(send("violation") for _ in range(9))   # over the bound: all enqueue
    assert len(queue) == 9
    assert send("gc-event") is False                  # full: the sheddable kind goes
    assert send("violation") is True
    assert send("gc-event") is False
    assert send("result") is True
    delivered = [frame for frame, _stamp in queue.drain()]
    assert [f["type"] for f in delivered] == ["violation"] * 10 + ["result"]
    assert not any(f["type"] in SHEDDABLE_FRAMES for f in delivered)
    assert send("gc-event") is True                   # drained: room again
    delivered += [frame for frame, _stamp in queue.drain()]
    for frame in delivered:
        tracker.observe(frame)
    assert tracker.total_gaps == queue.dropped_frames == 2
    assert queue.pushed_frames + queue.dropped_frames == seq


# -- burn-rate rule -----------------------------------------------------------------------


@pytest.mark.parametrize("budget, long_window, short_window", [
    (0.01, 200, 40), (0.05, 60, 12), (0.0, 60, 12), (0.2, 7, 3),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_running_counts_give_the_resummed_alerts(budget, long_window, short_window, seed):
    rng = random.Random(seed)
    rules = [
        cls(SloObjective("lag", "lag under the limit", budget=budget),
            long_window=long_window, short_window=short_window, factor=3.0, clear_good=5)
        for cls in (BurnRateRule, ReferenceBurnRateRule)
    ]
    alerts: tuple[list, list] = ([], [])
    bad_share = 0.02
    for seq in range(3000):
        if seq % 400 == 0:  # incidents come and go
            bad_share = rng.choice([0.0, 0.02, 0.3, 0.9])
        good = rng.random() >= bad_share
        for rule, out in zip(rules, alerts):
            alert = rule.observe(good, seq, float(seq), exemplar=f"{seq:032x}")
            if alert is not None:
                out.append(alert)
        assert rules[0].burn_rates() == rules[1].burn_rates()
        assert rules[0].budget_remaining() == rules[1].budget_remaining()
    assert alerts[0] == alerts[1]
    assert alerts[0] or budget >= 0.2, "the stream must cross the threshold"


# -- the prefix encoder ------------------------------------------------------------------

_text = st.text(max_size=40)  # quotes, control characters, non-ASCII, surrogates excluded
_maybe_text = st.one_of(st.none(), _text)


@settings(max_examples=300, deadline=None)
@given(session=_text, kind=_text, message=_text, cls=_maybe_text, site=_maybe_text,
       numbers=st.lists(st.tuples(st.integers(), st.integers(min_value=0)), min_size=1, max_size=4))
def test_prefix_encoder_is_byte_identical_to_encode_frame(session, kind, message, cls, site, numbers):
    encoder = ViolationFrameEncoder()
    for gc_number, seq in numbers:  # the second round is a cache hit
        frame = {"type": "violation", "session": session, "kind": kind, "message": message,
                 "class": cls, "site": site, "gc_number": gc_number, "seq": seq}
        assert encoder.encode(frame) == encode_frame(frame)


def test_prefix_encoder_leaves_every_other_layout_to_the_general_encoder():
    encoder = ViolationFrameEncoder()
    frame = {"type": "violation", "session": "s1", "kind": "assert-dead", "message": "m",
             "class": "C", "site": None, "gc_number": 3, "seq": 7}
    assert encoder.encode(frame) == encode_frame(frame)
    assert encoder.encode({**frame, "trace_id": "ab" * 16}) is None      # an extra key
    assert encoder.encode({**frame, "type": "gc-event"}) is None
    assert encoder.encode({k: frame[k] for k in reversed(frame)}) is None  # another order
    assert encoder.encode({**frame, "seq": True}) is None                # "true", not "1"
    assert encoder.encode({**frame, "gc_number": 3.0}) is None
    assert encoder.encode({**frame, "site": ["unhashable"]}) is None
    # Values that compare equal to cached ones but encode differently.
    numeric = {**frame, "class": 1, "site": None}
    assert encoder.encode(numeric) is None
    assert encoder.encode({**numeric, "class": True}) is None
    # Over the limit: the general encoder owns the error.
    assert encoder.encode(frame, max_frame_bytes=16) is None


# -- the names the benchmark binds ---------------------------------------------------------


def test_benchmark_recorder_installs_against_this_source():
    """``benchmarks/e2e/spans.py`` wraps the program's layers *by name*; a
    rename would only show in the pipeline's traced run.  Install it here
    (read-only use of the benchmark), stream one session through the
    wrappers, and uninstall."""
    from benchmarks.e2e.spans import Recorder

    from repro.core.reactions import ReactionPolicy
    from repro.core.reporting import ViolationLog
    from repro.service import client as client_module
    from repro.service import server as server_module
    from repro.service.wire import FrameDecoder

    bound = [
        (ViolationLog, "record"), (ReactionPolicy, "reaction_for"), (FrameQueue, "push"),
        (FrameDecoder, "feed"), (server_module, "encode_frame"), (client_module, "encode_frame"),
    ]
    originals = [getattr(owner, name) for owner, name in bound]
    assert server_module.encode_frame is client_module.encode_frame is encode_frame
    recorder = Recorder()
    try:
        recorder.install()  # an AttributeError here names what was renamed
        assert all(getattr(owner, name) is not original
                   for (owner, name), original in zip(bound, originals))
        heap_bytes, runner = resolve_workload("swapleak", overrides={"swaps": 8})
        session = TenantSession("s1", "acme", heap_bytes, queue_frames=10_000)
        session.run(runner)
        ViolationLog().record(next(iter(session.vm.engine.log)))
        decoder = FrameDecoder()
        frames = [frame for frame, _stamp in session.queue.drain()]
        decoded = decoder.feed(b"".join(server_module.encode_frame(f) for f in frames))
    finally:
        recorder.uninstall()
    assert [getattr(owner, name) for owner, name in bound] == originals
    assert decoded == frames
    tally = recorder.tally()
    assert tally["service.session.queue_push"][0] == session.queue.pushed_frames == len(frames)
    # One reaction_for per violation, and the one-element record above.
    assert tally["core.reporting.report"][0] == session.violation_frames + 1
    assert tally["service.wire.encode"][0] == len(frames)
    assert tally["service.wire.decode"][0] == 1
