"""The traced run's span recorder.

``Recorder.install`` puts wrappers — written here, not in the program —
around the calls into each layer: class attributes for the collector, the
tracer, the sweeper, the engine, the VM and the session classes, module
attributes for ``encode_frame`` as ``server`` and ``client`` bound it.  A span
is ``(id, name, start, end, parent, request)`` on ``perf_counter``; the
request is the leg name on a direct workload and the tenant on a served one,
and a span with none of its own inherits its parent's.  Calls too hot to keep
one tuple each (``allocate``, ``vm.new``, frame pushes, the codec) are only
tallied — count, total and self time — but still nest, so their callers' self
time stays right.  Everything stays in memory until the run ends.

The program's own ``SpanTracer`` and ``DistributedTracer`` stay off.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

perf = time.perf_counter

# Frame fields.
_NAME, _CHILD, _ID, _REQ = 0, 1, 2, 3

ROOT = "unit"


class _ThreadState:
    __slots__ = ("stack", "spans", "tally", "counts", "pushed_at", "received_at")

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        #: (request, name) -> [count, total seconds, self seconds]
        self.tally: dict[tuple, list] = {}
        self.counts: dict[str, float] = defaultdict(float)
        #: (session id, seq) -> perf_counter at FrameQueue.push / client decode
        self.pushed_at: dict[tuple, float] = {}
        self.received_at: dict[tuple, float] = {}


def parse_delay(text: str) -> tuple[str, float]:
    """``gc.tracer.drain=2ms`` -> ``("gc.tracer.drain", 0.002)``."""
    name, _, amount = text.partition("=")
    for suffix, scale in (("ms", 1e-3), ("us", 1e-6), ("s", 1.0)):
        if amount.endswith(suffix):
            return name, float(amount[: -len(suffix)]) * scale
    raise ValueError(f"delay {text!r} needs a unit: name=2ms, name=500us or name=1s")


class Recorder:
    """Thread-aware span recorder; one per traced run."""

    def __init__(self, inject: dict[str, float] | None = None):
        #: layer name -> seconds slept inside every span of that name
        #: (``selftest`` uses it to prove the budget localises cost).
        self.inject = dict(inject or {})
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._states.append(state)
        return state

    # -- recording ---------------------------------------------------------------------

    def begin(self, name: str, request=None) -> tuple:
        """Open a span by hand (unit roots); pair with :meth:`end`."""
        state = self._state()
        parent = state.stack[-1] if state.stack else None
        if request is None and parent is not None:
            request = parent[_REQ]
        frame = [name, 0.0, next(self._ids), request]
        state.stack.append(frame)
        return state, frame, parent, perf()

    def end(self, token: tuple, keep: bool = True) -> float:
        state, frame, parent, start = token
        end = perf()
        state.stack.pop()
        duration = end - start
        if parent is not None:
            parent[_CHILD] += duration
        key = (frame[_REQ], frame[_NAME])
        row = state.tally.get(key)
        if row is None:
            state.tally[key] = [1, duration, duration - frame[_CHILD]]
        else:
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame[_CHILD]
        if keep:
            state.spans.append(
                (frame[_ID], frame[_NAME], start, end,
                 parent[_ID] if parent is not None else 0, frame[_REQ])
            )
        return end

    def wrap(self, name: str, fn, keep: bool = False, request=None, after=None):
        """``fn`` inside a span called ``name``.

        ``request(*args, **kwargs)`` names the request when the call starts one;
        ``after(state, args, result, end)`` records counts at the boundary.
        """
        delay = self.inject.get(name, 0.0)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            token = begin(name, request(*args, **kwargs) if request is not None else None)
            try:
                if delay:
                    time.sleep(delay)
                result = fn(*args, **kwargs)
            finally:
                ended = end(token, keep)
            if after is not None:
                after(token[0], args, result, ended)
            return result

        return traced

    # -- installing ----------------------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, **options) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **options))

    def install(self) -> None:
        from repro.core.api import GcAssertions
        from repro.core.engine import AssertionEngine
        from repro.core.reactions import ReactionPolicy
        from repro.core.reporting import ViolationLog
        from repro.gc.lazysweep import ChunkSweeper
        from repro.gc.marksweep import MarkSweepCollector
        from repro.gc.tracer import Tracer
        from repro.runtime.vm import VirtualMachine
        from repro.service import client as client_module
        from repro.service import server as server_module
        from repro.service.admission import AdmissionController
        from repro.service.session import FrameQueue, TenantSession
        from repro.service.wire import FrameDecoder

        patch = self._patch
        patch(MarkSweepCollector, "collect", "gc.marksweep.collect", keep=True)
        patch(MarkSweepCollector, "allocate", "gc.marksweep.allocate")
        patch(Tracer, "scan_roots", "gc.tracer.scan_roots", keep=True)
        patch(Tracer, "drain", "gc.tracer.drain", keep=True)
        patch(ChunkSweeper, "drain_eager", "gc.lazysweep.sweep", keep=True)
        patch(AssertionEngine, "pre_mark", "core.ownership.pre_mark", keep=True)
        patch(AssertionEngine, "post_mark", "core.engine.post_mark", keep=True)
        patch(AssertionEngine, "gc_end", "core.engine.gc_end", keep=True)
        patch(ViolationLog, "record", "core.reporting.report")
        patch(ReactionPolicy, "reaction_for", "core.reporting.report")
        patch(GcAssertions, "assert_dead", "core.api.assert_dead")
        patch(GcAssertions, "assert_ownedby", "core.api.assert_ownedby")
        patch(VirtualMachine, "__init__", "runtime.vm.construct")
        patch(VirtualMachine, "new", "runtime.vm.new")
        patch(VirtualMachine, "new_array", "runtime.vm.new")
        patch(TenantSession, "__init__", "service.session.construct", keep=True,
              request=lambda session, *args, **kwargs: kwargs.get("tenant") or args[1])
        patch(TenantSession, "run", "service.session.run", keep=True,
              request=lambda session, runner: session.tenant)
        patch(FrameQueue, "push", "service.session.queue_push", after=_note_push)
        patch(FrameDecoder, "feed", "service.wire.decode", after=_note_decode)
        patch(AdmissionController, "try_admit", "service.admission.try_admit")
        patch(AdmissionController, "release", "service.admission.release")
        patch(server_module, "encode_frame", "service.wire.encode")
        patch(client_module, "encode_frame", "service.wire.encode")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------------------

    def spans(self) -> list[tuple]:
        return sorted(itertools.chain.from_iterable(s.spans for s in self._states),
                      key=lambda span: span[2])

    def tally(self, requests=None) -> dict[str, list]:
        """name -> [count, total, self] summed over threads and over
        ``requests`` (a predicate on the request; None takes all)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for state in self._states:
            for (request, name), row in list(state.tally.items()):
                if requests is None or requests(request):
                    acc = out[name]
                    acc[0] += row[0]
                    acc[1] += row[1]
                    acc[2] += row[2]
        return out

    def counts(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for state in self._states:
            for name, value in list(state.counts.items()):
                out[name] += value
        return out

    def session_spans(self) -> dict[str, tuple]:
        """tenant -> ((build start, end), (run start, end)) for every session
        that got as far as running."""
        found: dict[str, dict] = defaultdict(dict)
        for _id, name, start, end, _parent, request in self.spans():
            if name in ("service.session.construct", "service.session.run"):
                found[request][name] = (start, end)
        return {
            tenant: (both["service.session.construct"], both["service.session.run"])
            for tenant, both in found.items() if len(both) == 2
        }

    def delivery_lags(self) -> list[float]:
        """FrameQueue.push to the client's decode of the same ``seq``."""
        pushed: dict[tuple, float] = {}
        for state in self._states:
            pushed.update(state.pushed_at)
        lags = []
        for state in self._states:
            for key, received in state.received_at.items():
                start = pushed.get(key)
                if start is not None:
                    lags.append(received - start)
        return lags


def _note_push(state: _ThreadState, args, result, end: float) -> None:
    frame = args[1]
    if result:  # shed frames never reach a client
        state.pushed_at[(frame.get("session"), frame.get("seq"))] = end


def _note_decode(state: _ThreadState, args, result, end: float) -> None:
    state.counts["decode.frames"] += len(result)
    state.counts["decode.bytes"] += len(args[1])
    for frame in result:
        seq = frame.get("seq")
        if seq is not None:  # only session frames are numbered: this is a client
            state.received_at[(frame.get("session"), seq)] = end


# -- the budget table ---------------------------------------------------------------------


def direct_budget(recorder: Recorder, units: list) -> dict:
    """Self time per layer under the measured leg's unit spans.

    The root's own self time — driver loops, handle loads and stores,
    containers: mutator code too hot to wrap — is the ``unattributed`` row.
    """
    rows = {
        name: row[2]
        for name, row in recorder.tally(lambda request: request == "measured").items()
    }
    rows["unattributed"] = rows.pop(ROOT, 0.0)
    wall = sum(u.wall_s for u in units if u.leg == "measured")
    return _budget(rows, wall, {}, sum(1 for u in units if u.leg == "measured"))


def served_budget(recorder: Recorder, units: list) -> dict:
    """One session's blocking path, phase by phase, summed over sessions.

    connect+hello | open = session build + the rest (``unattributed``) |
    submit = executor wait + run (split by the spans under it) + result
    delivery | close.  Work on other threads while the client waits — the
    codec, admission — is listed beside the table, not in it.
    """
    by_tenant = recorder.session_spans()
    rows: dict[str, float] = defaultdict(float)
    tenants = set()
    wall = 0.0
    for unit in units:
        stamps = unit.extra.get("stamps")
        tenant = unit.extra.get("tenant")
        if stamps is None or tenant not in by_tenant:
            continue  # failed before the result: not on the budget
        start, welcomed, opened, result, closed = stamps
        built, ran = by_tenant[tenant]
        tenants.add(tenant)
        wall += unit.wall_s
        rows["service.client.connect_hello"] += welcomed - start
        rows["unattributed"] += (opened - welcomed) - (built[1] - built[0])
        rows["service.server.executor_wait"] += ran[0] - opened
        rows["service.server.result_delivery"] += result - ran[1]
        rows["service.server.close"] += closed - result
    # The session build and the run split into the spans under them.
    for name, row in recorder.tally(lambda request: request in tenants).items():
        rows[name] += row[2]
    off_path = {
        name: row[1]
        for name, row in recorder.tally(lambda request: request is None).items()
    }
    return _budget(dict(rows), wall, off_path, len(tenants))


def _budget(rows: dict, wall: float, off_path: dict, units: int) -> dict:
    total = sum(rows.values())
    return {
        "units": units,
        "rows_s": dict(sorted(rows.items(), key=lambda item: -item[1])),
        "traced_wall_s": wall,
        "rows_sum_s": total,
        "residual_share": abs(total - wall) / wall if wall else 0.0,
        "off_path_busy_s": dict(sorted(off_path.items(), key=lambda item: -item[1])),
    }


def render_budget(workload: str, budget: dict, overhead_ratio: float) -> str:
    wall = budget["traced_wall_s"] or 1.0
    lines = [f"budget  {workload}  (measured leg, traced)"]
    for name, seconds in budget["rows_s"].items():
        lines.append(f"  {name:<34} {seconds:9.4f} s  {100 * seconds / wall:5.1f} %")
    lines.append(f"  {'rows sum':<34} {budget['rows_sum_s']:9.4f} s")
    lines.append(f"  {'traced wall':<34} {budget['traced_wall_s']:9.4f} s"
                 f"  residual {100 * budget['residual_share']:.2f} %")
    lines.append(f"  trace_overhead_ratio {overhead_ratio:.3f}  (traced / untraced unit_cal)")
    if budget["off_path_busy_s"]:
        lines.append("  busy on other threads while clients wait (not in the sum):")
        for name, seconds in budget["off_path_busy_s"].items():
            lines.append(f"    {name:<32} {seconds:9.4f} s")
    return "\n".join(lines)
