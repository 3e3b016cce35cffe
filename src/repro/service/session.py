"""Tenant sessions: one isolated VM + heap + assertion engine per tenant.

A :class:`TenantSession` is the unit of multi-tenancy.  Its lifecycle is

    admitted -> running -> draining -> evicted

Every session ends *evicted* — that is the state in which its committed
heap bytes have been returned to the admission budget; the ``outcome``
field says how it got there (``completed``, ``killed``, or a typed
error such as ``typed:HeapExhausted``).  The session owns a private
:class:`~repro.runtime.vm.VirtualMachine`, so one tenant's assertion
violations, OOM ladder, or injected faults can never perturb another
tenant's GC counters — the isolation property the chaos suite's
tenant-isolation cell pins.

Outbound traffic flows through a bounded :class:`FrameQueue`.  GC-event
frames are load-sheddable (a slow consumer drops telemetry, counted,
rather than stalling the collector); violation, result, and lifecycle
frames are critical and always enqueue — and can be most of the traffic
(97 % of the benchmark's ``served_stream`` session), so it is they that
fill the queue and the ``gc-event`` behind them that is shed.  Every
outbound frame is stamped with a monotonic per-session ``seq`` *before* the
shedding decision, so a dropped frame leaves an observable gap the client's
:class:`~repro.service.wire.SequenceTracker` can count.

When the service runs with distributed tracing on, the session's VM
gets its own :class:`~repro.tracing.spans.SpanTracer` and the session
carries the requester's :class:`~repro.tracing.distributed.TraceContext`
— outbound frames echo the ``trace_id``, and the merge layer re-parents
the VM's GC/assertion spans under the owning request span.

Fault hooks: the session registers ``session-kill`` and ``conn-drop``
callables in ``vm.service_hooks`` so :mod:`repro.faults` can inject
service-layer failures through the same plan/injector machinery as heap
corruption.  ``session-kill`` raises :class:`~repro.errors.SessionKilled`
out of the workload at the next GC; ``conn-drop`` severs the outbound
stream (frames are discarded and counted) while the workload runs on —
the draining semantics a dead TCP peer produces.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Optional

from repro.errors import ReproError, SessionKilled, WireProtocolError
from repro.runtime.vm import VirtualMachine
from repro.telemetry.events import GcEvent
from repro.workloads.suite import build_suite
from repro.workloads.swapleak import SwapLeakConfig, run_swapleak

#: Heap budget for the ``swapleak`` pseudo-workload (not in the suite
#: table); sized for its default leak-shaped live set.
SWAPLEAK_HEAP_BYTES = 96 * 1024

#: Outbound frame kinds that may be shed under backpressure.  Everything
#: else (violations, results, lifecycle, errors) is critical.
SHEDDABLE_FRAMES = frozenset({"gc-event"})

#: Default bound on a session's outbound queue, in frames.
DEFAULT_QUEUE_FRAMES = 256

#: How far a hardened VM's OOM ladder may grow the heap, as a multiple of
#: the heap it was given — what admission commits for it.
HARDENED_GROWTH_CEILING = 2


class FrameQueue:
    """Thread-safe bounded outbound queue with slow-consumer shedding.

    ``push`` is called from workload threads (inside GC pauses, even);
    ``drain`` from the event loop's writer task.  When the queue is full
    a sheddable frame is dropped and counted; a critical frame enqueues
    anyway.  The bound is backpressure policy, not a correctness limit or
    a cap on depth: critical frames are as many as the workload reports
    (2,144 of the 2,209 in the benchmark's ``served_stream`` session), so
    ``max_frames`` only says when the next ``gc-event`` is shed.

    Wake-ups are coalesced: ``notify`` fires once per drained batch, not
    once per frame.  Invariant (both sides under ``_lock``): while
    ``_wake_pending`` is set, a ``notify`` has been or is about to be
    issued and no ``drain`` has run since — so a push that finds it set
    rides the wake-up in flight, and the first push after a ``drain``
    raises a new one.  No wake-up is lost; one may be spurious (a drain
    for another reason beat it to the frames), which costs the consumer
    an empty drain.
    """

    def __init__(
        self,
        max_frames: int = DEFAULT_QUEUE_FRAMES,
        notify: Optional[Callable[[], None]] = None,
    ):
        self.max_frames = max_frames
        self.notify = notify
        self.dropped_frames = 0
        self.pushed_frames = 0
        self._frames: deque = deque()
        self._wake_pending = False
        self._lock = threading.Lock()

    def push(self, frame: dict) -> bool:
        """Enqueue one frame; returns False if it was shed."""
        with self._lock:
            if (
                len(self._frames) >= self.max_frames
                and frame.get("type") in SHEDDABLE_FRAMES
            ):
                self.dropped_frames += 1
                return False
            self._frames.append((frame, time.perf_counter()))
            self.pushed_frames += 1
            wake = not self._wake_pending
            self._wake_pending = True
        if wake and self.notify is not None:
            self.notify()
        return True

    def drain(self) -> list[tuple[dict, float]]:
        """Pop every queued ``(frame, enqueue_perf_counter)`` pair."""
        with self._lock:
            frames = list(self._frames)
            self._frames.clear()
            self._wake_pending = False
        return frames

    def __len__(self) -> int:
        with self._lock:
            return len(self._frames)


def resolve_workload(
    name: str, asserted: bool = True, overrides: Optional[dict] = None
) -> tuple[int, Callable[[VirtualMachine], object]]:
    """Map a wire-protocol workload name to ``(heap_bytes, runner)``.

    The one name -> program table: the server, the CLI's ``--workload``
    and the chaos soak all resolve here, so a name means the same runner,
    the same defaults and the same heap everywhere.  Accepts every suite
    entry plus the ``swapleak`` pseudo-workload (the guaranteed-violation
    generator the load mix leans on).  ``overrides`` tunes swapleak's knobs
    (``swaps``, ``array_size``, ``gc_every_swaps``, ``static_rep``).
    Unknown names, ``overrides`` that is not an object and a knob that is
    not an integer raise :class:`WireProtocolError` — a client mistake, not
    a server fault.
    """
    overrides = overrides or {}
    if not isinstance(overrides, dict):
        raise WireProtocolError(
            f"overrides must be an object, got {type(overrides).__name__}"
        )
    if name == "swapleak":
        try:
            config = SwapLeakConfig(
                array_size=int(overrides.get("array_size", 32)),
                swaps=int(overrides.get("swaps", 64)),
                gc_every_swaps=int(overrides.get("gc_every_swaps", 8)),
                static_rep=bool(overrides.get("static_rep", False)),
                assert_dead_swapped=asserted,
            )
        except (TypeError, ValueError) as exc:
            raise WireProtocolError(f"swapleak knobs are integers: {exc}") from None
        return SWAPLEAK_HEAP_BYTES, lambda vm: run_swapleak(vm, config)
    suite = build_suite()
    entry = suite.get(name)
    if entry is None:
        known = ", ".join(sorted(set(suite) | {"swapleak"}))
        raise WireProtocolError(f"unknown workload {name!r} (known: {known})")
    runner = entry.run
    if asserted and entry.run_with_assertions is not None:
        runner = entry.run_with_assertions
    return entry.heap_bytes, runner


def hardened_vm(heap_bytes: int, **vm_options) -> VirtualMachine:
    """The VM a tenant gets: a hardened collector with growth headroom up to
    ``HARDENED_GROWTH_CEILING`` times its heap.  Sessions, the CLI's chaotic
    runs and the chaos soak all build theirs here."""
    return VirtualMachine(
        heap_bytes=heap_bytes,
        hardened=True,
        max_heap_bytes=heap_bytes * HARDENED_GROWTH_CEILING,
        **vm_options,
    )


class TenantSession:
    """One tenant's admitted slice of the service — and its VM's telemetry
    sink (``emit``/``close``) and a sink of its violation log, one list per
    collection (``stream_violations``): both streams become outbound frames
    here and go to ``metrics`` by method.  An observer, not a reaction
    handler: it has no way to change what a direct run would do."""

    def __init__(
        self,
        session_id: str,
        tenant: str,
        heap_bytes: int,
        collector: str = "marksweep",
        hardened: bool = True,
        paranoid: bool = False,
        queue_frames: int = DEFAULT_QUEUE_FRAMES,
        notify: Optional[Callable[[], None]] = None,
        metrics=None,
        tracing: bool = False,
        trace=None,
        request_span_id: Optional[str] = None,
    ):
        self.session_id = session_id
        self.tenant = tenant
        self.heap_bytes = heap_bytes
        self.state = "admitted"
        self.outcome: Optional[str] = None
        self.error_detail: Optional[str] = None
        self.connection_dropped = False
        self.discarded_frames = 0
        self.violation_frames = 0
        self.gc_event_frames = 0
        #: Monotonic stamp for the next outbound frame.  Single producer
        #: (the workload thread owns all sends for a session), no lock.
        self.out_seq = 0
        #: Requester's TraceContext + the server-side request span this
        #: session's work re-parents under (None when tracing is off).
        self.trace = trace
        self.request_span_id = request_span_id
        self.request_lane: Optional[int] = None
        self.queue = FrameQueue(queue_frames, notify=notify)
        self._metrics = metrics
        self._pending_instances: list[tuple[str, int]] = []
        self._define_hooked = False
        build = hardened_vm if hardened else VirtualMachine
        self.vm = build(
            heap_bytes=heap_bytes,
            collector=collector,
            assertions=True,
            telemetry=True,
            paranoid=paranoid,
            tracing=tracing,
        )
        #: Committed against the admission budget: the heap plus whatever
        #: growth headroom its collector was built with.
        self.committed_bytes = self.vm.collector.max_heap_bytes or heap_bytes
        self.vm.telemetry.add_sink(self)
        self.vm.engine.log.batch_sinks.append(self.stream_violations)
        # Attachment points for the fault injector's service-layer kinds.
        self.vm.service_hooks["session-kill"] = self._kill_hook
        self.vm.service_hooks["conn-drop"] = self._drop_connection_hook

    # -- streaming (called from the workload thread, inside the VM) ---------------------

    def _send(self, *frames: dict) -> None:
        # Number a frame before any drop decision: a shed or discarded
        # frame must consume a seq so the client sees the gap.
        trace_id = self.trace.trace_id if self.trace is not None else None
        for seq, frame in enumerate(frames, self.out_seq):
            frame["seq"] = seq
            if trace_id is not None:
                frame["trace_id"] = trace_id
            if self.connection_dropped:
                self.discarded_frames += 1
            else:
                self.queue.push(frame)
        self.out_seq += len(frames)

    def stream_violations(self, violations: list) -> None:
        """Violation-log sink: one collection's violations become frames, in
        its epilogue (so still ahead of its gc-event).  With the ``seq`` that
        :meth:`_send` adds, this is ``wire.ViolationFrameEncoder``'s layout."""
        self._send(*[{
            "type": "violation",
            "session": self.session_id,
            "kind": violation.kind._value_,
            "message": violation.message,
            "class": violation.type_name,
            "site": violation.site,
            "gc_number": violation.gc_number,
        } for violation in violations])
        self.violation_frames += len(violations)
        if self._metrics is not None:
            self._metrics.observe_violations(self.tenant, len(violations))

    def emit(self, event) -> None:
        """Telemetry sink path: GC events become sheddable stream frames."""
        if isinstance(event, GcEvent):
            self.gc_event_frames += 1
            self._send({
                "type": "gc-event",
                "session": self.session_id,
                **event.as_dict(),
            })
        if self._metrics is not None:
            self._metrics.observe_event(self.tenant, event)

    def close(self) -> None:
        """Telemetry sink protocol; the session holds nothing to flush."""

    # -- fault hooks --------------------------------------------------------------------

    def _kill_hook(self) -> None:
        raise SessionKilled(
            f"session {self.session_id} (tenant {self.tenant!r}) killed by fault injection"
        )

    def _drop_connection_hook(self) -> str:
        self.drop_connection()
        return f"outbound stream severed for session {self.session_id}"

    def drop_connection(self) -> None:
        """Sever the outbound stream: the workload runs on, frames vanish."""
        self.connection_dropped = True

    # -- lifecycle ----------------------------------------------------------------------

    def register_assertion(self, spec: dict) -> None:
        """Wire-protocol assertion registration (pre-run, state=admitted).

        A tenant registers assertions *before* submitting the program
        that defines its classes, so an instances assertion naming a
        not-yet-defined class is held pending and armed the moment the
        class is defined — instance counts are recomputed from scratch
        at every GC, so arming at definition time is exact.
        """
        kind = spec.get("kind")
        if kind == "instances":
            cls = spec.get("class")
            limit = spec.get("limit")
            if not isinstance(cls, str) or not isinstance(limit, int):
                raise WireProtocolError(
                    "instances assertion needs a 'class' string and an integer 'limit'"
                )
            if cls in self.vm.classes:
                self.vm.assertions.assert_instances(cls, limit)
            else:
                self._pending_instances.append((cls, limit))
                self._hook_define_class()
        else:
            raise WireProtocolError(
                f"unknown wire assertion kind {kind!r} (supported: instances)"
            )

    def _hook_define_class(self) -> None:
        if self._define_hooked:
            return
        self._define_hooked = True
        original = self.vm.define_class

        def armed_define(*args, **kwargs):
            cls = original(*args, **kwargs)
            for pending in [p for p in self._pending_instances if p[0] == cls.name]:
                self.vm.assertions.assert_instances(cls, pending[1])
                self._pending_instances.remove(pending)
            return cls

        self.vm.define_class = armed_define

    def run(self, runner: Callable[[VirtualMachine], object]) -> dict:
        """Execute the tenant's workload to completion or typed failure.

        Runs synchronously (the server calls this on an executor thread).
        Returns the result frame; the session is left *draining* with its
        queue holding any undelivered frames.  Untyped exceptions
        propagate — those are server bugs, not tenant outcomes.
        """
        self.state = "running"
        started = time.perf_counter()
        try:
            runner(self.vm)
            self.vm.collector.sweep_all()
            self.outcome = "completed"
        except SessionKilled as exc:
            self.outcome = "killed"
            self.error_detail = str(exc)
        except ReproError as exc:
            self.outcome = f"typed:{type(exc).__name__}"
            self.error_detail = str(exc)
        self.state = "draining"
        frame = self.result_frame(wall_s=time.perf_counter() - started)
        self._send(frame)
        return frame

    def result_frame(self, wall_s: float = 0.0) -> dict:
        counters = self.vm.stats.snapshot()["counters"]
        return {
            "type": "result",
            "session": self.session_id,
            "tenant": self.tenant,
            "outcome": self.outcome,
            "error": self.error_detail,
            "wall_s": wall_s,
            "gc_seconds": self.vm.stats.gc_seconds,
            "counters": counters,
            "violations": self.vm.violation_lines(),
            "violation_frames": self.violation_frames,
            "gc_event_frames": self.gc_event_frames,
            "dropped_frames": self.queue.dropped_frames,
            "discarded_frames": self.discarded_frames,
        }

    def evict(self) -> None:
        """Terminal transition; the server releases the budget after this."""
        self.state = "evicted"
        if self.outcome is None:
            self.outcome = "evicted-before-run"
