"""Telemetry: the structured GC event stream and its exporters.

The paper's whole evaluation (§3.1) is an observability exercise —
decompose total time into mutator / GC / ownership-phase time and count the
work (objects traced, ownees checked).  This package turns that from
ad-hoc bench bookkeeping into a runtime subsystem every collector and the
assertion engine emit into:

* :class:`~repro.telemetry.events.GcEvent` — one structured record per
  collection, kept in a bounded :class:`~repro.telemetry.events.EventRing`
  on the VM.
* :class:`~repro.telemetry.histogram.LogHistogram` — streaming log-scale
  distributions of GC pauses, allocation sizes, and ownees checked per GC.
* :class:`~repro.telemetry.census.ClassCensus` — a per-class live-instance
  time series sampled at every collection (the Cork baseline consumes it).
* Sinks (:mod:`repro.telemetry.sinks`) — in-memory, JSON-lines, and a
  Prometheus text exposition renderer.

The emit path is designed to cost nothing when telemetry is off: a VM built
with ``telemetry=False`` leaves ``collector.telemetry`` as ``None``, so the
hot paths pay one attribute load and an ``is None`` test — on vs off is the
``telemetry.on_gc_ratio`` probe of ``benchmarks/e2e``, mirroring the §2.7
"path tracking is free" ablation.

Usage::

    vm = VirtualMachine()                 # telemetry on by default
    run_pseudojbb(vm)
    vm.telemetry.pause_hist.summary()     # p50/p90/p99 pauses
    vm.telemetry.events.latest.render()   # last collection, decomposed
    print(render_prometheus(vm.telemetry))
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.telemetry.census import ClassCensus, take_census
from repro.telemetry.events import (
    EVENT_SCHEMA,
    DegradedEvent,
    EventRing,
    GcEvent,
    SnapshotEvent,
)
from repro.telemetry.histogram import LogHistogram
from repro.telemetry.sinks import (
    ExpositionWriter,
    JsonlSink,
    MemorySink,
    TelemetrySink,
    render_prometheus,
    validate_exposition,
)

if TYPE_CHECKING:
    from repro.core.reporting import Violation
    from repro.gc.base import Collector
    from repro.gc.stats import GcStats

__all__ = [
    "ClassCensus",
    "DegradedEvent",
    "EVENT_SCHEMA",
    "EventRing",
    "ExpositionWriter",
    "GcEvent",
    "JsonlSink",
    "LogHistogram",
    "MemorySink",
    "SnapshotEvent",
    "Telemetry",
    "TelemetrySink",
    "render_prometheus",
    "take_census",
    "validate_exposition",
]

#: Default number of per-collection events retained on the VM.
DEFAULT_RING_CAPACITY = 256

#: Circuit breaker: consecutive failed *events* (each already retried once)
#: before a sink is opened.  Deliberately above the two-event failure window
#: the basic resilience test exercises.
_BREAKER_THRESHOLD = 3

#: Events skipped while a breaker is open, doubling per trip up to the cap.
#: Event counts (not wall clock) keep the backoff deterministic.
_BREAKER_COOLDOWN_INITIAL = 4
_BREAKER_COOLDOWN_MAX = 64


class _SinkState:
    """Per-sink circuit-breaker state (keyed by ``id(sink)``)."""

    __slots__ = ("failures", "skip_remaining", "cooldown")

    def __init__(self) -> None:
        self.failures = 0
        self.skip_remaining = 0
        self.cooldown = _BREAKER_COOLDOWN_INITIAL


class _PendingCollection:
    """Begin-of-collection snapshot, closed out by ``finish_collection``."""

    __slots__ = ("kind", "trigger", "stats_before", "bytes_before", "live_before", "start")

    def __init__(
        self,
        kind: str,
        trigger: str,
        stats_before: "GcStats",
        bytes_before: int,
        live_before: int,
    ):
        self.kind = kind
        self.trigger = trigger
        self.stats_before = stats_before
        self.bytes_before = bytes_before
        self.live_before = live_before
        self.start = time.perf_counter()


class Telemetry:
    """The per-VM telemetry hub: event ring, histograms, census, sinks."""

    def __init__(self) -> None:
        self.events = EventRing(DEFAULT_RING_CAPACITY)
        #: GC stop-the-world pauses, microseconds to tens of seconds.
        self.pause_hist = LogHistogram(1e-6, 10.0)
        #: Mutator allocation request sizes, in bytes.
        self.alloc_hist = LogHistogram(8, 1 << 20)
        #: Ownees checked per *full* collection (§3.1.2's per-GC counts).
        self.ownees_hist = LogHistogram(1, 1_000_000)
        #: Lazy sweep-debt repayment latency: seconds per allocation-slow-
        #: path sweep slice (the mutator-side stall lazy mode trades pause
        #: time for).  Sub-100ns slices clamp into the first bucket.
        self.lazy_slice_hist = LogHistogram(1e-7, 10.0)
        #: Chunks and cells reclaimed on the mutator side, lifetime totals.
        self.lazy_chunks_swept = 0
        self.lazy_cells_released = 0
        self.census = ClassCensus()
        self.sinks: list[TelemetrySink] = []
        self.collections_by_kind: dict[str, int] = {}
        self.violations_by_kind: dict[str, int] = {}
        #: Every heap snapshot written this VM lifetime (unbounded on
        #: purpose: snapshots are rare and each record is a few words).
        self.snapshots: list[SnapshotEvent] = []
        self.sink_errors = 0
        #: Recovery-path activations by kind ("heap", "engine", "sink",
        #: "snapshot", "heap_grown") and their event records.
        self.degradations: dict[str, int] = {}
        self.degradation_events: list[DegradedEvent] = []
        #: Circuit-breaker bookkeeping: retries attempted, events skipped
        #: while a breaker was open, and breaker trips.
        self.sink_retries = 0
        self.sink_events_skipped = 0
        self.sink_breaker_trips = 0
        self._sink_states: dict[int, _SinkState] = {}

    # -- wiring -----------------------------------------------------------------------

    def add_sink(self, sink: TelemetrySink) -> TelemetrySink:
        self.sinks.append(sink)
        return sink

    def close(self) -> None:
        for sink in self.sinks:
            try:
                sink.close()
            except Exception:
                self.sink_errors += 1

    def _emit(self, event) -> None:
        """Stream one event to every sink, behind a per-sink circuit breaker.

        A failing emit gets one immediate retry; a still-failing event
        counts a single ``sink_errors`` increment.  After
        ``_BREAKER_THRESHOLD`` consecutive failed events the sink's breaker
        opens and events are skipped for a cooldown (doubling per trip, up
        to a cap) measured in *events*, so behavior stays deterministic.  A
        successful emit closes the breaker and resets the cooldown.
        Exporter failures must never propagate into the mutator or a pause.
        """
        states = self._sink_states
        for sink in self.sinks:
            state = states.get(id(sink))
            if state is None:
                state = states[id(sink)] = _SinkState()
            if state.skip_remaining > 0:
                state.skip_remaining -= 1
                self.sink_events_skipped += 1
                continue
            try:
                sink.emit(event)
            except Exception:
                self.sink_retries += 1
                try:
                    sink.emit(event)
                except Exception:
                    self.sink_errors += 1
                    state.failures += 1
                    if state.failures >= _BREAKER_THRESHOLD:
                        state.skip_remaining = state.cooldown
                        state.cooldown = min(state.cooldown * 2, _BREAKER_COOLDOWN_MAX)
                        state.failures = 0
                        self.sink_breaker_trips += 1
                    continue
            state.failures = 0
            state.cooldown = _BREAKER_COOLDOWN_INITIAL

    # -- emit path (collectors call these) ----------------------------------------------

    def record_lazy_slice(self, seconds: float, chunks: int, released: int) -> None:
        """Record one allocation-slow-path sweep slice (lazy mode only)."""
        self.lazy_slice_hist.record(seconds)
        self.lazy_chunks_swept += chunks
        self.lazy_cells_released += released

    def record_violations(self, violations: "list[Violation]") -> None:
        """One collection's violations, counted by kind."""
        by_kind = self.violations_by_kind
        for violation in violations:
            kind = violation.kind._value_  # ``.value`` is a Python-level descriptor
            by_kind[kind] = by_kind.get(kind, 0) + 1

    def record_snapshot(self, **fields) -> SnapshotEvent:
        """Record a ``snapshot_written`` event (``fields`` are
        :class:`SnapshotEvent`'s own) and stream it to every sink."""
        event = SnapshotEvent(event="snapshot_written", **fields)
        self.snapshots.append(event)
        self._emit(event)
        return event

    def broadcast(self, event) -> None:
        """Stream a typed out-of-band event (e.g. a monitor ``AlertEvent``)
        to every sink, behind the same per-sink circuit breakers the GC
        event stream uses.  The event must expose ``as_dict()``/``render()``
        like the other sink payloads."""
        self._emit(event)

    def record_degradation(self, kind: str, detail: str, seq: int = 0) -> DegradedEvent:
        """Record one recovery-path activation and stream it to the sinks."""
        self.degradations[kind] = self.degradations.get(kind, 0) + 1
        event = DegradedEvent(
            event="degraded", kind=kind, seq=seq, detail=detail,
            wall_time=time.time(),
        )
        self.degradation_events.append(event)
        self._emit(event)
        return event

    def begin_collection(
        self, collector: "Collector", kind: str, trigger: str
    ) -> _PendingCollection:
        return _PendingCollection(
            kind,
            trigger,
            collector.stats.copy(),
            collector.bytes_in_use(),
            len(collector.heap),
        )

    def finish_collection(
        self, pending: _PendingCollection, collector: "Collector"
    ) -> GcEvent:
        end_mono = time.perf_counter()
        pause = end_mono - pending.start
        stats = collector.stats
        delta = stats.diff(pending.stats_before)
        event = GcEvent(
            seq=stats.collections,
            collector=collector.name,
            kind=pending.kind,
            trigger=pending.trigger,
            pause_s=pause,
            ownership_s=delta.ownership_phase_seconds,
            mark_s=delta.mark_seconds,
            sweep_s=delta.sweep_seconds,
            objects_traced=delta.objects_traced,
            edges_traced=delta.edges_traced,
            objects_swept=delta.objects_swept,
            objects_freed=delta.objects_freed,
            bytes_freed=delta.bytes_freed,
            objects_promoted=delta.objects_promoted,
            bytes_before=pending.bytes_before,
            bytes_after=collector.bytes_in_use(),
            live_before=pending.live_before,
            live_after=len(collector.heap),
            heap_bytes=collector.heap_bytes,
            assertion_checks=delta.header_bit_checks + delta.ownees_checked,
            ownees_checked=delta.ownees_checked,
            violations=delta.violations_detected,
            sweep_debt_chunks=collector.sweep_debt(),
            quarantine_depth=len(collector.quarantine),
            wall_time=time.time(),
            mono_time=end_mono,
        )
        self.events.append(event)
        self.collections_by_kind[event.kind] = (
            self.collections_by_kind.get(event.kind, 0) + 1
        )
        self.pause_hist.record(pause)
        if event.kind == "full":
            self.ownees_hist.record(event.ownees_checked)
        # Lazy sweep modes end the pause with dead objects still tabled;
        # the pending-garbage predicate keeps the census exact regardless.
        self.census.observe(
            take_census(collector.heap, skip=collector.pending_garbage_predicate()),
            gc_number=event.seq,
        )
        # Exporter failures must never propagate into a GC pause; _emit
        # contains them behind the per-sink circuit breaker.
        self._emit(event)
        return event

    # -- reporting --------------------------------------------------------------------

    def summary(self) -> dict:
        """The machine-readable rollup behind ``python -m repro stats --json``."""
        return {
            "collections": dict(self.collections_by_kind),
            "events": [event.as_dict() for event in self.events],
            "events_total": self.events.appended,
            "events_dropped": self.events.dropped,
            "ring_capacity": self.events.capacity,
            "pause_seconds": self.pause_hist.summary(),
            "allocation_bytes": self.alloc_hist.summary(),
            "ownees_checked_per_gc": self.ownees_hist.summary(),
            "lazy_sweep_slices": {
                "latency_seconds": self.lazy_slice_hist.summary(),
                "chunks_swept": self.lazy_chunks_swept,
                "cells_released": self.lazy_cells_released,
            },
            "census": self.census.as_dict(),
            "violations_by_kind": dict(self.violations_by_kind),
            "snapshots": [event.as_dict() for event in self.snapshots],
            "sink_errors": self.sink_errors,
            "sink_retries": self.sink_retries,
            "sink_events_skipped": self.sink_events_skipped,
            "sink_breaker_trips": self.sink_breaker_trips,
            "degradations": dict(self.degradations),
            "degradation_events": [event.as_dict() for event in self.degradation_events],
        }

    def render(self, census_top: int = 8, recent_events: int = 5) -> str:
        """Human-readable summary for the default CLI output."""
        lines: list[str] = []
        total = sum(self.collections_by_kind.values())
        by_kind = ", ".join(
            f"{count} {kind}" for kind, count in sorted(self.collections_by_kind.items())
        )
        lines.append(f"collections: {total} ({by_kind or 'none'})")
        pauses = self.pause_hist
        if pauses.count:
            lines.append(
                "pause times:  "
                f"p50={pauses.percentile(50) * 1e3:.2f}ms "
                f"p90={pauses.percentile(90) * 1e3:.2f}ms "
                f"p99={pauses.percentile(99) * 1e3:.2f}ms "
                f"max={pauses.max_value * 1e3:.2f}ms"
            )
        allocs = self.alloc_hist
        if allocs.count:
            lines.append(
                f"allocations:  {allocs.count} requests, "
                f"p50={allocs.percentile(50):.0f}B p99={allocs.percentile(99):.0f}B"
            )
        if self.ownees_hist.count:
            lines.append(
                f"ownees/GC:    p50={self.ownees_hist.percentile(50):.0f} "
                f"max={self.ownees_hist.max_value:.0f}"
            )
        slices = self.lazy_slice_hist
        if slices.count:
            lines.append(
                f"lazy sweep:   {slices.count} slices, "
                f"p50={slices.percentile(50) * 1e6:.0f}us "
                f"p99={slices.percentile(99) * 1e6:.0f}us "
                f"max={slices.max_value * 1e3:.2f}ms "
                f"({self.lazy_chunks_swept} chunks, "
                f"{self.lazy_cells_released} cells released)"
            )
        if self.violations_by_kind:
            rendered = ", ".join(
                f"{kind}={count}" for kind, count in sorted(self.violations_by_kind.items())
            )
            lines.append(f"violations:   {rendered}")
        census = self.census.latest()
        if census:
            lines.append(f"live census ({len(census)} classes, top {census_top} by bytes):")
            ranked = sorted(census.items(), key=lambda kv: kv[1][1], reverse=True)
            for name, (count, nbytes) in ranked[:census_top]:
                lines.append(f"  {name:24} {count:>8} objects {nbytes:>12} bytes")
        if self.snapshots:
            lines.append(f"heap snapshots ({len(self.snapshots)} written):")
            for event in self.snapshots[-3:]:
                lines.append(f"  {event.render()}")
        if self.degradations:
            rendered = ", ".join(
                f"{kind}={count}" for kind, count in sorted(self.degradations.items())
            )
            lines.append(f"degradations: {rendered}")
            for event in self.degradation_events[-3:]:
                lines.append(f"  {event.render()}")
        if self.sink_breaker_trips:
            lines.append(
                f"sink breaker: {self.sink_breaker_trips} trip(s), "
                f"{self.sink_events_skipped} event(s) skipped, "
                f"{self.sink_retries} retry(ies)"
            )
        events = self.events.snapshot()
        if events:
            lines.append(f"recent collections (last {min(recent_events, len(events))}):")
            for event in events[-recent_events:]:
                lines.append(f"  {event.render()}")
        if self.events.dropped:
            lines.append(
                f"(ring dropped {self.events.dropped} older events; "
                f"capacity {self.events.capacity})"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<Telemetry events={len(self.events)} sinks={len(self.sinks)}>"
