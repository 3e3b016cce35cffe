"""Structured per-collection GC events and the bounded ring that holds them.

A :class:`GcEvent` is the telemetry layer's unit of record: one immutable
row per collection, decomposed the way the paper's evaluation decomposes
time (§3.1 — mutator vs GC vs ownership phase) and work (objects traced,
ownees checked).  Events live in a fixed-capacity :class:`EventRing` on the
VM so a long-running process keeps a recent window without unbounded
growth; sinks (see :mod:`repro.telemetry.sinks`) stream every event out as
it is produced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Optional

#: GC-event row schema, stamped into every JSONL row.  Version 2 added the
#: wall-clock/monotonic timestamp pair; version-1 rows (no ``schema`` key,
#: no timestamps) still load through :meth:`GcEvent.from_row`.
EVENT_SCHEMA = "repro-gc-event/2"


@dataclass(frozen=True)
class GcEvent:
    """One collection, fully decomposed."""

    seq: int                 #: collection ordinal (1-based, VM lifetime)
    collector: str           #: "marksweep" | "semispace" | "generational"
    kind: str                #: "full" | "minor"
    trigger: str             #: the reason string passed to collect()
    pause_s: float           #: the pause timer's reading: this collection's gc_seconds
    ownership_s: float       #: §2.5.2 ownership pre-phase time
    mark_s: float            #: mark/trace phase time
    sweep_s: float           #: sweep/evacuate/promote time
    objects_traced: int
    edges_traced: int
    objects_swept: int
    objects_freed: int
    bytes_freed: int
    objects_promoted: int
    bytes_before: int        #: heap occupancy entering the collection
    bytes_after: int         #: heap occupancy after reclamation
    live_before: int         #: live object count entering the collection
    live_after: int
    heap_bytes: int          #: configured heap budget (for occupancy %)
    assertion_checks: int    #: header-bit + ownee checks this cycle
    ownees_checked: int
    violations: int          #: assertion violations detected this cycle
    #: Unswept chunks left behind at pause end (lazy sweep modes; 0 means
    #: reclamation was exact when the event was emitted).  Defaulted so
    #: pre-existing constructors stay valid.
    sweep_debt_chunks: int = 0
    #: Addresses fenced in the collector's quarantine at pause end — the
    #: hardened recovery's poison set.  Growth says corruption is being
    #: caught and contained; hitting the bound raises QuarantineOverflowError.
    #: Defaulted so pre-existing constructors stay valid.
    quarantine_depth: int = 0
    #: Wall-clock epoch seconds (``time.time()``) at pause end.  The
    #: monotonic clock below is the one to do arithmetic on; this one is
    #: the one that correlates across processes and with external logs.
    #: Defaulted so version-1 constructors (and rows) stay valid.
    wall_time: float = 0.0
    #: The pause timer's end reading (``time.perf_counter()``), on the same
    #: clock as every other timer.  ``(mono_time - pause_s, mono_time)`` is
    #: the stop-the-world interval MMU/utilization math consumes.
    mono_time: float = 0.0

    @property
    def occupancy_before(self) -> float:
        return self.bytes_before / self.heap_bytes if self.heap_bytes else 0.0

    @property
    def occupancy_after(self) -> float:
        return self.bytes_after / self.heap_bytes if self.heap_bytes else 0.0

    @property
    def pause_interval(self) -> tuple[float, float]:
        """The stop-the-world interval on the monotonic clock."""
        return (self.mono_time - self.pause_s, self.mono_time)

    def as_dict(self) -> dict:
        # A flat copy, not ``asdict``: every field is a scalar and this
        # runs on the sink path inside the pause.
        row = {name: getattr(self, name) for name in _GC_EVENT_FIELDS}
        row["schema"] = EVENT_SCHEMA
        row["occupancy_before"] = self.occupancy_before
        row["occupancy_after"] = self.occupancy_after
        return row

    @classmethod
    def from_row(cls, row: dict) -> "GcEvent":
        """Rebuild an event from a JSONL sink row, any schema version.

        Version-1 rows carry no ``schema`` key and no timestamps; their
        defaults fill in as 0.0.  Derived keys (``occupancy_*``) and any
        future unknown keys are ignored, so newer rows also load.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in row.items() if k in known})

    def render(self) -> str:
        return (
            f"GC#{self.seq} {self.collector}/{self.kind} "
            f"pause={self.pause_s * 1e3:.2f}ms "
            f"freed={self.objects_freed}obj/{self.bytes_freed}B "
            f"occupancy={self.occupancy_before:.0%}->{self.occupancy_after:.0%} "
            f"violations={self.violations} ({self.trigger})"
        )


_GC_EVENT_FIELDS = tuple(f.name for f in fields(GcEvent))


@dataclass(frozen=True)
class SnapshotEvent:
    """One heap snapshot written (``snapshot_written`` in the event stream).

    Emitted by the snapshot subsystem after serialization completes —
    always outside the GC pause, so ``duration_s`` is capture+write cost,
    not added pause time (the in-pause recording cost is the benchmark's
    ``gc.tracer.snapshot_edges_per_s`` probe instead).
    """

    event: str               #: always "snapshot_written" (sink discriminator)
    seq: int                 #: collection ordinal the snapshot belongs to
    collector: str
    trigger: str             #: "manual" | "interval" | "violation"
    path: str                #: snapshot body path
    objects: int             #: live objects recorded
    roots: int               #: root entries recorded
    total_bytes: int         #: live bytes recorded (heap view)
    file_bytes: int          #: serialized body size on disk
    duration_s: float        #: capture + serialization wall-clock time

    def as_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        return (
            f"snapshot gc#{self.seq} {self.trigger} -> {self.path} "
            f"({self.objects} objects, {self.total_bytes}B live, "
            f"{self.file_bytes}B on disk, {self.duration_s * 1e3:.2f}ms)"
        )


@dataclass(frozen=True)
class DegradedEvent:
    """One recovery-path activation (``degraded`` in the event stream).

    Emitted when a hardened layer absorbs a fault instead of crashing:
    heap corruption quarantined (``heap``), assertion engine disabled for
    one pause (``engine``), a sink circuit breaker tripping (``sink``),
    snapshot serialization failing (``snapshot``), or the heap growing
    under OOM pressure (``heap_grown``).
    """

    event: str               #: always "degraded" (sink discriminator)
    kind: str                #: "heap" | "engine" | "sink" | "snapshot" | "heap_grown"
    seq: int                 #: collection ordinal when the fault was absorbed
    detail: str              #: human-readable cause summary
    #: Wall-clock epoch seconds at absorption time (0.0 on version-1 rows).
    wall_time: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        return f"degraded[{self.kind}] gc#{self.seq}: {self.detail}"


class EventRing:
    """Bounded FIFO of the most recent :class:`GcEvent` records.

    Appending beyond ``capacity`` silently drops the oldest event but counts
    the drop, so exporters can report how much history was shed.
    """

    __slots__ = ("capacity", "_events", "dropped", "appended")

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[GcEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self.appended = 0

    def append(self, event: GcEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        self.appended += 1

    @property
    def latest(self) -> Optional[GcEvent]:
        return self._events[-1] if self._events else None

    def snapshot(self) -> list[GcEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[GcEvent]:
        return iter(self._events)

    def __repr__(self) -> str:
        return (
            f"<EventRing {len(self._events)}/{self.capacity} "
            f"(+{self.dropped} dropped)>"
        )
