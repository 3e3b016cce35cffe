"""Bounded time series and the hub that feeds them from the event stream.

A long-running process must answer "is the heap healthy *right now*" with
bounded memory.  :class:`TimeSeries` is a fixed-capacity ring of
``(timestamp, value)`` points;
:class:`MonitorHub` is a telemetry *sink* — it subscribes to a VM's
:class:`~repro.telemetry.Telemetry` and turns the push-model event stream
(GC events, degradations, snapshots, its own alerts coming back around)
into the pull-model state the SLO engine, the health report, and the
``/metrics`` server read.

Timestamps are ``perf_counter`` seconds (the system's timer clock) so
interval arithmetic is exact; the paired ``wall_time`` on each event is
what correlates a point with the outside world.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import ConfigurationError
from repro.monitor.mmu import mmu, mmu_curve, utilization_timeline
from repro.telemetry.events import DegradedEvent, GcEvent

if TYPE_CHECKING:
    from repro.monitor.slo import SloSet
    from repro.runtime.vm import VirtualMachine

#: Points retained per series; at one GC event per second this is about
#: 34 minutes of raw history.
DEFAULT_SERIES_CAPACITY = 2048

#: Pause intervals retained for MMU/utilization queries.
DEFAULT_INTERVAL_CAPACITY = 4096

#: The per-GC-event gauges every hub maintains, in emit order.
GC_SERIES = (
    "pause_s",
    "utilization",
    "heap_live_bytes",
    "occupancy",
    "sweep_debt_chunks",
    "quarantine_depth",
    "assertion_checks",
    "violations",
    "ownership_s",
)


class TimeSeries:
    """Fixed-capacity ring of ``(t, value)`` points, append-only in time.

    Appending beyond ``capacity`` drops the oldest point (counted, so
    consumers can report shed history).  Queries never mutate.
    """

    __slots__ = ("name", "capacity", "_points", "appended", "dropped")

    def __init__(self, name: str):
        self.name = name
        self.capacity = DEFAULT_SERIES_CAPACITY
        self._points: deque[tuple[float, float]] = deque(maxlen=self.capacity)
        self.appended = 0
        self.dropped = 0

    def append(self, t: float, value: float) -> None:
        if len(self._points) == self.capacity:
            self.dropped += 1
        self._points.append((t, value))
        self.appended += 1

    def points(self) -> list[tuple[float, float]]:
        return list(self._points)

    def values(self, since: Optional[float] = None) -> list[float]:
        if since is None:
            return [v for _t, v in self._points]
        return [v for t, v in self._points if t >= since]

    def latest(self) -> Optional[tuple[float, float]]:
        return self._points[-1] if self._points else None

    def latest_value(self, default: float = 0.0) -> float:
        return self._points[-1][1] if self._points else default

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self) -> str:
        return f"<TimeSeries {self.name} {len(self._points)}/{self.capacity}>"


class MonitorHub:
    """The continuous-monitoring hub: a telemetry sink that maintains
    bounded time series, pause intervals for MMU math, and (optionally)
    an attached :class:`~repro.monitor.slo.SloSet` evaluated on every
    collection.

    Zero-overhead contract: a VM without a hub attached has *nothing* on
    any hot path — the hub rides the existing sink fan-out, so arming it
    costs one extra sink iteration per collection and nothing per
    allocation or per traced object.
    """

    def __init__(self, slos: Optional["SloSet"] = None):
        self.series: dict[str, TimeSeries] = {
            name: TimeSeries(name) for name in GC_SERIES
        }
        #: Stop-the-world intervals ``(start, end)`` on the monotonic
        #: clock, ordered by ``end`` (collection order for one VM) — the
        #: MMU/utilization input.
        self.pause_intervals: deque[tuple[float, float]] = deque(
            maxlen=DEFAULT_INTERVAL_CAPACITY
        )
        self.slos = slos
        self.vm: Optional["VirtualMachine"] = None
        #: Alerts seen on the sink path (our own, come back around the
        #: fan-out — which also proves every other sink saw them).
        self.alerts: list = []
        self.degradations_by_kind: dict[str, int] = {}
        self.gc_events_seen = 0
        #: Violations over every GC event ingested (the ``violations``
        #: series is a ring: its sum is a trailing window, not a total).
        self.violations_seen = 0
        self.events_seen = 0
        self.start_mono: Optional[float] = None
        self.start_wall: Optional[float] = None
        self.closed = False

    # -- wiring -----------------------------------------------------------------------

    def attach(self, vm: "VirtualMachine") -> "MonitorHub":
        """Subscribe to ``vm``'s telemetry hub; requires telemetry on."""
        if vm.telemetry is None:
            raise ConfigurationError(
                "continuous monitoring rides the telemetry event stream; "
                "build the VM with telemetry enabled"
            )
        self.vm = vm
        vm.monitor = self
        self.start_mono = time.perf_counter()
        self.start_wall = time.time()
        vm.telemetry.add_sink(self)
        return self

    # -- TelemetrySink protocol ----------------------------------------------------------

    def emit(self, event) -> None:
        self.events_seen += 1
        if isinstance(event, GcEvent):
            self._observe_gc(event)
        elif isinstance(event, DegradedEvent):
            self.degradations_by_kind[event.kind] = (
                self.degradations_by_kind.get(event.kind, 0) + 1
            )
        elif getattr(event, "event", None) == "alert":
            self.alerts.append(event)

    def close(self) -> None:
        self.closed = True

    # -- ingest -----------------------------------------------------------------------

    def _observe_gc(self, event: GcEvent) -> None:
        self.gc_events_seen += 1
        self.violations_seen += event.violations
        t = event.mono_time or time.perf_counter()
        if self.start_mono is None or t - event.pause_s < self.start_mono:
            # First event beat attach(), or the pause began before it:
            # anchor the observation window so utilization stays in [0,1].
            self.start_mono = t - event.pause_s
            self.start_wall = (event.wall_time or time.time()) - event.pause_s
        self._add_interval(t - event.pause_s, t)
        series = self.series
        series["pause_s"].append(t, event.pause_s)
        series["heap_live_bytes"].append(t, float(event.bytes_after))
        series["occupancy"].append(t, event.occupancy_after)
        series["sweep_debt_chunks"].append(t, float(event.sweep_debt_chunks))
        series["quarantine_depth"].append(t, float(event.quarantine_depth))
        series["assertion_checks"].append(t, float(event.assertion_checks))
        series["violations"].append(t, float(event.violations))
        series["ownership_s"].append(t, event.ownership_s)
        slos = self.slos
        if slos is not None:
            alerts = slos.observe(self, event)
            if alerts and self.vm is not None and self.vm.telemetry is not None:
                for alert in alerts:
                    # Back through the sink fan-out (JSONL rows, breakers,
                    # and this hub's own alert log all see it).
                    self.vm.telemetry.broadcast(alert)
        # The trailing-window utilization is recorded *after* SLO
        # evaluation so mmu_floor objectives judge the same number.
        series["utilization"].append(t, self.utilization_now())

    def _add_interval(self, start: float, end: float) -> None:
        """Record one pause, keeping ``pause_intervals`` ordered by end.

        One VM ends its pauses in order, so this is an append.  On the
        service's shared hub a tenant stamps its pause end before it
        reaches the metrics lock and can arrive a little after a pause
        that ended later; that one is inserted a few places from the
        right instead.
        """
        intervals = self.pause_intervals
        if not intervals or intervals[-1][1] <= end:
            intervals.append((start, end))
            return
        if len(intervals) == intervals.maxlen:
            intervals.popleft()  # a bounded deque refuses insert() when full
        index = len(intervals)
        while index and intervals[index - 1][1] > end:
            index -= 1
        intervals.insert(index, (start, end))

    # -- MMU / utilization queries ------------------------------------------------------

    def observed_span(self) -> tuple[float, float]:
        """``(t0, t1)`` of the observation window on the monotonic clock."""
        t0 = self.start_mono if self.start_mono is not None else 0.0
        t1 = self.pause_intervals[-1][1] if self.pause_intervals else t0
        return t0, max(t0, t1)

    def mmu(self, window_s: float) -> float:
        t0, t1 = self.observed_span()
        return mmu(list(self.pause_intervals), window_s, t0, t1)

    def mmu_points(self, windows: Iterable[float]) -> list[tuple[float, float]]:
        t0, t1 = self.observed_span()
        return mmu_curve(list(self.pause_intervals), windows, t0, t1)

    def utilization_now(self, window_s: float = 1.0) -> float:
        """Mutator utilization over the trailing ``window_s`` seconds.

        Runs on every GC event, inside the pause, so it costs the pauses
        in the window, not the ring: ``pause_intervals`` is ordered by
        end (``_add_interval`` keeps it so, for the shared hub too), the
        walk starts at the newest and stops at the first interval ending
        at or before the window's start — every older one ends no later
        and cannot overlap.  The result is the full scan's.
        """
        t0, t1 = self.observed_span()
        if t1 <= t0:
            return 1.0
        start = max(t0, t1 - window_s)
        span = t1 - start
        if span <= 0:
            return 1.0
        busy = 0.0
        for s, e in reversed(self.pause_intervals):
            if e <= start:
                break
            # No interval ends after t1 (the newest end), so only the
            # start needs clipping.
            busy += e - (s if s > start else start)
        return max(0.0, (span - busy) / span)

    def utilization_buckets(self, bucket_s: float) -> list[tuple[float, float]]:
        t0, t1 = self.observed_span()
        return utilization_timeline(list(self.pause_intervals), t0, t1, bucket_s)

    def uptime_s(self) -> float:
        if self.start_mono is None:
            return 0.0
        return max(0.0, time.perf_counter() - self.start_mono)

    def __repr__(self) -> str:
        return (
            f"<MonitorHub {self.gc_events_seen} GC events, "
            f"{len(self.pause_intervals)} intervals, "
            f"slos={'on' if self.slos is not None else 'off'}>"
        )
