"""Zone-parallel marking: per-zone worklist drains with packet routing.

The sequential tracer (:mod:`repro.gc.tracer`) is one worklist; this module
splits that worklist by *zone* (see :mod:`repro.heap.zones`) and drains the
zones on a pool of mark workers:

* **Roots are partitioned by owning zone.**  The root scan itself stays
  sequential — it runs the engine's encounter protocol exactly as the
  sequential tracer would — and the seeded worklist is then split into
  per-zone stacks.
* **Each zone's marks are touched by one worker at a time.**  (They are
  entries of the collection's one mark set, ``heap.marks``; a set insert or
  probe is atomic under the GIL.)  A worker drains a zone's stack with a
  fused loop (same per-edge body as the sequential drains); an edge whose
  target lies in another zone is not examined locally but routed to the
  owning zone as part of an *in-set packet*.  The hot loop therefore needs
  no locks and no atomics: packet hand-off (one lock acquisition per
  :data:`PACKET_SIZE` edges, not per edge) is the only synchronized
  operation.
* **Work-stealing at packet/zone granularity.**  Zones are not pinned to
  workers: a zone with pending work (a non-empty stack or queued in-set
  packets) and no active owner sits in a ready queue any idle worker may
  claim.  With more zones than workers (the default: 8 zones) this
  rebalances naturally; an overflow of routed packets to one zone is
  simply more claimable work.

**Determinism.**  Work *counters* are schedule-independent: every non-NULL
edge is examined exactly once (either locally or by the zone that received
its packet), every object is marked exactly once, so ``objects_traced`` /
``edges_traced`` / ``header_bit_checks`` / ``instance_count_increments``
are bit-identical to the sequential drains for every worker count —
including ``workers=1``.  (``path_entries_tagged`` is the exception: the
parallel drain keeps no low-bit path worklist, so violation paths are
reported as unavailable and that counter stays untouched.)

**Assertions survive sharding** via a deterministic reduction step: workers
never call engine hooks from the hot loop.  They *record* assertion-relevant
encounters — first encounters whose header word matched
``DEAD_BIT | OWNEE_BIT | FREED_BIT`` (a zombie, whose replay raises),
repeat encounters with ``UNSHARED_BIT`` — plus per-zone per-class
instance-count partials.
After the pool joins, the coordinator merges instance partials into the
class descriptors, merges worker :class:`~repro.gc.stats.GcStats` partials
with :meth:`GcStats.merge` (summed work, no double-counted pause time), and
replays the recorded encounters through the engine's ``*_slow`` hooks in a
canonical sort order — all before ``post_mark`` evaluates, so the engine
sees exactly the state a sequential mark would have produced.  The set of
recorded encounters is itself schedule-independent (which *parent* a record
carries may vary with the schedule; violation kind/object/site never do).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.errors import InvalidAddressError
from repro.gc.stats import GcStats
from repro.heap import header as hdr
from repro.heap.layout import NULL
from repro.heap.zones import ZoneMap
from repro.tracing.spans import WORKER_TRACK_BASE

if TYPE_CHECKING:
    from repro.gc.base import Collector
    from repro.gc.tracer import Tracer

#: Cross-zone edges buffered per in-set packet before hand-off.  One lock
#: acquisition amortized over this many edges keeps routing off the hot path.
PACKET_SIZE = 64


class _ZoneState:
    """One zone's drainable state: a local stack and an in-set."""

    __slots__ = ("index", "stack", "inbox", "owned", "queued", "objects", "edges")

    def __init__(self, index: int):
        self.index = index
        #: Addresses marked into this zone and awaiting child expansion.
        self.stack: list[int] = []
        #: Routed in-set packets: lists of ``(parent_address, child_address)``.
        self.inbox: list[list[tuple[int, int]]] = []
        self.owned = False
        self.queued = False
        #: Deterministic per-zone work totals (only the owning worker writes
        #: them): the scaling curve's schedule-independent balance input.
        self.objects = 0
        self.edges = 0


class _Worker:
    """One mark worker's zone-local accumulators (merged after join)."""

    __slots__ = (
        "index",
        "stats",
        "first_records",
        "repeat_records",
        "instances",
        "buffers",
        "busy_seconds",
        "start_ts",
        "end_ts",
        "zones_drained",
        "packets_sent",
        "edges_routed",
        "error",
    )

    def __init__(self, index: int, zones: int):
        self.index = index
        #: Counter-only partial; timers stay zero (the pause is timed once,
        #: by the enclosing PhaseTimer — GcStats.merge keeps it that way).
        self.stats = GcStats()
        self.first_records: list[tuple[int, int]] = []
        self.repeat_records: list[tuple[int, int]] = []
        self.instances: dict = {}
        #: Per-target-zone outbound edge buffers (flushed as packets).
        self.buffers: list[list[tuple[int, int]]] = [[] for _ in range(zones)]
        self.busy_seconds = 0.0
        self.start_ts: Optional[float] = None
        self.end_ts: Optional[float] = None
        self.zones_drained = 0
        self.packets_sent = 0
        self.edges_routed = 0
        self.error: Optional[BaseException] = None


class ParallelMarkReport:
    """Per-pause summary of one parallel mark (bench + tests read this)."""

    __slots__ = (
        "workers",
        "zones",
        "busy_seconds",
        "objects_traced",
        "edges_traced",
        "zone_objects",
        "zone_edges",
        "packets_sent",
        "edges_routed",
        "zones_drained",
    )

    def __init__(self) -> None:
        self.workers = 0
        self.zones = 0
        self.busy_seconds: list[float] = []
        self.objects_traced: list[int] = []
        self.edges_traced: list[int] = []
        #: Per-zone work totals, indexed by zone — deterministic (an edge is
        #: always examined by its target's owning zone, whatever the
        #: schedule), unlike the per-worker splits above.
        self.zone_objects: list[int] = []
        self.zone_edges: list[int] = []
        self.packets_sent = 0
        self.edges_routed = 0
        self.zones_drained = 0

    def total_busy_seconds(self) -> float:
        return sum(self.busy_seconds)

    def work_balance_speedup(self) -> float:
        """Critical-path speedup: total mark work over the busiest worker.

        On a GIL build (or a single-core runner) wall-clock cannot shrink,
        so this is the schedule-quality number the scaling curve records
        alongside measured wall time: how much faster the same partition
        would finish with true hardware parallelism.
        """
        if not self.busy_seconds:
            return 1.0
        busiest = max(self.busy_seconds)
        if busiest <= 0.0:
            return 1.0
        return self.total_busy_seconds() / busiest

    def zone_balance_speedup(self, workers: Optional[int] = None) -> float:
        """Deterministic scaling bound from the per-zone edge loads.

        LPT-packs the per-zone work (edges examined) onto ``workers`` bins
        and returns total work over the busiest bin: the speedup an ideal
        zone-granular schedule achieves on true hardware parallelism.
        Unlike :meth:`work_balance_speedup` (which measures the *actual*
        schedule and degenerates on a GIL build, where one worker can hog
        the interpreter), this is a pure function of the heap partition —
        bit-identical across runs and machines — so a test can gate the
        scaling curve on it.
        """
        bins = max(1, workers if workers is not None else self.workers)
        loads = sorted((e for e in self.zone_edges if e), reverse=True)
        total = sum(loads)
        if not total:
            return 1.0
        heights = [0] * min(bins, len(loads))
        for load in loads:
            smallest = heights.index(min(heights))
            heights[smallest] += load
        return total / max(heights)

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "zones": self.zones,
            "busy_seconds": list(self.busy_seconds),
            "objects_traced": list(self.objects_traced),
            "edges_traced": list(self.edges_traced),
            "zone_objects": list(self.zone_objects),
            "zone_edges": list(self.zone_edges),
            "packets_sent": self.packets_sent,
            "edges_routed": self.edges_routed,
            "zones_drained": self.zones_drained,
            "work_balance_speedup": self.work_balance_speedup(),
            "zone_balance_speedup": self.zone_balance_speedup(),
        }

    def __repr__(self) -> str:
        return (
            f"<ParallelMarkReport workers={self.workers} zones={self.zones} "
            f"routed={self.edges_routed} balance={self.work_balance_speedup():.2f}x>"
        )


class ParallelMarker:
    """One parallel mark episode over a zoned heap.

    Eligibility is the caller's job (see ``Collector._parallel_eligible``).
    """

    def __init__(self, collector: "Collector", workers: int, zone_map: ZoneMap):
        self.collector = collector
        self.zone_map = zone_map
        self.workers = max(1, min(workers, zone_map.zones))
        self.report = ParallelMarkReport()
        self._zones = [_ZoneState(i) for i in range(zone_map.zones)]
        self._workers = [_Worker(i, zone_map.zones) for i in range(self.workers)]
        self._cond = threading.Condition()
        self._ready: deque[int] = deque()
        self._open_zones = 0
        self._done = False
        self._abort = False
        self._table: dict = {}
        self._marks: set[int] = set()
        self._engine = None
        self._repeats_armed = True

    # -- entry points ------------------------------------------------------------

    def mark(self, tracer: "Tracer", roots) -> None:
        """Sequential root scan (the encounter protocol) + parallel drain."""
        tracer.scan_roots(roots)
        self.drain(tracer)

    def drain(self, tracer: "Tracer") -> None:
        """Partition the seeded worklist by zone and drain on the pool."""
        self._table = tracer._table
        self._marks = tracer._marks
        engine = tracer.engine
        self._engine = engine
        self._repeats_armed = engine is None or engine.armed_checks()[1]
        self._partition(tracer)
        drain_zone = (
            self._drain_zone_plain if engine is None else self._drain_zone_engine
        )
        workers = self._workers
        if self.workers == 1:
            self._run_worker(workers[0], drain_zone)
        else:
            threads = [
                threading.Thread(
                    target=self._run_worker,
                    args=(worker, drain_zone),
                    name=f"mark-worker-{worker.index}",
                    daemon=True,
                )
                for worker in workers
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # Work counters and instance partials merge even on an aborted mark,
        # mirroring the sequential drains' finally-flush; the assertion
        # replay only runs on a completed mark.
        self._merge_stats(tracer)
        errors = [w.error for w in workers if w.error is not None]
        if errors:
            raise errors[0]
        self._replay_encounters()
        self._finish_report()
        self._emit_spans()
        self.collector.last_parallel_mark = self.report

    # -- partition ----------------------------------------------------------------

    def _partition(self, tracer: "Tracer") -> None:
        """Split the root-seeded worklist into per-zone stacks.

        Root objects were already marked (and counted, and checked) by the
        sequential root scan; the drain loops
        count only the objects they mark.
        """
        zone_of = self.zone_map.zone_of
        zones = self._zones
        seeds = tracer._stack  # the objects the root scan resolved
        tracer._stack = []
        for obj in seeds:
            address = obj.address
            zones[zone_of(address)].stack.append(address)
        ready = self._ready
        for zone in zones:
            if zone.stack:
                zone.queued = True
                ready.append(zone.index)

    # -- the worker loop ------------------------------------------------------------

    def _run_worker(self, worker: _Worker, drain_zone) -> None:
        cond = self._cond
        ready = self._ready
        zones = self._zones
        perf = time.perf_counter
        try:
            while True:
                with cond:
                    while True:
                        if self._abort or self._done:
                            return
                        if ready:
                            break
                        if self._open_zones == 0:
                            self._done = True
                            cond.notify_all()
                            return
                        cond.wait()
                    zone = zones[ready.popleft()]
                    zone.queued = False
                    zone.owned = True
                    self._open_zones += 1
                t0 = perf()
                if worker.start_ts is None:
                    worker.start_ts = t0
                try:
                    drain_zone(zone, worker)
                finally:
                    t1 = perf()
                    worker.busy_seconds += t1 - t0
                    worker.end_ts = t1
                    worker.zones_drained += 1
                    self._flush_all_buffers(worker)
                    with cond:
                        zone.owned = False
                        self._open_zones -= 1
                        if (zone.stack or zone.inbox) and not zone.queued:
                            zone.queued = True
                            ready.append(zone.index)
                            cond.notify()
                        elif self._open_zones == 0 and not ready:
                            self._done = True
                            cond.notify_all()
        except BaseException as exc:
            worker.error = exc
            with cond:
                self._abort = True
                cond.notify_all()

    # -- packet plumbing --------------------------------------------------------------

    def _send_packet(self, target: int, packet: list) -> None:
        """Hand one in-set packet to ``target``'s zone (the only lock on the
        routing path); wakes a worker when the zone becomes claimable."""
        zone = self._zones[target]
        with self._cond:
            zone.inbox.append(packet)
            if not zone.owned and not zone.queued:
                zone.queued = True
                self._ready.append(target)
                self._cond.notify()

    def _flush_all_buffers(self, worker: _Worker) -> None:
        """Flush every partial packet (a worker may not sleep on buffered
        edges — they are someone else's only remaining work)."""
        buffers = worker.buffers
        for target, buf in enumerate(buffers):
            if buf:
                buffers[target] = []
                worker.packets_sent += 1
                worker.edges_routed += len(buf)
                self._send_packet(target, buf)

    def _pull_inbox(self, zone: _ZoneState) -> list[list[tuple[int, int]]]:
        with self._cond:
            packets = zone.inbox
            zone.inbox = []
        return packets

    # -- fused zone drains -------------------------------------------------------------
    #
    # Same per-edge bodies as the sequential Tracer drains, with one extra
    # branch: a child owned by another zone is buffered, not examined.  The
    # duplication between the plain and engine variants (and between the
    # stack and packet halves of each) is deliberate, like the tracer's —
    # the hot path carries no mode conditionals.

    def _drain_zone_plain(self, zone: _ZoneState, worker: _Worker) -> None:
        table = self._table
        zone_of = self.zone_map.zone_of
        my = zone.index
        stack = zone.stack
        push = stack.append
        buffers = worker.buffers
        marks = self._marks
        mark = marks.add
        packet_limit = PACKET_SIZE
        objects = edges = 0
        try:
            while True:
                while stack:
                    obj = table[stack.pop()]
                    cls = obj.cls
                    refs = cls.ref_getter
                    if refs is not None:
                        children = refs(obj.slots)
                    elif cls.ref_array:
                        children = obj.slots
                    else:
                        continue
                    parent_address = obj.address
                    for child in children:
                        if child == NULL:
                            continue
                        target = zone_of(child)
                        if target != my:
                            buf = buffers[target]
                            buf.append((parent_address, child))
                            if len(buf) >= packet_limit:
                                buffers[target] = []
                                worker.packets_sent += 1
                                worker.edges_routed += packet_limit
                                self._send_packet(target, buf)
                            continue
                        edges += 1
                        if child in marks:
                            continue
                        if child not in table:
                            raise InvalidAddressError(f"no live object at {child:#x}")
                        mark(child)
                        objects += 1
                        push(child)
                packets = self._pull_inbox(zone)
                if not packets:
                    break
                for packet in packets:
                    for _parent, child in packet:
                        edges += 1
                        if child in marks:
                            continue
                        if child not in table:
                            raise InvalidAddressError(f"no live object at {child:#x}")
                        mark(child)
                        objects += 1
                        push(child)
        finally:
            zone.objects += objects
            zone.edges += edges
            stats = worker.stats
            stats.objects_traced += objects
            stats.edges_traced += edges

    def _drain_zone_engine(self, zone: _ZoneState, worker: _Worker) -> None:
        table = self._table
        zone_of = self.zone_map.zone_of
        my = zone.index
        stack = zone.stack
        push = stack.append
        buffers = worker.buffers
        firsts = worker.first_records
        repeats = worker.repeat_records
        instances = worker.instances
        marks = self._marks
        mark = marks.add
        repeats_armed = self._repeats_armed
        first_slow_bits = hdr.DEAD_BIT | hdr.OWNEE_BIT | hdr.FREED_BIT
        unshared_bit = hdr.UNSHARED_BIT
        packet_limit = PACKET_SIZE
        objects = edges = header_checks = instance_incrs = 0
        try:
            while True:
                while stack:
                    obj = table[stack.pop()]
                    cls = obj.cls
                    refs = cls.ref_getter
                    if refs is not None:
                        children = refs(obj.slots)
                    elif cls.ref_array:
                        children = obj.slots
                    else:
                        continue
                    parent_address = obj.address
                    for child in children:
                        if child == NULL:
                            continue
                        target = zone_of(child)
                        if target != my:
                            buf = buffers[target]
                            buf.append((parent_address, child))
                            if len(buf) >= packet_limit:
                                buffers[target] = []
                                worker.packets_sent += 1
                                worker.edges_routed += packet_limit
                                self._send_packet(target, buf)
                            continue
                        edges += 1
                        if child in marks:
                            header_checks += 1
                            if repeats_armed and table[child].status & unshared_bit:
                                repeats.append((child, parent_address))
                            continue
                        cobj = table[child]
                        mark(child)
                        objects += 1
                        header_checks += 1
                        if cobj.status & first_slow_bits:
                            firsts.append((child, parent_address))
                        ccls = cobj.cls
                        if ccls.instance_limit is not None:
                            instances[ccls] = instances.get(ccls, 0) + 1
                            instance_incrs += 1
                        push(child)
                packets = self._pull_inbox(zone)
                if not packets:
                    break
                for packet in packets:
                    for parent_address, child in packet:
                        edges += 1
                        if child in marks:
                            header_checks += 1
                            if repeats_armed and table[child].status & unshared_bit:
                                repeats.append((child, parent_address))
                            continue
                        cobj = table[child]
                        mark(child)
                        objects += 1
                        header_checks += 1
                        if cobj.status & first_slow_bits:
                            firsts.append((child, parent_address))
                        ccls = cobj.cls
                        if ccls.instance_limit is not None:
                            instances[ccls] = instances.get(ccls, 0) + 1
                            instance_incrs += 1
                        push(child)
        except KeyError as exc:
            raise InvalidAddressError(f"no live object at {exc.args[0]:#x}") from None
        finally:
            zone.objects += objects
            zone.edges += edges
            stats = worker.stats
            stats.objects_traced += objects
            stats.edges_traced += edges
            stats.header_bit_checks += header_checks
            stats.instance_count_increments += instance_incrs

    # -- the deterministic reduction step ----------------------------------------------

    def _merge_stats(self, tracer: "Tracer") -> None:
        """Fold worker partials into the collector's stats and classes.

        :meth:`GcStats.merge` combines the per-worker partials (counters
        sum; the zero timers stay zero — the pause is timed once by the
        enclosing PhaseTimer, never per worker), and the merged counters
        are then added onto the live stats object in place.
        """
        partials = [worker.stats for worker in self._workers]
        merged = partials[0].merge(*partials[1:])
        stats = tracer.stats
        for field in GcStats.COUNTER_FIELDS:
            value = getattr(merged, field)
            if value:
                setattr(stats, field, getattr(stats, field) + value)
        for worker in self._workers:
            for cls, count in worker.instances.items():
                cls.instance_count += count
            worker.instances = {}

    def _replay_encounters(self) -> None:
        """Replay recorded assertion encounters through the engine.

        Canonical sort order (by child address, then parent address) makes
        every parallel schedule — any worker count — produce the same
        violation sequence.  ``tracer=None`` means violation paths report
        as unavailable: the paper's root-to-object path needs the
        sequential low-bit worklist, which sharded drains do not keep.
        """
        engine = self._engine
        if engine is None:
            return
        table = self._table
        firsts: list[tuple[int, int]] = []
        repeats: list[tuple[int, int]] = []
        for worker in self._workers:
            firsts.extend(worker.first_records)
            repeats.extend(worker.repeat_records)
        firsts.sort()
        repeats.sort()
        slow_first = engine.on_first_encounter_slow
        slow_repeat = engine.on_repeat_encounter_slow
        for child, parent in firsts:
            slow_first(table[child], None, table.get(parent))
        for child, parent in repeats:
            slow_repeat(table[child], None, table.get(parent))

    def _finish_report(self) -> None:
        report = self.report
        report.workers = self.workers
        report.zones = self.zone_map.zones
        report.zone_objects = [zone.objects for zone in self._zones]
        report.zone_edges = [zone.edges for zone in self._zones]
        for worker in self._workers:
            report.busy_seconds.append(worker.busy_seconds)
            report.objects_traced.append(worker.stats.objects_traced)
            report.edges_traced.append(worker.stats.edges_traced)
            report.packets_sent += worker.packets_sent
            report.edges_routed += worker.edges_routed
            report.zones_drained += worker.zones_drained

    def _emit_spans(self) -> None:
        """Per-worker mark spans, recorded retroactively after the join.

        The recorder's begin/end stack is single-threaded, so workers never
        touch it live; instead each worker's busy window becomes one
        complete ("X") span on its own synthetic track, sorted by start
        time to keep the exported stream monotonic.
        """
        spans = self.collector.span_tracer
        if spans is None:
            return
        active = [w for w in self._workers if w.start_ts is not None]
        active.sort(key=lambda w: w.start_ts)
        for worker in active:
            spans.complete(
                f"mark_worker_{worker.index}",
                worker.start_ts,
                worker.end_ts,
                cat="gc",
                args={
                    "worker": worker.index,
                    "zones_drained": worker.zones_drained,
                    "objects": worker.stats.objects_traced,
                    "edges": worker.stats.edges_traced,
                    "packets_sent": worker.packets_sent,
                    "busy_ms": round(worker.busy_seconds * 1e3, 3),
                },
                track=WORKER_TRACK_BASE + worker.index,
            )
