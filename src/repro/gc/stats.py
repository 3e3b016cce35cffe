"""Collector statistics: timers and deterministic work counters.

The paper evaluates overhead as wall-clock time (total, mutator, GC) on a
Pentium-M.  A Python simulator's wall clock is noisy at the single-digit-%
level the paper reports, so alongside the timers we keep *work counters*
(objects traced, header-bit checks, binary-search probes, …) that decompose
the overhead deterministically.  Benchmarks report both.
"""

from __future__ import annotations

import time
from operator import attrgetter
from typing import Optional


class GcStats:
    """Counters and timers accumulated across a VM's lifetime.

    ``TIMER_FIELDS`` are float seconds, everything else is an integer work
    counter; :meth:`snapshot` keeps the two groups apart so consumers never
    have to guess a field's unit from its name.
    """

    __slots__ = (
        "collections",
        "full_collections",
        "minor_collections",
        "gc_seconds",
        "ownership_phase_seconds",
        "mark_seconds",
        "sweep_seconds",
        "lazy_sweep_seconds",
        "objects_traced",
        "edges_traced",
        "objects_swept",
        "objects_freed",
        "bytes_freed",
        "chunks_swept",
        "alloc_fast_hits",
        "objects_promoted",
        "header_bit_checks",
        "instance_count_increments",
        "ownee_lookups",
        "ownee_search_probes",
        "ownees_checked",
        "path_entries_tagged",
        "assertion_checks",
        "violations_detected",
        "naive_ownership_visits",
        "weak_refs_cleared",
    )

    #: Float wall-clock accumulators (seconds).  ``lazy_sweep_seconds`` is
    #: the subset of sweep work done outside a GC pause, on the allocation
    #: slow path; it is *also* included in ``sweep_seconds`` so eager and
    #: lazy runs stay comparable on total sweep time.
    TIMER_FIELDS = (
        "gc_seconds",
        "ownership_phase_seconds",
        "mark_seconds",
        "sweep_seconds",
        "lazy_sweep_seconds",
    )

    #: Deterministic integer work counters (everything that isn't a timer).
    COUNTER_FIELDS = tuple(sorted(set(__slots__) - set(TIMER_FIELDS), key=__slots__.index))

    def __init__(self) -> None:
        for field in self.COUNTER_FIELDS:
            setattr(self, field, 0)
        for field in self.TIMER_FIELDS:
            setattr(self, field, 0.0)

    def snapshot(self) -> dict:
        """Typed snapshot: ``{"counters": {name: int}, "timers": {name: float}}``."""
        return {
            "counters": {f: getattr(self, f) for f in self.COUNTER_FIELDS},
            "timers": {f: getattr(self, f) for f in self.TIMER_FIELDS},
        }

    def copy(self) -> "GcStats":
        out = GcStats()
        for field in self.__slots__:
            setattr(out, field, getattr(self, field))
        return out

    def merge(self, *others: "GcStats") -> "GcStats":
        """Combine per-zone/per-worker partials of one pause.

        Partials observe the *same* wall-clock pause: work counters sum —
        every partial did distinct work — but timers take the elementwise
        maximum, because N workers inside one pause still cost one pause,
        not N.  Parallel-mark partials carry zero timers (the pause is
        timed once by the enclosing ``PhaseTimer``), so merging them can
        never inflate pause time.
        """
        out = self.copy()
        for other in others:
            for field in self.COUNTER_FIELDS:
                setattr(out, field, getattr(out, field) + getattr(other, field))
            for field in self.TIMER_FIELDS:
                mine = getattr(out, field)
                theirs = getattr(other, field)
                if theirs > mine:
                    setattr(out, field, theirs)
        return out

    def __repr__(self) -> str:
        return (
            f"<GcStats collections={self.collections} "
            f"gc={self.gc_seconds:.4f}s traced={self.objects_traced}>"
        )


class RecoveryStats:
    """Counters for the hardened recovery paths (quarantine, degradation, OOM).

    Kept separate from :class:`GcStats` on purpose: GcStats counters are
    gated bit-identical across benchmark modes, while recovery counters only
    move when something actually went wrong (or was injected).  Each sentinel
    repair counts on the field its :class:`~repro.gc.verify.Finding` names.
    """

    __slots__ = (
        "heap_degradations",
        "engine_degradations",
        "objects_quarantined",
        "refs_fenced",
        "cells_fenced",
        "stale_bits_cleared",
        "registry_scrubbed",
        "oom_recoveries",
        "heap_growths",
        "snapshot_failures",
    )

    def __init__(self) -> None:
        for field in self.__slots__:
            setattr(self, field, 0)

    def snapshot(self) -> dict:
        return {f: getattr(self, f) for f in self.__slots__}

    def total(self) -> int:
        return sum(getattr(self, f) for f in self.__slots__)

    def __repr__(self) -> str:
        return (
            f"<RecoveryStats heap_degradations={self.heap_degradations} "
            f"engine_degradations={self.engine_degradations} "
            f"oom_recoveries={self.oom_recoveries}>"
        )


#: Span name of the phase each ``GcStats`` timer times.  A
#: :class:`PhaseTimer` given another ``attr`` (and ``stats=None``) times a
#: phase with no timer of its own, and ``attr`` is its name.
PHASE_OF_TIMER = {
    "gc_seconds": "pause",
    "ownership_phase_seconds": "ownership_phase",
    "mark_seconds": "mark",
    "sweep_seconds": "sweep",
    "lazy_sweep_seconds": "lazy_sweep_slice",
}

#: The work counters a :class:`PauseRecord` notes as the pause begins.
PAUSE_COUNTERS = (
    "objects_traced", "edges_traced", "objects_swept", "objects_freed", "bytes_freed",
    "objects_promoted", "header_bit_checks", "ownees_checked", "violations_detected",
    "chunks_swept",
)
_pause_counters = attrgetter(*PAUSE_COUNTERS)


class PauseRecord:
    """One pause, as its consumers read it: built only when the collector
    has some (telemetry, a span tracer), handed to each once the pause
    timer has closed and the snapshot is flushed — ``record_pause(record,
    collector)``, the one way per-pause facts leave a collector — and
    dropped.  Telemetry makes the ``GcEvent`` of it, the tracer the spans.

    ``kind`` is ``"full"``, ``"minor"`` or ``"slice"`` (a lazy-sweep slice,
    which notes no heap); ``spans`` is the span tracer, for the mark
    attribution that must read the mark set inside the pause; ``readings``
    are :class:`PhaseTimer`'s ``(name, start, end, depth)`` in the order
    the phases began, ``depth`` the phases open around each; ``counters``
    are :data:`PAUSE_COUNTERS` as the pause begins, ``bytes_before`` /
    ``live_before`` the heap there.
    """

    __slots__ = ("kind", "trigger", "consumers", "spans", "readings", "depth", "counters",
                 "bytes_before", "live_before")

    def __init__(self, kind: str, trigger: str, collector):
        self.kind = kind
        self.trigger = trigger
        self.consumers, self.spans = collector.consumers, collector.span_tracer
        self.readings: list = []
        self.depth = 0
        self.counters = dict(zip(PAUSE_COUNTERS, _pause_counters(collector.stats)))
        self.bytes_before = self.live_before = 0

    def enter(self, collector) -> None:
        """Note the counters again, and the heap, where a collection's pause
        begins: after a full collection's prologue."""
        self.counters = dict(zip(PAUSE_COUNTERS, _pause_counters(collector.stats)))
        self.bytes_before = collector.bytes_in_use()
        self.live_before = len(collector.heap.live())


class PhaseTimer:
    """Context manager timing one phase: the only code in a collection
    that reads the clock.

    The elapsed seconds accumulate into ``stats.<attr>`` (``stats=None``:
    see :data:`PHASE_OF_TIMER`).  Given the pause's :class:`PauseRecord`,
    it keeps the same two ``perf_counter`` readings there, so a ``GcEvent``'s
    ``pause_s`` or a span's duration is the timer's increment bit for bit.
    """

    __slots__ = ("stats", "attr", "record", "_start", "_slot")

    def __init__(self, stats: Optional[GcStats], attr: str, record: Optional[PauseRecord] = None):
        self.stats = stats
        self.attr = attr
        self.record = record
        self._start = 0.0
        self._slot = 0

    def __enter__(self) -> "PhaseTimer":
        record = self.record
        if record is not None:
            # Phases stay in the order they began; the end fills the slot.
            self._slot = len(record.readings)
            record.readings.append(None)
            record.depth += 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        start = self._start
        stats = self.stats
        if stats is not None:
            setattr(stats, self.attr, getattr(stats, self.attr) + (end - start))
        record = self.record
        if record is not None:
            record.depth -= 1
            record.readings[self._slot] = (
                PHASE_OF_TIMER.get(self.attr, self.attr), start, end, record.depth
            )
