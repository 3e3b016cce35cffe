"""Collector statistics: timers and deterministic work counters.

The paper evaluates overhead as wall-clock time (total, mutator, GC) on a
Pentium-M.  A Python simulator's wall clock is noisy at the single-digit-%
level the paper reports, so alongside the timers we keep *work counters*
(objects traced, header-bit checks, binary-search probes, …) that decompose
the overhead deterministically.  Benchmarks report both.
"""

from __future__ import annotations

import time
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
    # (TIMER_FIELDS can't be referenced inside a class-body genexp, so the
    # timer names are repeated literally; the consistency test pins them.)
    COUNTER_FIELDS = tuple(
        f
        for f in __slots__
        if f
        not in (
            "gc_seconds",
            "ownership_phase_seconds",
            "mark_seconds",
            "sweep_seconds",
            "lazy_sweep_seconds",
        )
    )

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

    def merged_with(self, other: "GcStats") -> "GcStats":
        out = GcStats()
        for field in self.__slots__:
            setattr(out, field, getattr(self, field) + getattr(other, field))
        return out

    def merge(self, *others: "GcStats") -> "GcStats":
        """Combine per-zone/per-worker partials of one pause.

        Unlike :meth:`merged_with` (which concatenates *disjoint* run
        windows and therefore sums everything), ``merge`` combines partials
        that observed the *same* wall-clock pause: work counters sum —
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

    def diff(self, other: "GcStats") -> "GcStats":
        """Per-window delta ``self - other`` (``other`` is the earlier
        snapshot); the telemetry layer uses this to attribute work and time
        to a single collection."""
        out = GcStats()
        for field in self.__slots__:
            setattr(out, field, getattr(self, field) - getattr(other, field))
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


class PhaseTimer:
    """Context manager accumulating elapsed seconds into a stats attribute.

    When a span recorder is attached (``spans``/``name``), the *same two*
    ``perf_counter`` readings that bound the accumulated interval are handed
    to ``spans.begin``/``spans.end`` as the span's timestamps.  That is the
    unification guarantee of the tracing subsystem: a phase's span durations
    sum to its ``GcStats`` timer with exact float equality — the two views
    are one measurement, so they can never disagree.  ``spans=None`` (every
    call site when tracing is off) costs two ``is None`` tests.
    """

    __slots__ = ("stats", "attr", "spans", "name", "elapsed", "_start")

    def __init__(self, stats: GcStats, attr: str, spans=None, name: Optional[str] = None):
        self.stats = stats
        self.attr = attr
        self.spans = spans
        self.name = name
        #: Last completed interval (lazy-sweep telemetry reads this).
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "PhaseTimer":
        self._start = start = time.perf_counter()
        if self.spans is not None:
            self.spans.begin(self.name, ts=start)
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.elapsed = elapsed = end - self._start
        setattr(self.stats, self.attr, getattr(self.stats, self.attr) + elapsed)
        if self.spans is not None:
            self.spans.end(ts=end)
