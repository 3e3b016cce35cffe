"""The span recorder: nested in-pause phase spans with negligible cost.

The telemetry subsystem (PR 1) sees whole collections; this layer sees
*inside* them.  A :class:`SpanTracer` records a strictly nested stream of
begin/end events — ``collect`` → ``prologue`` / ``pause`` →
``ownership_phase`` / ``mark`` (→ ``root_scan`` / ``mark_drain``) /
``sweep`` / ``lazy_sweep_slice`` — plus instant events for the assertion
lifecycle (``assertion_register`` → ``assertion_armed`` →
``assertion_checked`` / ``assertion_violated``) and snapshot captures, and
counter events for sweep debt.

Design bars, inherited from the telemetry and snapshot subsystems:

* **Zero overhead when off.**  A VM built without ``tracing=True`` leaves
  ``collector.span_tracer`` as ``None``; every emit site is one attribute
  load plus an ``is None`` test, and *no span object of any kind is
  allocated* (``tests/test_tracing.py::TestZeroOverheadWhenOff`` pins this).
* **Near-zero overhead when on.**  Spans are phase-granular — a handful per
  collection, never per object or per edge — so the hot drain loops from
  PR 2 are untouched.  Recording one span is two tuple appends.
* **Spans and counters can never disagree.**  The
  :class:`~repro.gc.stats.PhaseTimer` unification threads the *same*
  ``perf_counter`` readings into both the ``GcStats`` timer accumulators
  and the matching spans, so ``sum(span durations) == timer`` exactly —
  bit-for-bit, not approximately (a tier-1 test asserts ``==``).

The event stream is a flat list of tuples (cheapest possible record):

* ``("B", name, cat, ts, args)`` — span begin (``args`` may be ``None``)
* ``("E", name, ts)``            — span end (name repeated for exporters)
* ``("X", name, cat, ts, dur, args, track)`` — complete span on a synthetic
  track (parallel mark workers; see below)
* ``("i", name, cat, ts, args)`` — instant event
* ``("C", name, ts, values)``    — counter track sample (``{series: num}``)

``ts`` is a raw ``time.perf_counter()`` reading; exporters rebase to the
tracer's ``t0``.  Because the simulator is single-threaded, begin/end pairs
nest properly by construction — the exporter and the analysis replay both
verify it anyway.

Parallel mark workers are the one concurrent producer in the system, and
they do **not** emit into this stream live: the begin/end stack is
single-threaded state.  Instead the mark coordinator records each worker's
busy window after the pool joins, as a *complete* span (:meth:`complete`)
carrying its own duration and a synthetic ``track`` id, so worker lanes
render side by side under the ``mark`` span without ever touching the
begin/end stack.
"""

from __future__ import annotations

import time
from typing import Optional


__all__ = ["SpanTracer", "MARK_ATTRIBUTION_UNTAGGED", "WORKER_TRACK_BASE"]

#: Allocation-site key used for objects carrying no ``alloc_site`` tag.
MARK_ATTRIBUTION_UNTAGGED = "<untagged>"

#: Synthetic track-id base for parallel-mark worker lanes: worker *i*
#: records its complete spans with ``track=WORKER_TRACK_BASE + i``, and the
#: Chrome exporter turns each track into its own named ``tid`` lane.
WORKER_TRACK_BASE = 100


class _SpanContext:
    """Context manager returned by :meth:`SpanTracer.span`."""

    __slots__ = ("tracer", "name", "cat", "args")

    def __init__(self, tracer: "SpanTracer", name: str, cat: str, args):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self) -> "_SpanContext":
        self.tracer.begin(self.name, cat=self.cat, args=self.args)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.end()


class SpanTracer:
    """Records the begin/end/instant/counter event stream for one VM."""

    __slots__ = (
        "t0",
        "events",
        "_open",
        "attribute_marks",
        "mark_attribution",
        "spans_begun",
        "spans_ended",
    )

    def __init__(self, attribute_marks: bool = False):
        #: Epoch every exported timestamp is relative to.
        self.t0 = time.perf_counter()
        #: The flat event stream (see module docstring for tuple shapes).
        self.events: list[tuple] = []
        #: Names of currently open spans (the begin/end stack).
        self._open: list[str] = []
        #: When True, each full collection's mark phase is followed by a
        #: heap walk accumulating per-(type, alloc-site) mark work into
        #: :attr:`mark_attribution` (the flamegraph export's input).  Costs
        #: O(live objects) per GC, so it is opt-in even when tracing is on.
        self.attribute_marks = attribute_marks
        #: ``(type_name, alloc_site) -> [objects_marked, bytes_marked]``,
        #: cumulative over every attributed collection.
        self.mark_attribution: dict[tuple[str, str], list[int]] = {}
        self.spans_begun = 0
        self.spans_ended = 0

    # -- recording (the emit hot path) ---------------------------------------------

    def begin(
        self,
        name: str,
        cat: str = "gc",
        ts: Optional[float] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Open a span.  ``ts`` lets :class:`PhaseTimer` hand over the very
        reading it will also accumulate into ``GcStats`` — the
        counters-equal-spans guarantee."""
        if ts is None:
            ts = time.perf_counter()
        self.events.append(("B", name, cat, ts, args))
        self._open.append(name)
        self.spans_begun += 1

    def end(self, ts: Optional[float] = None) -> None:
        """Close the innermost open span."""
        if ts is None:
            ts = time.perf_counter()
        name = self._open.pop()
        self.events.append(("E", name, ts))
        self.spans_ended += 1

    def complete(
        self,
        name: str,
        start_ts: float,
        end_ts: float,
        cat: str = "gc",
        args: Optional[dict] = None,
        track: int = 0,
    ) -> None:
        """Record an already-finished span on a synthetic track.

        Used for per-worker parallel-mark lanes: the window is measured on
        the worker and recorded here retroactively (single-threaded), so
        the begin/end stack is never shared across threads.  Counts as one
        begun *and* one ended span — the balance invariant holds.
        """
        self.events.append(("X", name, cat, start_ts, end_ts - start_ts, args, track))
        self.spans_begun += 1
        self.spans_ended += 1

    def span(self, name: str, cat: str = "gc", **args) -> _SpanContext:
        """``with tracer.span("root_scan"):`` — begin/end as a context."""
        return _SpanContext(self, name, cat, args or None)

    def instant(self, name: str, cat: str = "gc", **args) -> None:
        """A zero-duration marker (assertion lifecycle, capture triggers)."""
        self.events.append(("i", name, cat, time.perf_counter(), args or None))

    def counter(self, name: str, **values) -> None:
        """A counter-track sample (renders as a graph lane in Perfetto)."""
        self.events.append(("C", name, time.perf_counter(), values))

    # -- mark-work attribution ------------------------------------------------------

    def record_mark_attribution(self, heap) -> None:
        """Accumulate this collection's mark work by (type, alloc site).

        Called by collectors between mark end and sweep begin, when
        ``heap.marks`` is exactly the set of objects this cycle's trace
        visited.  Pure observation: reads the set and the table, writes
        nothing, so the deterministic work counters are untouched.
        """
        attribution = self.mark_attribution
        untagged = MARK_ATTRIBUTION_UNTAGGED
        table = heap.address_table()
        for address in heap.marks:
            obj = table[address]
            key = (obj.cls.name, obj.alloc_site or untagged)
            row = attribution.get(key)
            if row is None:
                attribution[key] = [1, obj.size_bytes]
            else:
                row[0] += 1
                row[1] += obj.size_bytes

    # -- introspection ----------------------------------------------------------------

    @property
    def open_depth(self) -> int:
        return len(self._open)

    def snapshot_events(self) -> list[tuple]:
        """A consistent prefix of the event stream (safe to read while a
        workload thread is still appending: list slicing is atomic under
        the GIL, and analysis replays tolerate an unclosed tail)."""
        return self.events[:]

    def __repr__(self) -> str:
        return (
            f"<SpanTracer {self.spans_begun} spans "
            f"({len(self.events)} events, depth={len(self._open)})>"
        )
