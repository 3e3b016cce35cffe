"""End-to-end request tracing across the multi-tenant assertion service.

PR 4's :class:`~repro.tracing.spans.SpanTracer` stops at the single-VM
boundary: it can show *that* a pause was long, but once PR 8 put many
tenant VMs behind one server, nothing connected a slow violation
delivery or an admission stall back to the GC pauses and assertion
checks that caused it.  This module closes that gap with three pieces:

* :class:`TraceContext` — W3C-traceparent-style context (32-hex
  ``trace_id``, 16-hex span ids) that clients stamp onto ``open`` and
  ``submit`` frames.  The ``repro-wire/1`` protocol already preserves
  unknown keys, so old servers ignore the stamps and old clients simply
  get server-rooted traces — no version negotiation needed.
* :class:`DistributedTracer` — the server-side recorder.  One per
  service, shared by the event loop and the executor threads (hence the
  lock — unlike ``SpanTracer``, which is single-threaded by
  construction).  It records the request lifecycle as explicit spans:
  ``request`` (open received → evicted), ``admission_wait`` (receipt →
  decision, queued retries included), ``admission_commit`` (time inside
  the ledger mutex), ``executor_wait`` (submit dispatched → workload
  thread picked it up), ``workload_execution``, and one
  ``violation_delivery`` span per violation frame (enqueued → bytes
  written — the same mono stamps the delivery-lag SLO scores).
* :func:`merge_service_trace` — folds the server's spans plus every
  traced tenant VM's ``SpanTracer`` stream into one Chrome/Perfetto
  export.  Requests get synthetic ``tid`` lanes on the server process;
  each tenant VM becomes its own synthetic process (``pid`` =
  ``TENANT_TRACK_BASE + n``, reusing PR 7's ``WORKER_TRACK_BASE``
  convention for synthetic tracks), so one timeline shows tenant A's
  violation-delivery lag overlapping tenant B's mark pause on the
  shared executor.  Tenant GC spans are re-parented under the owning
  request: top-level spans and instants carry ``trace_id`` /
  ``parent_span_id`` args pointing at the request span, and the tenant
  process metadata names the request, so every pause is reachable from
  the trace id a client (or a firing SLO alert exemplar) hands you.

All stamps are ``time.perf_counter()`` readings.  The merge happens in
the server process, so every tracer shares one monotonic clock and the
tracks align without cross-clock skew correction.
"""

from __future__ import annotations

import os
import re
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.tracing.export import (
    TRACE_PID,
    TRACE_TID,
    chrome_trace_events,
    complete_row,
    metadata_row,
    trace_envelope,
    write_payload,
)
from repro.tracing.spans import WORKER_TRACK_BASE

if TYPE_CHECKING:
    import random

#: Schema tag for merged multi-tenant exports (``otherData.schema``).
DTRACE_SCHEMA = "repro-dtrace/1"

#: Synthetic-track conventions, continuing PR 7's ``WORKER_TRACK_BASE``:
#: request lanes are ``tid`` s >= REQUEST_TRACK_BASE on the server
#: process; tenant VMs are ``pid`` s >= TENANT_TRACK_BASE.
REQUEST_TRACK_BASE = WORKER_TRACK_BASE
TENANT_TRACK_BASE = WORKER_TRACK_BASE

_TRACEPARENT = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def _hex_id(bits: int, rng: Optional["random.Random"] = None) -> str:
    """A random lowercase hex id; seeded when ``rng`` is given."""
    if rng is None:
        return os.urandom(bits // 8).hex()
    return format(rng.getrandbits(bits), f"0{bits // 4}x")


@dataclass(frozen=True)
class TraceContext:
    """One position in a distributed trace (W3C trace-context shaped).

    ``trace_id`` identifies the whole request tree; ``span_id`` is this
    participant's own span; ``parent_span_id`` is who created it.  The
    wire representation is two plain frame keys (``trace_id`` and
    ``parent_span_id``) rather than a packed header — the frames are
    already JSON — but :meth:`to_traceparent` / :meth:`from_traceparent`
    speak the standard ``00-{trace}-{span}-01`` form for interop.
    """

    trace_id: str
    span_id: str
    parent_span_id: Optional[str] = None

    @classmethod
    def new(cls, rng: Optional["random.Random"] = None) -> "TraceContext":
        """A fresh root context; pass a seeded ``rng`` for determinism."""
        return cls(trace_id=_hex_id(128, rng), span_id=_hex_id(64, rng))

    def child(self, rng: Optional["random.Random"] = None) -> "TraceContext":
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_hex_id(64, rng),
            parent_span_id=self.span_id,
        )

    def to_traceparent(self) -> str:
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_traceparent(cls, header: str) -> Optional["TraceContext"]:
        match = _TRACEPARENT.match(header.strip().lower())
        if match is None:
            return None
        return cls(trace_id=match.group(2), span_id=match.group(3))

    def stamp(self, frame: dict) -> dict:
        """Attach this context to an outbound wire frame, in place.

        The receiver parents its work under ``parent_span_id`` — this
        context's own span — exactly like a propagated traceparent.
        """
        frame["trace_id"] = self.trace_id
        frame["parent_span_id"] = self.span_id
        return frame

    @classmethod
    def from_frame(cls, frame: dict) -> Optional["TraceContext"]:
        """Recover the *sender's* position from a stamped frame.

        Returns None when the frame is unstamped (an old client) or the
        stamp is malformed — tracing must never reject a frame the wire
        protocol accepts.
        """
        trace_id = frame.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        parent = frame.get("parent_span_id")
        if not isinstance(parent, str) or not parent:
            parent = "0" * 16
        return cls(trace_id=trace_id, span_id=parent)


class DistributedTracer:
    """Thread-safe recorder for server-side request-lifecycle spans.

    Spans are plain dicts ``{name, cat, start, end, lane, trace_id,
    span_id, parent_span_id, args}`` with perf_counter stamps; span ids
    are a process-local counter rendered as 16-hex (deterministic, and
    collision-free within one service).  ``begin``/``end`` support the
    long-lived ``request`` span; everything else is recorded complete
    via :meth:`record`.  Lanes are synthetic ``tid`` s handed out in
    arrival order from ``REQUEST_TRACK_BASE``.
    """

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._open: dict[str, dict] = {}
        self._lanes: dict[str, tuple[int, str]] = {}
        self._lock = threading.Lock()
        self._next_id = 1

    def new_span_id(self) -> str:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return format(span_id, "016x")

    def lane(self, key: str, label: str) -> int:
        """The synthetic tid for ``key``, allocating (and naming) it once."""
        with self._lock:
            row = self._lanes.get(key)
            if row is None:
                row = (REQUEST_TRACK_BASE + len(self._lanes), label)
                self._lanes[key] = row
            return row[0]

    def begin(
        self,
        name: str,
        *,
        start: float,
        lane: int,
        trace_id: str,
        parent_span_id: Optional[str] = None,
        span_id: Optional[str] = None,
        cat: str = "request",
        args: Optional[dict] = None,
    ) -> str:
        """Open a long-lived span; finish it with :meth:`end`."""
        span_id = span_id or self.new_span_id()
        span = {
            "name": name, "cat": cat, "start": start, "end": None,
            "lane": lane, "trace_id": trace_id, "span_id": span_id,
            "parent_span_id": parent_span_id, "args": dict(args or {}),
        }
        with self._lock:
            self._open[span_id] = span
        return span_id

    def end(self, span_id: str, end: float, args: Optional[dict] = None) -> None:
        with self._lock:
            span = self._open.pop(span_id, None)
            if span is None:
                return
            span["end"] = end
            if args:
                span["args"].update(args)
            self.spans.append(span)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        lane: int,
        trace_id: str,
        parent_span_id: Optional[str] = None,
        cat: str = "service",
        args: Optional[dict] = None,
    ) -> str:
        """Record one already-finished span; returns its span id."""
        span_id = self.new_span_id()
        span = {
            "name": name, "cat": cat, "start": start, "end": max(start, end),
            "lane": lane, "trace_id": trace_id, "span_id": span_id,
            "parent_span_id": parent_span_id, "args": dict(args or {}),
        }
        with self._lock:
            self.spans.append(span)
        return span_id

    def snapshot(self) -> tuple[list[dict], dict[str, tuple[int, str]]]:
        """Consistent copy of (finished + still-open spans, lane table).

        Still-open spans (a request abandoned mid-run, a trace exported
        while serving) are returned with ``end=None``; the merge layer
        closes them at the export horizon.
        """
        with self._lock:
            spans = [dict(span) for span in self.spans]
            spans.extend(dict(span) for span in self._open.values())
            lanes = dict(self._lanes)
        return spans, lanes


def merge_service_trace(
    tracer: DistributedTracer,
    tenants: list[dict],
    meta: Optional[dict] = None,
) -> dict:
    """One Chrome/Perfetto payload: server request lanes + tenant tracks.

    ``tenants`` rows come from ``AssertionService.traced_sessions``:
    ``{tenant, session, tracer, trace_id, request_span_id}``.  Each tenant
    recording is :func:`~repro.tracing.export.chrome_trace_events` on its
    own synthetic ``pid``, stamped with the request it ran under; a server
    span is one ``X`` row on its request's lane.  All rows share one
    timebase (the earliest tracer ``t0``) and are globally sorted by
    timestamp — the sort is stable, so each track's own B/E nesting order
    survives — which is exactly what
    :func:`~repro.tracing.export.validate_chrome_trace` demands.
    """
    spans, lanes = tracer.snapshot()
    t0 = min([tracer.t0] + [record["tracer"].t0 for record in tenants])

    def lane_row(span: dict, dur: float) -> dict:
        args = {**span["args"], "trace_id": span["trace_id"], "span_id": span["span_id"]}
        if span["parent_span_id"] is not None:
            args["parent_span_id"] = span["parent_span_id"]
        return complete_row(
            span["name"], span["cat"], (span["start"] - t0) * 1e6, dur,
            TRACE_PID, span["lane"], args,
        )

    metadata = [
        metadata_row("process_name", TRACE_PID, TRACE_TID, name="repro-service"),
        metadata_row("thread_name", TRACE_PID, TRACE_TID, name="wire+admission"),
    ]
    for lane, label in sorted(lanes.values()):
        metadata.append(metadata_row("thread_name", TRACE_PID, lane, name=label))
    events = [
        lane_row(span, max(0.0, span["end"] - span["start"]) * 1e6)
        for span in spans
        if span["end"] is not None
    ]
    # A request abandoned mid-run, or an export taken while serving, is
    # still open: it ends at the horizon, the last instant any row covers.
    still_open = [lane_row(span, 0.0) for span in spans if span["end"] is None]
    events += still_open
    for index, record in enumerate(tenants):
        rows = chrome_trace_events(
            record["tracer"],
            pid=TENANT_TRACK_BASE + index,
            t0=t0,
            process={
                "name": f"tenant {record['tenant']} ({record['session']})",
                "trace_id": record["trace_id"],
                "request_span_id": record["request_span_id"],
            },
            stamp={
                "trace_id": record["trace_id"],
                "parent_span_id": record["request_span_id"],
            },
        )
        for row in rows:
            (metadata if row["ph"] == "M" else events).append(row)
    horizon = max((row["ts"] + row.get("dur", 0.0) for row in events), default=0.0)
    for row in still_open:
        row["dur"] = horizon - row["ts"]

    events.sort(key=lambda row: row["ts"])
    other = {
        "schema": DTRACE_SCHEMA,
        "tenant_tracks": len(tenants),
        "request_lanes": len(lanes),
    }
    return trace_envelope(metadata + events, other, meta)


def write_merged_trace(
    tracer: DistributedTracer,
    tenants: list[dict],
    path: str,
    meta: Optional[dict] = None,
) -> dict:
    """Serialize the merged export to ``path``; returns a small summary."""
    payload = merge_service_trace(tracer, tenants, meta)
    summary = write_payload(payload, path)
    summary["tenant_tracks"] = payload["otherData"]["tenant_tracks"]
    summary["request_lanes"] = payload["otherData"]["request_lanes"]
    return summary


# -- request breakdown report (the ``repro trace serve`` table) -------------------------


def request_rows(tracer: DistributedTracer) -> list[dict]:
    """Per-request lifecycle breakdown from the recorded server spans."""
    spans, _lanes = tracer.snapshot()
    children: dict[str, list[dict]] = {}
    for span in spans:
        parent = span.get("parent_span_id")
        if parent is not None:
            children.setdefault(parent, []).append(span)

    def _dur(span: dict) -> float:
        end = span["end"] if span["end"] is not None else span["start"]
        return max(0.0, end - span["start"])

    rows: list[dict] = []
    for span in spans:
        if span["name"] != "request":
            continue
        row = {
            "trace_id": span["trace_id"],
            "span_id": span["span_id"],
            "tenant": span["args"].get("tenant"),
            "session": span["args"].get("session"),
            "workload": span["args"].get("workload"),
            "outcome": span["args"].get("outcome"),
            "total_s": _dur(span),
            "admission_wait_s": 0.0,
            "admission_commit_s": 0.0,
            "executor_wait_s": 0.0,
            "execution_s": 0.0,
            "violations_delivered": 0,
            "max_delivery_lag_s": 0.0,
        }
        for child in children.get(span["span_id"], ()):
            if child["name"] == "admission_wait":
                row["admission_wait_s"] += _dur(child)
            elif child["name"] == "admission_commit":
                row["admission_commit_s"] += _dur(child)
            elif child["name"] == "executor_wait":
                row["executor_wait_s"] += _dur(child)
            elif child["name"] == "workload_execution":
                row["execution_s"] += _dur(child)
            elif child["name"] == "violation_delivery":
                row["violations_delivered"] += 1
                row["max_delivery_lag_s"] = max(
                    row["max_delivery_lag_s"], _dur(child)
                )
        rows.append(row)
    rows.sort(key=lambda row: (row["session"] is None, str(row["session"])))
    return rows


def render_request_report(rows: list[dict]) -> str:
    """Fixed-width per-request table for the CLI."""
    if not rows:
        return "no requests traced"
    header = (
        f"{'session':<8} {'tenant':<22} {'outcome':<12} "
        f"{'admit ms':>9} {'commit us':>10} {'xwait ms':>9} "
        f"{'exec ms':>9} {'viol':>5} {'maxlag ms':>10}  trace_id"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{str(row['session'] or '-'):<8} {str(row['tenant'])[:22]:<22} "
            f"{str(row['outcome'])[:12]:<12} "
            f"{row['admission_wait_s'] * 1e3:>9.2f} "
            f"{row['admission_commit_s'] * 1e6:>10.1f} "
            f"{row['executor_wait_s'] * 1e3:>9.2f} "
            f"{row['execution_s'] * 1e3:>9.2f} "
            f"{row['violations_delivered']:>5d} "
            f"{row['max_delivery_lag_s'] * 1e3:>10.2f}  {row['trace_id']}"
        )
    return "\n".join(lines)
