"""Reference Chrome ``trace_event`` writers: the two this repo used to have.

Until the exporter was written once, a single VM's recording was turned into
rows by ``tracing/export.py:chrome_trace_events`` and a tenant's by a hand
copy in ``tracing/distributed.py`` (``_tenant_chrome_events``, with its own
metadata builder, balanced-pair filter and a horizon loop that indexed the
recorder's tuples a fifth time).  Both are kept here verbatim — only the
imports are gathered at the top — as the oracle ``tests/test_tracing.py``
and ``tests/test_tracing_distributed.py`` compare the one writer against,
byte for byte.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Optional

from repro.tracing.distributed import DTRACE_SCHEMA, TENANT_TRACK_BASE, DistributedTracer
from repro.tracing.export import TRACE_PID, TRACE_SCHEMA, TRACE_TID
from repro.tracing.spans import WORKER_TRACK_BASE


def chrome_trace_events(tracer: "SpanTracer") -> list[dict]:
    """Convert the recorder's event stream to Chrome trace_event dicts."""
    t0 = tracer.t0
    out: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "ts": 0,
            "args": {"name": "repro-vm"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "ts": 0,
            "args": {"name": "mutator+gc"},
        },
    ]
    # Synthetic worker lanes get thread_name metadata up front.
    worker_tracks = sorted({e[6] for e in tracer.events if e[0] == "X"})
    for track in worker_tracks:
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": track,
                "ts": 0,
                "args": {"name": f"mark-worker-{track - WORKER_TRACK_BASE}"},
            }
        )
    append = out.append
    for event in tracer.events:
        ph = event[0]
        if ph == "B":
            _ph, name, cat, ts, args = event
            row = {
                "name": name,
                "cat": cat,
                "ph": "B",
                "ts": (ts - t0) * 1e6,
                "pid": TRACE_PID,
                "tid": TRACE_TID,
            }
            if args:
                row["args"] = args
        elif ph == "E":
            _ph, name, ts = event
            row = {
                "name": name,
                "ph": "E",
                "ts": (ts - t0) * 1e6,
                "pid": TRACE_PID,
                "tid": TRACE_TID,
            }
        elif ph == "X":
            _ph, name, cat, ts, dur, args, track = event
            row = {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": (ts - t0) * 1e6,
                "dur": dur * 1e6,
                "pid": TRACE_PID,
                "tid": track,
            }
            if args:
                row["args"] = args
        elif ph == "i":
            _ph, name, cat, ts, args = event
            row = {
                "name": name,
                "cat": cat,
                "ph": "i",
                "s": "t",
                "ts": (ts - t0) * 1e6,
                "pid": TRACE_PID,
                "tid": TRACE_TID,
            }
            if args:
                row["args"] = args
        else:  # "C"
            _ph, name, ts, values = event
            row = {
                "name": name,
                "ph": "C",
                "ts": (ts - t0) * 1e6,
                "pid": TRACE_PID,
                "tid": TRACE_TID,
                "args": values,
            }
        append(row)
    return out


def trace_payload(tracer: "SpanTracer", meta: Optional[dict] = None) -> dict:
    """The full JSON-object-format payload for one recording."""
    other = {"schema": TRACE_SCHEMA}
    if meta:
        other.update(meta)
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def _matched_span_indices(events: list) -> set[int]:
    """Indices of B/E events forming balanced pairs in a SpanTracer stream.

    A tenant abandoned mid-collection leaves its tail span open; those
    unmatched events are dropped from the merged export (an auto-close
    would fabricate a duration) rather than failing validation.
    """
    matched: set[int] = set()
    stack: list[int] = []
    for idx, event in enumerate(events):
        ph = event[0]
        if ph == "B":
            stack.append(idx)
        elif ph == "E":
            if stack:
                matched.add(stack.pop())
                matched.add(idx)
    return matched


def _tenant_chrome_events(record: dict, pid: int, t0: float) -> list[dict]:
    """One traced tenant VM's SpanTracer stream as Chrome events.

    Mirrors :func:`~repro.tracing.export.chrome_trace_events` but on a
    synthetic tenant ``pid``, rebased to the merged trace's shared
    ``t0``, with every *top-level* span and instant re-parented under
    the owning request via ``trace_id`` / ``parent_span_id`` args.
    """
    tracer = record["tracer"]
    trace_args = {
        "trace_id": record["trace_id"],
        "parent_span_id": record["request_span_id"],
    }
    events = tracer.snapshot_events()
    matched = _matched_span_indices(events)
    out: list[dict] = []
    depth = 0
    for idx, event in enumerate(events):
        ph = event[0]
        if ph == "B":
            if idx not in matched:
                continue
            _ph, name, cat, ts, args = event
            row = {
                "name": name, "cat": cat, "ph": "B",
                "ts": (ts - t0) * 1e6, "pid": pid, "tid": TRACE_TID,
            }
            merged = dict(args) if args else {}
            if depth == 0:
                merged.update(trace_args)
            if merged:
                row["args"] = merged
            depth += 1
        elif ph == "E":
            if idx not in matched:
                continue
            _ph, name, ts = event
            row = {
                "name": name, "ph": "E",
                "ts": (ts - t0) * 1e6, "pid": pid, "tid": TRACE_TID,
            }
            depth -= 1
        elif ph == "X":
            _ph, name, cat, ts, dur, args, track = event
            row = {
                "name": name, "cat": cat, "ph": "X",
                "ts": (ts - t0) * 1e6, "dur": dur * 1e6,
                "pid": pid, "tid": track,
            }
            merged = dict(args) if args else {}
            merged.update(trace_args)
            if merged:
                row["args"] = merged
        elif ph == "i":
            _ph, name, cat, ts, args = event
            row = {
                "name": name, "cat": cat, "ph": "i", "s": "t",
                "ts": (ts - t0) * 1e6, "pid": pid, "tid": TRACE_TID,
            }
            merged = dict(args) if args else {}
            merged.update(trace_args)
            row["args"] = merged
        else:  # "C"
            _ph, name, ts, values = event
            row = {
                "name": name, "ph": "C",
                "ts": (ts - t0) * 1e6, "pid": pid, "tid": TRACE_TID,
                "args": values,
            }
        out.append(row)
    return out


def _tenant_metadata(record: dict, pid: int) -> list[dict]:
    name = f"tenant {record['tenant']} ({record['session']})"
    rows = [
        {
            "name": "process_name", "ph": "M", "pid": pid, "tid": TRACE_TID,
            "ts": 0,
            "args": {
                "name": name,
                "trace_id": record["trace_id"],
                "request_span_id": record["request_span_id"],
            },
        },
        {
            "name": "thread_name", "ph": "M", "pid": pid, "tid": TRACE_TID,
            "ts": 0, "args": {"name": "mutator+gc"},
        },
    ]
    worker_tracks = sorted(
        {e[6] for e in record["tracer"].snapshot_events() if e[0] == "X"}
    )
    for track in worker_tracks:
        rows.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": track,
            "ts": 0,
            "args": {"name": f"mark-worker-{track - WORKER_TRACK_BASE}"},
        })
    return rows


def merge_service_trace(
    tracer: DistributedTracer,
    tenants: list[dict],
    meta: Optional[dict] = None,
) -> dict:
    """One Chrome/Perfetto payload: server request lanes + tenant tracks.

    ``tenants`` rows come from ``AssertionService.traced_sessions``:
    ``{tenant, session, tracer, trace_id, request_span_id}``.  All
    events share one timebase (the earliest tracer ``t0``) and are
    globally sorted by timestamp — the sort is stable, so each track's
    own B/E nesting order survives — which is exactly what
    :func:`~repro.tracing.export.validate_chrome_trace` demands.
    """
    spans, lanes = tracer.snapshot()
    t0 = min([tracer.t0] + [record["tracer"].t0 for record in tenants])

    horizon = tracer.t0
    for span in spans:
        horizon = max(horizon, span["start"], span["end"] or span["start"])
    for record in tenants:
        for event in record["tracer"].snapshot_events():
            ph = event[0]
            if ph in ("E", "C"):
                ts = event[2]
            elif ph == "X":
                ts = event[3] + event[4]
            else:
                ts = event[3]
            horizon = max(horizon, ts)

    metadata: list[dict] = [
        {
            "name": "process_name", "ph": "M",
            "pid": TRACE_PID, "tid": TRACE_TID, "ts": 0,
            "args": {"name": "repro-service"},
        },
        {
            "name": "thread_name", "ph": "M",
            "pid": TRACE_PID, "tid": TRACE_TID, "ts": 0,
            "args": {"name": "wire+admission"},
        },
    ]
    for _key, (lane, label) in sorted(lanes.items(), key=lambda kv: kv[1][0]):
        metadata.append({
            "name": "thread_name", "ph": "M",
            "pid": TRACE_PID, "tid": lane, "ts": 0, "args": {"name": label},
        })

    events: list[dict] = []
    for span in spans:
        end = span["end"] if span["end"] is not None else horizon
        args = dict(span["args"])
        args["trace_id"] = span["trace_id"]
        args["span_id"] = span["span_id"]
        if span["parent_span_id"] is not None:
            args["parent_span_id"] = span["parent_span_id"]
        events.append({
            "name": span["name"], "cat": span["cat"], "ph": "X",
            "ts": (span["start"] - t0) * 1e6,
            "dur": max(0.0, end - span["start"]) * 1e6,
            "pid": TRACE_PID, "tid": span["lane"], "args": args,
        })
    for index, record in enumerate(tenants):
        pid = TENANT_TRACK_BASE + index
        metadata.extend(_tenant_metadata(record, pid))
        events.extend(_tenant_chrome_events(record, pid, t0))

    events.sort(key=lambda row: row["ts"])
    other = {
        "schema": DTRACE_SCHEMA,
        "tenant_tracks": len(tenants),
        "request_lanes": len(lanes),
    }
    if meta:
        other.update(meta)
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }
