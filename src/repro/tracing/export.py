"""Chrome ``trace_event`` JSON export — loadable in Perfetto directly.

The exported file follows the Trace Event Format's JSON-object form::

    {"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {...}}

* Span begins/ends become ``ph: "B"`` / ``ph: "E"`` duration events; the
  recorder's stack discipline guarantees they are balanced and properly
  nested, and :func:`validate_chrome_trace` (shared by the tier-1 schema
  test and the CI ``trace-smoke`` job) re-verifies it on the serialized
  form.
* Instants become ``ph: "i"`` with thread scope, counters ``ph: "C"``
  (Perfetto renders those as graph lanes — sweep debt over time).
* Parallel-mark worker windows become ``ph: "X"`` *complete* events on
  their own synthetic ``tid`` lanes (named ``mark-worker-N`` via metadata),
  so worker activity renders side by side under the ``mark`` span.
* Timestamps are microseconds relative to the tracer's ``t0`` — always
  monotonically non-decreasing because the recorder is single-threaded.
* ``ph: "M"`` metadata events name the process and thread tracks.

Everything runs in one simulated mutator thread (collections are
stop-the-world), so one ``(pid, tid)`` track carries all spans: in-pause
phases nest under ``collect``, lazy-sweep slices appear between pauses at
their true mutator-time position.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Optional, Union

from repro.tracing.spans import WORKER_TRACK_BASE

if TYPE_CHECKING:
    from repro.tracing.spans import SpanTracer

#: Schema tag recorded in ``otherData`` (the trace body itself is the
#: standard Chrome format; this versions *our* args/metadata layout).
TRACE_SCHEMA = "repro-trace/1"

#: Synthetic ids for the single simulated process/thread.
TRACE_PID = 1
TRACE_TID = 1


def metadata_row(kind: str, pid: int, tid: int, **args) -> dict:
    """``ph: "M"``: names a process (``kind="process_name"``) or a thread
    track (``"thread_name"``)."""
    return {"name": kind, "ph": "M", "pid": pid, "tid": tid, "ts": 0, "args": args}


def complete_row(
    name: str, cat: str, ts: float, dur: float, pid: int, tid: int, args: Optional[dict]
) -> dict:
    """``ph: "X"``: a span carrying its own duration (microseconds, like
    ``ts``) on track ``(pid, tid)``."""
    row = {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur, "pid": pid, "tid": tid}
    if args:
        row["args"] = args
    return row


def _unbalanced(events: list) -> set[int]:
    """Indices of the ``B`` events nothing closed and the ``E`` events that
    closed nothing.  A recording read while its VM is mid-collection (an
    abandoned tenant) ends in open spans; they are left out of the export —
    closing them here would invent a duration."""
    unclosed: list[int] = []
    stray: set[int] = set()
    for idx, event in enumerate(events):
        if event[0] == "B":
            unclosed.append(idx)
        elif event[0] == "E":
            if unclosed:
                unclosed.pop()
            else:
                stray.add(idx)
    return stray.union(unclosed)


def chrome_trace_events(
    tracer: "SpanTracer",
    pid: int = TRACE_PID,
    t0: Optional[float] = None,
    process: Optional[dict] = None,
    stamp: Optional[dict] = None,
) -> list[dict]:
    """One recording as Chrome trace_event dicts: the metadata naming its
    tracks, then its events in recorded order.

    The only place a recorder tuple becomes a row.  Alone, a recording is
    process ``TRACE_PID`` on its own clock; a merged export gives each one a
    ``pid``, the shared ``t0``, the ``process_name`` args, and the ``stamp``
    args that re-parent it under a request — put on every instant, worker
    span and *top-level* span, so the children follow their parent.
    """
    t0 = tracer.t0 if t0 is None else t0
    events = tracer.snapshot_events()
    out = [
        metadata_row("process_name", pid, TRACE_TID, **(process or {"name": "repro-vm"})),
        metadata_row("thread_name", pid, TRACE_TID, name="mutator+gc"),
    ]
    # Synthetic worker lanes get thread_name metadata up front.
    out += [
        metadata_row("thread_name", pid, track, name=f"mark-worker-{track - WORKER_TRACK_BASE}")
        for track in sorted({e[6] for e in events if e[0] == "X"})
    ]

    def main_row(ph: str, name: str, ts: float, cat: Optional[str] = None, **scope) -> dict:
        # Main-track rows share everything but ``cat`` (spans and instants)
        # and ``s`` (an instant's scope); key order is part of the format
        # the differential tests hold byte for byte.
        head = {"name": name} if cat is None else {"name": name, "cat": cat}
        return {**head, "ph": ph, **scope, "ts": (ts - t0) * 1e6, "pid": pid, "tid": TRACE_TID}

    def stamped(args: Optional[dict]) -> Optional[dict]:
        return {**(args or {}), **stamp} if stamp else args

    dropped = _unbalanced(events)
    depth = 0
    for idx, event in enumerate(events):
        ph = event[0]
        args = None
        if idx in dropped:
            continue
        if ph == "B":
            _ph, name, cat, ts, args = event
            row = main_row("B", name, ts, cat)
            if depth == 0:
                args = stamped(args)
            depth += 1
        elif ph == "E":
            row = main_row("E", event[1], event[2])
            depth -= 1
        elif ph == "X":
            _ph, name, cat, ts, dur, worker_args, track = event
            row = complete_row(
                name, cat, (ts - t0) * 1e6, dur * 1e6, pid, track, stamped(worker_args)
            )
        elif ph == "i":
            _ph, name, cat, ts, args = event
            row = main_row("i", name, ts, cat, s="t")
            args = stamped(args)
        else:  # "C"
            _ph, name, ts, values = event
            row = {**main_row("C", name, ts), "args": values}
        if args:
            row["args"] = args
        out.append(row)
    return out


def trace_envelope(events: list[dict], other: dict, meta: Optional[dict] = None) -> dict:
    """The JSON-object-format envelope around ``events``: ``other`` (the
    schema tag first) and the caller's ``meta`` become ``otherData``."""
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {**other, **(meta or {})},
    }


def trace_payload(tracer: "SpanTracer", meta: Optional[dict] = None) -> dict:
    """The full JSON-object-format payload for one recording."""
    return trace_envelope(chrome_trace_events(tracer), {"schema": TRACE_SCHEMA}, meta)


def write_payload(payload: dict, path: str) -> dict:
    """Serialize one export to ``path``; returns a small summary."""
    with open(path, "w") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return {
        "path": path,
        "events": len(payload["traceEvents"]),
        "file_bytes": os.path.getsize(path),
    }


def write_chrome_trace(
    tracer: "SpanTracer", path: str, meta: Optional[dict] = None
) -> dict:
    """Serialize the recording to ``path``; returns a small summary."""
    summary = write_payload(trace_payload(tracer, meta), path)
    summary["spans"] = tracer.spans_ended
    return summary


def validate_chrome_trace(source: Union[str, dict]) -> list[str]:
    """Check a trace (path or parsed payload) against the format contract.

    Returns a list of problem strings — empty means the trace is valid.
    Verified properties (the tier-1 schema test and CI both call this):

    * top level is an object with a ``traceEvents`` list;
    * every event carries ``ph``, ``pid``, ``tid``, and a numeric ``ts``;
    * timestamps are non-negative and monotonically non-decreasing;
    * ``B``/``E`` events balance per ``(pid, tid)`` with matching names
      (properly nested, nothing left open, no stray ``E``).
    """
    if isinstance(source, str):
        try:
            with open(source) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            return [f"cannot load {source}: {exc}"]
    else:
        payload = source
    problems: list[str] = []
    if not isinstance(payload, dict) or not isinstance(
        payload.get("traceEvents"), list
    ):
        return ["top level must be an object with a 'traceEvents' list"]
    events = payload["traceEvents"]
    stacks: dict[tuple, list[str]] = {}
    last_ts: Optional[float] = None
    for idx, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {idx}: not an object")
            continue
        ph = event.get("ph")
        if ph is None:
            problems.append(f"event {idx}: missing 'ph'")
            continue
        for field in ("pid", "tid"):
            if field not in event:
                problems.append(f"event {idx} ({ph} {event.get('name')}): missing {field!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {idx} ({ph} {event.get('name')}): missing numeric 'ts'")
            continue
        if ts < 0:
            problems.append(f"event {idx}: negative ts {ts}")
        if ph != "M":
            if last_ts is not None and ts < last_ts:
                problems.append(
                    f"event {idx} ({ph} {event.get('name')}): "
                    f"ts {ts} < previous {last_ts} (not monotonic)"
                )
            last_ts = ts
        track = (event.get("pid"), event.get("tid"))
        if ph == "B":
            stacks.setdefault(track, []).append(event.get("name", ""))
        elif ph == "E":
            stack = stacks.get(track)
            if not stack:
                problems.append(f"event {idx}: 'E' with no open span on {track}")
            else:
                opened = stack.pop()
                name = event.get("name")
                if name is not None and name != opened:
                    problems.append(
                        f"event {idx}: 'E' name {name!r} does not close open span {opened!r}"
                    )
    for track, stack in stacks.items():
        if stack:
            problems.append(f"track {track}: {len(stack)} span(s) left open: {stack}")
    return problems
