"""In-pause span tracing: phase spans, Perfetto export, mark attribution.

The observability ladder so far: telemetry (PR 1) records one event per
collection; snapshots (PR 3) record the heap at a collection.  This package
records what happens *inside* a collection — a strictly nested span per GC
phase (``collect`` → ``prologue`` / ``pause`` → ``ownership_phase`` /
``mark`` → ``root_scan`` / ``mark_drain`` / ``sweep``, plus
``lazy_sweep_slice`` between pauses), assertion-lifecycle instants, and
counter tracks — exported as Chrome ``trace_event`` JSON that Perfetto and
chrome://tracing load directly.

Entry points:

* :class:`~repro.tracing.spans.SpanTracer` — the recorder; a VM built with
  ``tracing=True`` owns one and shares it with its collector.
* :mod:`~repro.tracing.export` — Perfetto-loadable JSON + the validator the
  schema test and CI use.
* :mod:`~repro.tracing.report` — per-phase aggregation (``repro trace
  report``).
* :mod:`~repro.tracing.flame` — collapsed-stack flamegraph of mark work by
  (object type, allocation site).
* :mod:`~repro.tracing.top` — the live ``repro top`` terminal view.
* :mod:`~repro.tracing.distributed` — end-to-end request tracing across
  the multi-tenant service: W3C-style trace context on the wire, server
  request-lifecycle spans, and the merge layer that folds every tenant
  VM's trace into one multi-track Perfetto export.
"""

from repro.tracing.distributed import (
    DTRACE_SCHEMA,
    DistributedTracer,
    TraceContext,
    merge_service_trace,
    render_request_report,
    request_rows,
    write_merged_trace,
)
from repro.tracing.export import (
    TRACE_SCHEMA,
    chrome_trace_events,
    trace_payload,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.tracing.flame import collapsed_stacks, write_flamegraph
from repro.tracing.report import aggregate_spans, render_span_table
from repro.tracing.spans import MARK_ATTRIBUTION_UNTAGGED, SpanTracer
from repro.tracing.top import render_frame, run_top

__all__ = [
    "DTRACE_SCHEMA",
    "DistributedTracer",
    "MARK_ATTRIBUTION_UNTAGGED",
    "SpanTracer",
    "TRACE_SCHEMA",
    "TraceContext",
    "aggregate_spans",
    "chrome_trace_events",
    "collapsed_stacks",
    "merge_service_trace",
    "render_frame",
    "render_request_report",
    "render_span_table",
    "request_rows",
    "run_top",
    "trace_payload",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_flamegraph",
]
