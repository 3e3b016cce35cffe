"""Pluggable telemetry exporters.

A sink receives every :class:`~repro.telemetry.events.GcEvent` as it is
produced (push model); the Prometheus renderer is the complementary pull
model — it serializes the hub's *current* state into the text exposition
format a scraper would fetch.  Sinks must never throw into the collector's
pause: exporter failures are recorded on the sink and the GC proceeds.
"""

from __future__ import annotations

import io
import json
import re
from typing import TYPE_CHECKING, Optional, Protocol

from repro.telemetry.events import GcEvent

if TYPE_CHECKING:
    from repro.telemetry import Telemetry


class TelemetrySink(Protocol):
    """What the hub requires of an exporter."""

    def emit(self, event: GcEvent) -> None: ...

    def close(self) -> None: ...


class MemorySink:
    """Default sink: keeps every event in a plain list (tests, notebooks)."""

    def __init__(self) -> None:
        self.events: list[GcEvent] = []
        self.closed = False

    def emit(self, event: GcEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        self.closed = True

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink:
    """Streams one JSON object per event to a file (JSON-lines).

    The file opens lazily on the first event, so constructing a VM with a
    configured-but-unused sink touches no filesystem state.
    """

    def __init__(self, path: str):
        self.path = path
        self.lines_written = 0
        self.errors = 0
        self._file: Optional[io.TextIOBase] = None

    def emit(self, event: GcEvent) -> None:
        try:
            if self._file is None:
                self._file = open(self.path, "w")
            self._file.write(json.dumps(event.as_dict()) + "\n")
            self._file.flush()
            self.lines_written += 1
        except OSError:
            self.errors += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    @staticmethod
    def load(path: str) -> list[dict]:
        """Read a JSONL event file back as dicts (the round-trip helper)."""
        with open(path) as handle:
            return [json.loads(line) for line in handle if line.strip()]


def _fmt(value: float) -> str:
    """Prometheus sample formatting: integers bare, floats repr'd."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == float("inf"):
        return "+Inf"
    return repr(float(value))


def _escape_label(value: str) -> str:
    """Escape a label *value* per the exposition format: backslash first,
    then double-quote and newline (the three characters the format names)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """Escape HELP text: the format requires ``\\`` and newline escaping
    (quotes are legal in HELP, so they stay literal)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class ExpositionWriter:
    """Incremental Prometheus text-exposition builder.

    The ``metric``/``sample`` closure pair used to be copy-pasted by every
    exposition producer (telemetry, monitor, service); this is that pair as
    a class, so new metric families — including label-heavy ones like the
    service's per-``tenant`` families — are written once.  ``metric``
    declares a family (HELP + TYPE) and returns the namespaced name;
    ``sample`` appends one sample line; ``histogram`` expands a
    :class:`~repro.telemetry.histogram.LogHistogram` into the cumulative
    ``_bucket``/``_sum``/``_count`` triple.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []

    def metric(self, name: str, mtype: str, help_text: str) -> str:
        full = f"repro_{name}"
        self.lines.append(f"# HELP {full} {_escape_help(help_text)}")
        self.lines.append(f"# TYPE {full} {mtype}")
        return full

    def sample(self, full: str, value, labels: Optional[dict] = None) -> None:
        if labels:
            rendered = ",".join(
                f'{k}="{_escape_label(str(v))}"' for k, v in labels.items()
            )
            self.lines.append(f"{full}{{{rendered}}} {_fmt(value)}")
        else:
            self.lines.append(f"{full} {_fmt(value)}")

    def histogram(
        self, full: str, hist, labels: Optional[dict] = None
    ) -> None:
        """Expand a LogHistogram: cumulative buckets, +Inf, sum, count."""
        labels = dict(labels or {})
        cumulative = 0
        for upper, count in hist.nonzero_buckets():
            cumulative += count
            self.sample(f"{full}_bucket", cumulative, {**labels, "le": _fmt(upper)})
        self.sample(f"{full}_bucket", hist.count, {**labels, "le": "+Inf"})
        self.sample(f"{full}_sum", hist.total, labels or None)
        self.sample(f"{full}_count", hist.count, labels or None)

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_prometheus(telemetry: "Telemetry") -> str:
    """Serialize the hub's current state in Prometheus text exposition format."""
    writer = ExpositionWriter()
    metric, sample = writer.metric, writer.sample

    latest = telemetry.events.latest
    collector = latest.collector if latest is not None else "none"

    full = metric("gc_collections_total", "counter", "Collections observed, by kind.")
    for kind, count in sorted(telemetry.collections_by_kind.items()):
        sample(full, count, {"collector": collector, "kind": kind})

    full = metric("gc_events_dropped_total", "counter",
                  "GC events shed by the bounded ring buffer.")
    sample(full, telemetry.events.dropped)

    for name, hist, unit in (
        ("gc_pause_seconds", telemetry.pause_hist, "GC stop-the-world pause"),
        ("allocation_bytes", telemetry.alloc_hist, "Mutator allocation request size"),
        ("gc_ownees_checked", telemetry.ownees_hist, "Ownees checked per collection"),
    ):
        full = metric(name, "histogram", f"{unit} (log-scale buckets).")
        writer.histogram(full, hist)

    if latest is not None:
        full = metric("heap_live_bytes", "gauge", "Live heap bytes after the last GC.")
        sample(full, latest.bytes_after)
        full = metric("heap_occupancy_ratio", "gauge",
                      "Live bytes / heap budget after the last GC.")
        sample(full, latest.occupancy_after)
        full = metric("gc_sweep_debt_chunks", "gauge",
                      "Unswept chunks outstanding after the last GC "
                      "(lazy sweep; 0 when reclamation is exact).")
        sample(full, latest.sweep_debt_chunks)
        full = metric("gc_quarantine_depth", "gauge",
                      "Addresses fenced in the corruption quarantine after "
                      "the last GC (bounded; overflow is a typed failure).")
        sample(full, latest.quarantine_depth)

    census = telemetry.census.latest()
    if census:
        count_metric = metric("heap_live_objects", "gauge",
                              "Live instances per class at the last census.")
        for name, (count, _nbytes) in sorted(census.items()):
            sample(count_metric, count, {"class": name})
        bytes_metric = metric("heap_class_bytes", "gauge",
                              "Live bytes per class at the last census.")
        for name, (_count, nbytes) in sorted(census.items()):
            sample(bytes_metric, nbytes, {"class": name})

    if telemetry.violations_by_kind:
        full = metric("gc_assertion_violations_total", "counter",
                      "Assertion violations detected, by assertion kind.")
        for kind, count in sorted(telemetry.violations_by_kind.items()):
            sample(full, count, {"kind": kind})

    return writer.render()


# -- exposition-format conformance ------------------------------------------------------

_METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
_TYPES = frozenset({"counter", "gauge", "histogram", "summary", "untyped"})


def _scan_label_value(line: str, pos: int) -> Optional[int]:
    """Scan a quoted label value starting at ``line[pos] == '"'``; returns
    the index just past the closing quote, or None on a malformed escape
    or an unterminated value.  Only ``\\\\``, ``\\"`` and ``\\n`` escapes
    are legal in the exposition format."""
    i = pos + 1
    while i < len(line):
        ch = line[i]
        if ch == "\\":
            if i + 1 >= len(line) or line[i + 1] not in ('\\', '"', 'n'):
                return None
            i += 2
        elif ch == '"':
            return i + 1
        else:
            i += 1
    return None


def _validate_sample_line(line: str) -> Optional[str]:
    """One sample line; returns a problem description or None."""
    match = _METRIC_NAME_RE.match(line)
    if match is None:
        return "does not start with a metric name"
    i = match.end()
    if i < len(line) and line[i] == "{":
        i += 1
        while True:
            if i >= len(line):
                return "unterminated label set"
            if line[i] == "}":
                i += 1
                break
            name = _LABEL_NAME_RE.match(line, i)
            if name is None:
                return f"bad label name at column {i}"
            i = name.end()
            if i >= len(line) or line[i] != "=":
                return f"label {name.group()!r} missing '='"
            if i + 1 >= len(line) or line[i + 1] != '"':
                return f"label {name.group()!r} value is not quoted"
            end = _scan_label_value(line, i + 1)
            if end is None:
                return f"label {name.group()!r} value is unterminated or has a bad escape"
            i = end
            if i < len(line) and line[i] == ",":
                i += 1
    rest = line[i:]
    if not rest.startswith(" "):
        return "no space between name/labels and value"
    parts = rest.strip().split()
    if not parts or len(parts) > 2:
        return "expected '<value> [timestamp]' after the metric"
    value = parts[0]
    if value not in ("+Inf", "-Inf", "NaN"):
        try:
            float(value)
        except ValueError:
            return f"unparseable sample value {value!r}"
    if len(parts) == 2 and not parts[1].lstrip("-").isdigit():
        return f"unparseable timestamp {parts[1]!r}"
    return None


def validate_exposition(text: str) -> list[str]:
    """Conformance-check Prometheus text exposition format (version 0.0.4).

    Returns a list of problem strings (empty = conformant).  Checks line
    shapes, metric/label name charsets, label-value escaping, TYPE
    declarations, and that every sample's name matches a declared metric
    family (histograms may append ``_bucket``/``_sum``/``_count``).
    """
    problems: list[str] = []
    declared: dict[str, str] = {}
    if text and not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                continue  # plain comment, legal
            name = parts[2]
            if not _METRIC_NAME_RE.fullmatch(name):
                problems.append(f"line {lineno}: bad metric name {name!r}")
            elif parts[1] == "TYPE":
                mtype = parts[3].strip() if len(parts) > 3 else ""
                if mtype not in _TYPES:
                    problems.append(f"line {lineno}: unknown TYPE {mtype!r}")
                elif name in declared:
                    problems.append(f"line {lineno}: duplicate TYPE for {name}")
                else:
                    declared[name] = mtype
            continue
        problem = _validate_sample_line(line)
        if problem is not None:
            problems.append(f"line {lineno}: {problem} in {line!r}")
            continue
        name = _METRIC_NAME_RE.match(line).group()
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in declared:
                family = name[: -len(suffix)]
                break
        if declared and family not in declared:
            problems.append(f"line {lineno}: sample {name!r} has no TYPE declaration")
    return problems
