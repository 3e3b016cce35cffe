"""Span analysis: per-phase aggregation of one recording.

:func:`aggregate_spans` replays the begin/end stream into per-name
``count / total / self`` rows (self time = total minus the time spent in
child spans), and :func:`render_span_table` prints them: the table behind
``repro trace report`` and the "hottest phases" pane of ``repro top``.
What one mark edge costs under each drain (plain / paths / inlined header
checks) is the benchmark's ``gc.tracer.*_edges_per_s`` probes
(``python -m benchmarks.e2e layers``).
"""

from __future__ import annotations

from typing import Iterable, Optional


def aggregate_spans(events: Iterable[tuple]) -> dict[str, dict]:
    """Replay a recorder event stream into per-span-name aggregates.

    Returns ``{name: {"count", "total_s", "self_s", "max_s"}}``.  Tolerates
    an unclosed tail (a live recording read mid-span contributes nothing
    for the still-open frames).
    """
    out: dict[str, dict] = {}

    def add(name: str, duration: float, self_s: float) -> None:
        row = out.get(name)
        if row is None:
            out[name] = {
                "count": 1, "total_s": duration, "self_s": self_s, "max_s": duration,
            }
        else:
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += self_s
            if duration > row["max_s"]:
                row["max_s"] = duration

    # Stack frames: [name, begin_ts, child_seconds].
    stack: list[list] = []
    for event in events:
        ph = event[0]
        if ph == "B":
            stack.append([event[1], event[3], 0.0])
        elif ph == "X":
            # Complete span on a synthetic worker track: self-contained
            # duration, no stack interaction (worker lanes are flat), and —
            # living on its own track — it is not a child of whatever main
            # span happens to be open.
            add(event[1], event[4], event[4])
        elif ph == "E":
            if not stack:
                continue  # stray end (never produced by the recorder)
            name, begin_ts, child_s = stack.pop()
            duration = event[2] - begin_ts
            add(name, duration, duration - child_s)
            if stack:
                stack[-1][2] += duration
    return out


def render_span_table(
    aggregates: dict[str, dict], indent: str = "", top: Optional[int] = None
) -> str:
    """The fixed-width per-phase table (sorted by total time, descending;
    the ``top`` rows only when given — ``repro top``'s pane)."""
    if not aggregates:
        return f"{indent}(no spans recorded)"
    lines = [
        f"{indent}{'span':<18} {'count':>7} {'total':>10} {'self':>10} "
        f"{'mean':>9} {'max':>9}"
    ]
    ranked = sorted(aggregates.items(), key=lambda kv: kv[1]["total_s"], reverse=True)
    for name, row in ranked[:top]:
        mean_s = row["total_s"] / row["count"]
        lines.append(
            f"{indent}{name:<18} {row['count']:>7} "
            f"{row['total_s'] * 1e3:>8.2f}ms {row['self_s'] * 1e3:>8.2f}ms "
            f"{mean_s * 1e6:>7.1f}us {row['max_s'] * 1e3:>7.2f}ms"
        )
    return "\n".join(lines)
