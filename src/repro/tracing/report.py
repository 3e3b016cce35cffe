"""Span analysis: per-phase aggregation and the piggyback-cost report.

Two consumers of one recording:

* :func:`aggregate_spans` replays the begin/end stream into per-name
  ``count / total / self`` rows (self time = total minus the time spent in
  child spans), the table behind ``repro trace report`` and the "hottest
  phases" pane of ``repro top``.
* :func:`piggyback_report` measures the paper's "assertion checking
  piggybacks on the collector's existing work" claim (§2, §3.1) as numbers:
  what fraction of the run's cumulative mark time was plain tracing vs.
  §2.7 path bookkeeping vs. inlined header checks, plus the directly-timed
  §2.5.2 ownership phase.  Because one mark drain is a fused loop, the
  split cannot be observed in situ without perturbing it — instead the
  final heap is re-traced under each drain specialization (plain / paths /
  the one the run's engine selected) to calibrate unit costs, which then
  decompose the run's own deterministic work counters.  The replay is
  read-only: throwaway
  ``GcStats``, a mark set of its own per leg (dropped at the end),
  instance counters restored.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Optional

from repro.gc.stats import GcStats
from repro.gc.tracer import Tracer, armed_checks

if TYPE_CHECKING:
    from repro.runtime.vm import VirtualMachine

#: Trace-replay repetitions per leg; the minimum is used (interpreter noise
#: only ever adds time, so min is the best estimator of the true cost).
REPLAY_TRIALS = 3


# -- span aggregation --------------------------------------------------------------


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


# -- piggyback-cost attribution ----------------------------------------------------


class _NullInlineEngine:
    """An engine whose per-object duties are *only* the inlined fast path.

    Declaring ``INLINE_HEADER_CHECKS`` and answering ``armed_checks()`` as
    the run's engine does selects the drain the run executed
    (``_drain_paths_engine``: header-bit checks and instance counting in
    the loop, repeat edges read only while an ``assert-unshared`` is
    registered), while the hooks — reached only when leftover
    ``DEAD``/``OWNEE``/``UNSHARED`` header bits show actual assertion work,
    and from the root scan (``Tracer._reach``) — do nothing, so replaying a
    heap that still carries assertion bits stays read-only.
    """

    INLINE_HEADER_CHECKS = True

    def __init__(self, armed: tuple[bool, bool]):
        self._armed = armed

    def armed_checks(self) -> tuple[bool, bool]:
        return self._armed

    @staticmethod
    def on_first_encounter_slow(obj, tracer, parent) -> None:
        pass

    on_repeat_encounter_slow = on_first_encounter = on_repeat_encounter = (
        on_first_encounter_slow
    )


def _replay_leg(
    vm: "VirtualMachine", roots: list, engine, track_paths: bool
) -> tuple[float, GcStats]:
    """Trace the live heap once under one drain specialization."""
    best: Optional[float] = None
    stats: Optional[GcStats] = None
    for _ in range(REPLAY_TRIALS):
        trial = GcStats()
        tracer = Tracer(vm.heap, trial, engine=engine, track_paths=track_paths)
        t0 = time.perf_counter()
        tracer.trace(roots)
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
            stats = trial
    return best or 0.0, stats or GcStats()


def piggyback_report(vm: "VirtualMachine") -> dict:
    """Decompose the run's cumulative mark time into piggyback components.

    Requires the workload to be finished; forces ``sweep_all()`` so the
    heap table is exact and no pending chunk still needs the mark set the
    replay's tracers replace.
    """
    collector = vm.collector
    collector.sweep_all()
    heap = vm.heap
    run = vm.stats

    # A finished workload has usually torn down its roots, which would make
    # the calibration trace a no-op; fall back to rooting every residual
    # heap object so the unit costs are still measured on real object
    # graphs (the costs are per-edge/per-object, so the root set's identity
    # does not matter, only that the trace does representative work).
    roots = list(vm.root_entries())
    probe = Tracer(heap, GcStats(), engine=None, track_paths=False)
    probe.trace(roots)
    root_source = "run"
    if probe.stats.objects_traced == 0:
        roots = [("replay: residual heap", obj.address) for obj in heap]
        root_source = "synthetic (whole heap)"

    # Instance counters are bumped by the inline-engine leg; save/restore.
    limited = {
        obj.cls for obj in heap if obj.cls.instance_limit is not None
    }
    saved_counts = {cls: cls.instance_count for cls in limited}
    try:
        t_plain, s_plain = _replay_leg(vm, roots, engine=None, track_paths=False)
        t_paths, s_paths = _replay_leg(vm, roots, engine=None, track_paths=True)
        # The engine leg replays the drain the run's engine selected.  With
        # nothing armed (or no engine) that *is* the paths loop: the run read
        # no header, so no time is charged to header checks.
        armed = armed_checks(vm.engine) if vm.engine is not None else (False, False)
        if armed[0]:
            t_engine, s_engine = _replay_leg(
                vm, roots, _NullInlineEngine(armed), track_paths=True
            )
        else:
            t_engine, s_engine = t_paths, s_paths
    finally:
        heap.new_marks()  # no collection is running: leave no marks behind
        for cls, count in saved_counts.items():
            cls.instance_count = count

    edges = s_plain.edges_traced
    tagged = s_paths.path_entries_tagged
    checks = s_engine.header_bit_checks
    per_edge = t_plain / edges if edges else 0.0
    per_tag = max(0.0, t_paths - t_plain) / tagged if tagged else 0.0
    per_check = max(0.0, t_engine - t_paths) / checks if checks else 0.0

    # Decompose the run's own cumulative mark time via its work counters.
    # The unit-cost estimates carry replay noise, so when they overshoot the
    # measured total they are scaled down proportionally; the components
    # always sum to exactly ``mark_seconds``.
    mark_s = run.mark_seconds
    base_raw = run.edges_traced * per_edge
    path_raw = run.path_entries_tagged * per_tag
    check_raw = run.header_bit_checks * per_check
    raw_sum = base_raw + path_raw + check_raw
    scale = mark_s / raw_sum if raw_sum > mark_s > 0 else 1.0
    base_s, path_s, check_s = base_raw * scale, path_raw * scale, check_raw * scale
    other_s = max(0.0, mark_s - (base_s + path_s + check_s))

    def _component(seconds: float) -> dict:
        return {
            "seconds": seconds,
            "pct_of_mark": (100.0 * seconds / mark_s) if mark_s else 0.0,
        }

    gc_s = run.gc_seconds
    ownership_s = run.ownership_phase_seconds
    return {
        "mark_seconds": mark_s,
        "gc_seconds": gc_s,
        "components": {
            "plain_trace": _component(base_s),
            "path_bookkeeping": _component(path_s),
            "inline_header_checks": _component(check_s),
            "other": _component(other_s),
        },
        "ownership_phase": {
            "seconds": ownership_s,
            "pct_of_gc": (100.0 * ownership_s / gc_s) if gc_s else 0.0,
        },
        "run_counters": {
            "edges_traced": run.edges_traced,
            "path_entries_tagged": run.path_entries_tagged,
            "header_bit_checks": run.header_bit_checks,
        },
        "replay": {
            "live_objects": len(heap),
            "edges": edges,
            "roots": root_source,
            "calibration_scale": scale,
            "trials": REPLAY_TRIALS,
            "leg_seconds": {
                "plain": t_plain,
                "paths": t_paths,
                "paths_engine": t_engine,
            },
            "unit_costs_ns": {
                "per_edge": per_edge * 1e9,
                "per_path_tag": per_tag * 1e9,
                "per_header_check": per_check * 1e9,
            },
        },
    }


def render_piggyback(report: dict, indent: str = "") -> str:
    """Human-readable piggyback-cost report (the §3.1 decomposition)."""
    lines = [
        f"{indent}mark_drain attribution "
        f"(of {report['mark_seconds'] * 1e3:.2f}ms cumulative mark time):"
    ]
    labels = {
        "plain_trace": "plain tracing (Base)",
        "path_bookkeeping": "path bookkeeping (low-bit tagging)",
        "inline_header_checks": "inlined header checks",
        "other": "other (root scan, dispatch, slow hooks)",
    }
    for key, label in labels.items():
        component = report["components"][key]
        lines.append(
            f"{indent}  {label:<38} {component['pct_of_mark']:>6.1f}%  "
            f"({component['seconds'] * 1e3:.2f}ms)"
        )
    ownership = report["ownership_phase"]
    lines.append(
        f"{indent}ownership phase (measured directly):   "
        f"{ownership['pct_of_gc']:>6.1f}% of GC time "
        f"({ownership['seconds'] * 1e3:.2f}ms)"
    )
    units = report["replay"]["unit_costs_ns"]
    lines.append(
        f"{indent}unit costs (replayed {report['replay']['live_objects']} live "
        f"objects, {report['replay']['edges']} edges, "
        f"min of {report['replay']['trials']} trials): "
        f"{units['per_edge']:.0f}ns/edge, "
        f"+{units['per_path_tag']:.0f}ns/path-tag, "
        f"+{units['per_header_check']:.0f}ns/header-check"
    )
    return "\n".join(lines)
