"""``python -m repro monitor`` — live SLO/utilization terminal view.

The frame loop is :func:`repro.tracing.top.run_live_view`: the workload runs
in a daemon thread while the main thread repaints a monitor frame — health score,
utilization sparkline-by-bucket, the MMU curve, and one line per SLO
objective with its budget and burn state.  Reads are lock-free; a frame
drawn mid-pause is at worst one event stale.
"""

from __future__ import annotations

import sys
from typing import Callable, Optional, TextIO, TYPE_CHECKING

from repro.monitor.health import health_report
from repro.monitor.mmu import DEFAULT_MMU_WINDOWS
from repro.tracing.top import run_live_view

if TYPE_CHECKING:
    from repro.monitor.timeseries import MonitorHub
    from repro.runtime.vm import VirtualMachine

#: Glyph ramp for the utilization strip (low → high mutator share).
_RAMP = " .:-=+*#%@"

#: Buckets shown in the utilization strip.
_STRIP_BUCKETS = 48


def _utilization_strip(hub: "MonitorHub") -> str:
    """The observed span rendered as ``_STRIP_BUCKETS`` utilization glyphs."""
    t0, t1 = hub.observed_span()
    span = t1 - t0
    if span <= 0:
        return "(no observations yet)"
    bucket_s = span / _STRIP_BUCKETS
    cells = hub.utilization_buckets(bucket_s)[:_STRIP_BUCKETS]
    glyphs = "".join(
        _RAMP[min(len(_RAMP) - 1, int(util * (len(_RAMP) - 1) + 0.5))]
        for _t, util in cells
    )
    return f"|{glyphs}| {span:.2f}s"


def render_monitor_frame(
    vm: "VirtualMachine", hub: "MonitorHub", frame_no: int, elapsed: float
) -> str:
    """One repaint: a pure read of hub + SLO state (no side effects)."""
    report = health_report(hub)
    lines: list[str] = []
    lines.append(
        f"repro monitor — {vm.collector.describe()}  "
        f"up {elapsed:6.1f}s  frame {frame_no}  "
        f"health {report['score']:.1f}/100 [{report['status']}]"
    )
    pauses = report["pauses"]
    lines.append(
        f"gc: {report['gc_events']} events | pauses: "
        f"p99={pauses['p99_s'] * 1e3:.2f}ms max={pauses['max_s'] * 1e3:.2f}ms "
        f"mean={pauses['mean_s'] * 1e3:.2f}ms | "
        f"occupancy {report['occupancy']:.0%} | "
        f"sweep debt {report['sweep_debt_chunks']} chunk(s)"
    )
    lines.append(f"utilization {_utilization_strip(hub)}")
    mmu_cells = "  ".join(
        f"{w * 1e3:g}ms={value:.2f}"
        for w, value in hub.mmu_points(DEFAULT_MMU_WINDOWS)
    )
    lines.append(f"MMU: {mmu_cells}")

    if hub.slos is not None:
        lines.append("SLOs:")
        for rule in hub.slos.rules:
            long_rate, short_rate = rule.burn_rates()
            state = "FIRING" if rule.firing else (
                "exhausted" if rule.budget_remaining() <= 0 else "ok"
            )
            rate = "inf" if long_rate == float("inf") else f"{long_rate:.2f}x"
            lines.append(
                f"  {rule.objective.name:<16} {state:<9} "
                f"budget {max(-9.99, rule.budget_remaining()):>6.0%}  "
                f"burn {rate:>7}/{'inf' if short_rate == float('inf') else f'{short_rate:.2f}x'}  "
                f"bad {rule.bad}/{rule.total}"
            )
    if hub.degradations_by_kind:
        cells = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(hub.degradations_by_kind.items())
        )
        lines.append(f"degradations: {cells}")
    if hub.alerts:
        lines.append(f"alerts ({len(hub.alerts)} transitions, newest first):")
        for alert in hub.alerts[-4:][::-1]:
            lines.append(f"  {alert.render()}")
    return "\n".join(lines)


def run_monitor(
    vm: "VirtualMachine",
    hub: "MonitorHub",
    runner: Callable[["VirtualMachine"], object],
    stream: Optional[TextIO] = None,
    **view,
) -> int:
    """Drive ``runner(vm)`` under live monitoring while repainting frames
    (:func:`~repro.tracing.top.run_live_view`, which ``view`` goes to).

    Returns the SLO exit code once the workload finishes: 0 all within
    budget, 1 budget exhausted or an alert firing — or 1 when the
    workload thread died.  (Configuration errors raise before this runs;
    the CLI maps them to exit 2.)
    """
    if stream is None:
        stream = sys.stdout
    rc = run_live_view(
        vm, runner, lambda vm, n, up: render_monitor_frame(vm, hub, n, up),
        stream=stream, **view,
    )
    if rc == 0 and hub.slos is not None and not hub.slos.healthy():
        status = hub.slos.status()
        stream.write(
            f"SLO breach: firing={status['firing']} exhausted={status['exhausted']}\n"
        )
        return 1
    return rc
