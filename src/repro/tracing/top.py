"""``python -m repro top`` — a live terminal view of a running VM.

The workload runs in a daemon thread; the main thread repaints a summary
frame every ``interval`` seconds from the VM's telemetry hub and span
recorder.  Reads are lock-free on purpose: list slicing is atomic under the
GIL, the span-aggregation replay tolerates an unclosed tail (a frame drawn
mid-pause simply omits the open spans), and histogram counters are only
ever incremented — a torn read is at worst one sample stale.

Each frame shows the operator's first four questions about a GC-heavy
process: how long are pauses (p50/p90/p99), is sweep debt building up, who
is growing (census slopes), and where inside the pause time goes (hottest
spans).  ``--frames``/``--interval`` bound the run for CI and tests;
without a tty the frame separator degrades from ANSI home+clear to a plain
divider line so output stays readable in a pipe.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, Optional, TextIO, TYPE_CHECKING

from repro.tracing.report import aggregate_spans, render_span_table

if TYPE_CHECKING:
    from repro.runtime.vm import VirtualMachine

#: ANSI cursor-home + clear-screen, the tty frame separator.
_ANSI_CLEAR = "\x1b[H\x1b[2J"

#: Rows shown in the hottest-phases and census panes.
TOP_SPANS = 6
TOP_CLASSES = 5


def render_frame(vm: "VirtualMachine", frame_no: int, elapsed: float) -> str:
    """One repaint: a pure read of telemetry + span state (no side effects)."""
    lines: list[str] = []
    stats = vm.stats
    lines.append(
        f"repro top — {vm.collector.describe()}  "
        f"up {elapsed:6.1f}s  frame {frame_no}"
    )
    live = len(vm.heap)
    lines.append(
        f"heap: {vm.collector.bytes_in_use()}/{vm.collector.heap_bytes} bytes, "
        f"{live} objects live | collections: {stats.collections} "
        f"({stats.full_collections} full, {stats.minor_collections} minor)"
    )

    telemetry = vm.telemetry
    if telemetry is not None and telemetry.pause_hist.count:
        pauses = telemetry.pause_hist
        lines.append(
            f"pauses: p50={pauses.percentile(50) * 1e3:.2f}ms "
            f"p90={pauses.percentile(90) * 1e3:.2f}ms "
            f"p99={pauses.percentile(99) * 1e3:.2f}ms "
            f"max={pauses.max_value * 1e3:.2f}ms "
            f"({pauses.count} collections)"
        )
    else:
        lines.append("pauses: (no collections yet)")

    debt = vm.collector.sweep_debt()
    debt_line = f"sweep debt: {debt} chunk(s) outstanding"
    if telemetry is not None:
        slices = getattr(telemetry, "lazy_slice_hist", None)
        if slices is not None and slices.count:
            debt_line += (
                f" | slice latency p50={slices.percentile(50) * 1e6:.0f}us "
                f"p99={slices.percentile(99) * 1e6:.0f}us "
                f"({slices.count} slices)"
            )
    lines.append(debt_line)

    tracer = vm.span_tracer
    if tracer is not None:
        aggregates = aggregate_spans(tracer.snapshot_events())
        if aggregates:
            lines.append(f"hottest phases (top {TOP_SPANS} by total time):")
            lines.append(render_span_table(aggregates, indent="  ", top=TOP_SPANS))

    if telemetry is not None and telemetry.census.samples >= 2:
        slopes = telemetry.census.slopes()
        growing = sorted(
            ((name, slope) for name, slope in slopes.items() if slope > 0),
            key=lambda kv: kv[1],
            reverse=True,
        )
        if growing:
            lines.append(f"census slopes (top {TOP_CLASSES} growing, bytes/GC):")
            for name, slope in growing[:TOP_CLASSES]:
                lines.append(f"  {name:<24} {slope:>+12.1f}")

    if vm.engine is not None and len(vm.engine.log):
        lines.append(f"assertion violations: {len(vm.engine.log)} (see report)")
    return "\n".join(lines)


def run_live_view(
    vm: "VirtualMachine",
    runner: Callable[["VirtualMachine"], object],
    render: Callable[["VirtualMachine", int, float], str],
    interval: float = 1.0,
    frames: Optional[int] = None,
    stream: Optional[TextIO] = None,
    ansi: Optional[bool] = None,
    clock: Callable[[], float] = time.perf_counter,
    wait: Callable[[threading.Thread, float], None] = threading.Thread.join,
) -> int:
    """Drive ``runner(vm)`` in a daemon thread while repainting
    ``render(vm, frame number, seconds up)`` — the one frame loop under
    ``repro top`` and ``repro monitor --watch``.

    Returns 0, or 1 when the workload thread died on an exception (its
    message is printed after the final frame).  Stops after ``frames``
    repaints even if the workload is still running — the CI smoke mode;
    ``frames=None`` runs until the workload finishes and then draws one
    final settled frame.  Time comes in through ``clock`` and
    ``wait(worker, interval)``, which returns once the interval has passed
    or the worker is done: a test passes ones that never sleep.
    """
    if stream is None:
        stream = sys.stdout
    if ansi is None:
        ansi = hasattr(stream, "isatty") and stream.isatty()
    error: list[BaseException] = []

    def _drive() -> None:
        try:
            runner(vm)
        except BaseException as exc:  # surfaced after the final frame
            error.append(exc)

    worker = threading.Thread(target=_drive, name="repro-view-workload", daemon=True)
    start = clock()
    worker.start()
    frame_no = 0
    while True:
        frame_no += 1
        frame = render(vm, frame_no, clock() - start)
        if ansi:
            stream.write(_ANSI_CLEAR)
        elif frame_no > 1:
            stream.write("\n" + "-" * 72 + "\n")
        stream.write(frame)
        stream.write("\n")
        stream.flush()
        if frames is not None and frame_no >= frames:
            break
        if not worker.is_alive():
            break
        # A worker that finishes during the wait gets one more pass, so the
        # final frame reflects the settled state.
        wait(worker, interval)
    if worker.is_alive():
        stream.write(f"(workload still running after {frame_no} frames; detaching)\n")
    if error:
        stream.write(f"workload failed: {error[0]!r}\n")
        return 1
    return 0


def run_top(vm: "VirtualMachine", runner, **view) -> int:
    """``repro top``: :func:`run_live_view` painting :func:`render_frame`
    (``view`` is its ``interval``/``frames``/``stream``/... arguments)."""
    return run_live_view(vm, runner, render_frame, **view)
