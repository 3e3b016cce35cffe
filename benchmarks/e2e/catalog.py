"""Every workload and metric the benchmark emits, declared once.

``BENCHMARK.json`` at the repository root repeats the names, units,
directions and bounds; ``selftest`` fails when the two disagree.  What the
JSON cannot hold lives only here: where a layer metric comes from
(``T`` = the traced run of the workload, ``L`` = an isolated probe) and
which end-to-end metric, on which workload, it is expected to move.
"""

from __future__ import annotations

from typing import NamedTuple


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    src: str      # "T" traced run, "L" isolated probe
    moves: str    # predicted end-to-end metric -> workload (and *not* on)


WORKLOADS = (
    Workload("live_graph", "survivors dominate: 80% of a pause is the tracer, so mark work shows and allocator work does not"),
    Workload("churn", "garbage dominates: sweep and allocation carry the run, so a tracer gain that costs sweep shows as a loss"),
    Workload("asserted_db", "the paper's Fig 4/5 case: the ownership phase does most of the GC work and planted verdicts give a known answer"),
    Workload("served_mix", "short mixed sessions through the service: the per-session tax (wire, admission, VM build, executor) is a large share"),
    Workload("served_stream", "one session streams 2k frames: queue, writer, codec and client decode carry the run, the per-session tax does not"),
)

# One unit is one round (live_graph), one run_synthetic call (churn), one
# run_db call (asserted_db) or one session (served_*).  The measured leg is
# Infrastructure, WithAssertions or the served session; its base is the Base
# VM or the same workload run directly.  A ``cal`` is the run time of the
# benchmark's calibration kernel measured beside the sample (calibrate.py):
# wall-clock medians drift by a fifth on a shared box, calibrated ones do not.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, "imports plus the median of the set-up repetitions (graph/VM build, service start, reference runs)"),
    EndToEnd("unit_cal", "cal", "lower", 0.25, "median over cycles of the measured leg's mean unit wall time, calibrated"),
    EndToEnd("gc_share", "share", "lower", 0.20, "time inside collector.collect over the measured leg's unit time"),
    EndToEnd("pause_p50_cal", "cal", "lower", 0.25, "median collector.collect call of the measured leg, timed by the one wrapper, calibrated"),
    EndToEnd("pause_p90_cal", "cal", "lower", 0.25, "90th percentile of the same calls"),
    EndToEnd("vs_base_gc_ratio", "x", "lower", 0.25, "median over cycles of measured-leg GC time over base-leg GC time (paper Figs 3 and 5)"),
    EndToEnd("vs_base_wall_ratio", "x", "lower", 0.25, "median over cycles of measured-leg unit time over base-leg unit time (paper Figs 2 and 4)"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, "ru_maxrss of the benchmark process"),
)

_T, _L = "T", "L"

PER_LAYER = (
    # -- the collector ---------------------------------------------------------------
    Layer("gc.tracer.scan_roots_s", "s", "lower", _T, "pause_p50_cal, gc_share -> live_graph"),
    Layer("gc.tracer.drain_s", "s", "lower", _T, "pause_p50_cal, gc_share -> live_graph (not churn beyond ~25% of its GC)"),
    Layer("gc.tracer.edges_per_s", "1/s", "higher", _T, "pause_p50_cal -> live_graph"),
    Layer("gc.tracer.plain_edges_per_s", "1/s", "higher", _L, "vs_base_gc_ratio -> live_graph (the Base drain)"),
    Layer("gc.tracer.paths_edges_per_s", "1/s", "higher", _L, "vs_base_gc_ratio -> live_graph"),
    Layer("gc.tracer.engine_edges_per_s", "1/s", "higher", _L, "pause_p50_cal, vs_base_gc_ratio -> live_graph (the Infrastructure drain)"),
    Layer("gc.tracer.snapshot_edges_per_s", "1/s", "higher", _L, "none of the five; sized for the one-tracer-loop item"),
    Layer("gc.tracer.generic_edges_per_s", "1/s", "higher", _L, "none of the five; the unspecialised loop the specialised ones must beat"),
    Layer("gc.lazysweep.sweep_s", "s", "lower", _T, "gc_share, pause_p90_cal -> churn (small on live_graph)"),
    Layer("gc.lazysweep.ns_per_cell", "ns", "lower", _T, "pause_p50_cal -> churn"),
    Layer("gc.lazysweep.sweep_all_ns_per_cell", "ns", "lower", _L, "pause_p50_cal -> churn (lazy discipline: sweep_all after a mark-only collect)"),
    Layer("gc.marksweep.collect_s", "s", "lower", _T, "gc_share -> every workload"),
    Layer("gc.marksweep.collections", "count", "lower", _T, "gc_share -> every workload"),
    Layer("gc.marksweep.other_s", "s", "lower", _T, "pause_p50_cal -> churn, served_stream (prologue, telemetry, finish)"),
    Layer("gc.marksweep.allocate_ns", "ns", "lower", _T, "unit_cal -> churn (not live_graph pause_p50_cal)"),
    Layer("gc.marksweep.allocate_ns.isolated", "ns", "lower", _L, "unit_cal -> churn"),
    Layer("gc.marksweep.alloc_fast_hit_share", "share", "higher", _T, "unit_cal -> churn"),
    Layer("heap.freelist.alloc_free_ns", "ns", "lower", _L, "unit_cal -> churn; decides the three-allocators item"),
    Layer("heap.blocks.alloc_free_ns", "ns", "lower", _L, "none of the five (blocks policy is not the default)"),
    Layer("heap.zones.alloc_free_ns", "ns", "lower", _L, "none of the five (zones need gc_workers > 0)"),
    Layer("heap.install_ns", "ns", "lower", _L, "unit_cal -> churn"),
    Layer("gc.parallel.collect_ms.w1", "ms", "lower", _L, "would move pause_p50_cal -> live_graph if made the default"),
    Layer("gc.parallel.collect_ms.w2", "ms", "lower", _L, "same, at nproc workers"),
    Layer("gc.parallel.vs_sequential.w1", "x", "higher", _L, "documents the prove-or-delete item (sequential / parallel pause)"),
    Layer("gc.parallel.vs_sequential.w2", "x", "higher", _L, "same, at nproc workers"),
    Layer("gc.generational.minor_ms_p50", "ms", "lower", _L, "none of the five; a drain change must not lose here"),
    Layer("gc.generational.churn_wall_s", "s", "lower", _L, "none of the five; same"),
    Layer("gc.semispace.collect_ms", "ms", "lower", _L, "none of the five; same"),
    # -- the assertion engine --------------------------------------------------------
    Layer("core.ownership.pre_mark_s", "s", "lower", _T, "vs_base_gc_ratio, gc_share -> asserted_db (zero elsewhere)"),
    Layer("core.ownership.ns_per_ownee", "ns", "lower", _T, "vs_base_gc_ratio -> asserted_db"),
    Layer("core.ownership.probes_per_lookup", "count", "lower", _T, "vs_base_gc_ratio -> asserted_db"),
    Layer("core.engine.post_mark_s", "s", "lower", _T, "vs_base_gc_ratio -> asserted_db"),
    Layer("core.engine.gc_end_s", "s", "lower", _T, "vs_base_gc_ratio -> asserted_db; unit_cal -> served_stream"),
    Layer("core.engine.checks_per_gc", "count", "lower", _T, "vs_base_gc_ratio -> asserted_db"),
    Layer("core.reporting.report_us_per_violation", "us", "lower", _T, "unit_cal -> served_stream"),
    Layer("core.api.assert_dead_ns", "ns", "lower", _T, "vs_base_wall_ratio -> asserted_db"),
    Layer("core.api.assert_dead_ns.isolated", "ns", "lower", _L, "vs_base_wall_ratio -> asserted_db"),
    Layer("core.api.assert_ownedby_ns", "ns", "lower", _T, "vs_base_wall_ratio -> asserted_db"),
    Layer("core.api.assert_ownedby_ns.isolated", "ns", "lower", _L, "vs_base_wall_ratio -> asserted_db"),
    # -- the runtime -----------------------------------------------------------------
    Layer("runtime.vm.new_ns", "ns", "lower", _T, "unit_cal -> churn, asserted_db"),
    Layer("runtime.vm.new_ns.isolated", "ns", "lower", _L, "unit_cal -> churn, asserted_db"),
    Layer("runtime.handles.load_ns", "ns", "lower", _L, "unit_cal -> asserted_db, churn (largest single share of both)"),
    Layer("runtime.handles.store_ns", "ns", "lower", _L, "unit_cal -> churn, asserted_db"),
    Layer("runtime.mutator_s", "s", "lower", _T, "unit_cal -> churn, asserted_db (wall minus collect minus allocate)"),
    Layer("interp.load_ms", "ms", "lower", _L, "none of the five; kept for a later program-submit workload"),
    Layer("interp.ops_per_s", "1/s", "higher", _L, "none of the five; same"),
    # -- features that must be free when off ---------------------------------------------
    Layer("telemetry.on_gc_ratio", "x", "lower", _L, "pause_p50_cal -> every direct workload once 'off' stops being free"),
    Layer("tracing.on_gc_ratio", "x", "lower", _L, "same"),
    Layer("monitor.on_gc_ratio", "x", "lower", _L, "same"),
    Layer("verify.paranoid_walk_ms", "ms", "lower", _L, "none of the five; sized for the struct-of-arrays item"),
    Layer("gc.verify.verify_heap_ms", "ms", "lower", _L, "none of the five; same"),
    Layer("snapshot.capture_ms", "ms", "lower", _L, "none of the five; same"),
    # -- the service -----------------------------------------------------------------
    Layer("service.client.connect_hello_ms", "ms", "lower", _T, "service.client.open_ms_p50, unit_cal -> served_mix"),
    Layer("service.client.open_ms_p50", "ms", "lower", _T, "unit_cal -> served_mix (connect to 'opened')"),
    Layer("service.tax_ms_p50", "ms", "lower", _T, "unit_cal, vs_base_wall_ratio -> served_mix (session minus the server's own wall_s)"),
    Layer("service.frames_per_s", "1/s", "higher", _T, "unit_cal -> served_stream"),
    Layer("service.wire.decode_ns_per_frame", "ns", "lower", _T, "unit_cal -> served_stream (not served_mix)"),
    Layer("service.wire.decode_ns_per_frame.isolated", "ns", "lower", _L, "unit_cal -> served_stream"),
    Layer("service.wire.encode_ns_per_frame", "ns", "lower", _T, "unit_cal -> served_stream (not served_mix)"),
    Layer("service.wire.encode_ns_per_frame.isolated", "ns", "lower", _L, "unit_cal -> served_stream"),
    Layer("service.wire.decode_mb_per_s", "MB/s", "higher", _T, "unit_cal -> served_stream"),
    Layer("service.wire.decode_mb_per_s.isolated", "MB/s", "higher", _L, "unit_cal -> served_stream"),
    Layer("service.admission.admit_release_ns", "ns", "lower", _T, "service.client.open_ms_p50 -> served_mix"),
    Layer("service.admission.admit_release_ns.isolated", "ns", "lower", _L, "service.client.open_ms_p50 -> served_mix"),
    Layer("service.admission.retries", "count", "lower", _T, "service.client.open_ms_p50 -> served_mix (zero while the budget holds)"),
    Layer("service.session.construct_ms", "ms", "lower", _T, "service.client.open_ms_p50, service.tax_ms_p50 -> served_mix"),
    Layer("service.session.construct_ms.isolated", "ms", "lower", _L, "service.client.open_ms_p50 -> served_mix"),
    Layer("service.session.run_s", "s", "lower", _T, "unit_cal -> served_mix, served_stream"),
    Layer("service.session.run_vs_direct", "x", "lower", _T, "vs_base_wall_ratio -> served_stream (GIL shared with frame delivery)"),
    Layer("service.session.queue_push_ns", "ns", "lower", _T, "unit_cal -> served_stream"),
    Layer("service.session.queue_push_ns.isolated", "ns", "lower", _L, "unit_cal -> served_stream"),
    Layer("service.session.shed_share", "share", "lower", _T, "service.frames_per_s -> served_stream (dropped / numbered frames)"),
    Layer("service.server.executor_wait_ms_p50", "ms", "lower", _T, "service.tax_ms_p50, service.client.session_ms_p90 -> served_mix"),
    Layer("service.server.delivery_lag_ms_p50", "ms", "lower", _T, "service.frames_per_s, unit_cal -> served_stream"),
    Layer("service.server.close_ms_p50", "ms", "lower", _T, "service.tax_ms_p50 -> served_mix"),
    Layer("service.server.unattributed_ms_p50", "ms", "lower", _T, "service.tax_ms_p50 -> served_mix (open minus the session build)"),
    # -- wall clock as a stopwatch reads it (the untraced quarter of the traced run) ---------
    Layer("raw.unit_p50_ms", "ms", "lower", _T, "unit_cal, uncalibrated: moves with the machine as well as the program"),
    Layer("raw.unit_p90_ms", "ms", "lower", _T, "on served workloads rises before raw.units_per_s falls"),
    Layer("raw.units_per_s", "1/s", "higher", _T, "correct measured units per second of measured time (served: sessions per second of wave)"),
    Layer("raw.gc_s", "s", "lower", _T, "gc_share, as seconds inside collector.collect"),
    Layer("raw.pause_p50_ms", "ms", "lower", _T, "pause_p50_cal, uncalibrated"),
    Layer("raw.pause_p90_ms", "ms", "lower", _T, "pause_p90_cal, uncalibrated"),
    Layer("raw.cal_ms", "ms", "lower", _T, "none; one pass of the calibration kernel, i.e. how fast the machine was"),
    # -- the harness itself ------------------------------------------------------------
    Layer("trace.overhead_ratio", "x", "lower", _T, "none; traced over untraced unit_p50_ms in the same process"),
    Layer("trace.budget_residual_share", "share", "lower", _T, "none; |budget rows - traced wall| / traced wall"),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def benchmark_json(run_seconds: int) -> dict:
    """The document ``BENCHMARK.json`` must equal (``selftest`` compares)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
