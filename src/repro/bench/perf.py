"""Hot-path microbenchmarks and the eager-vs-lazy pause comparison.

``python -m repro bench`` drives four measurements and writes the
machine-readable record ``BENCH_perf.json`` (schema ``repro-bench-perf/1``):

* **trace** — the same prepared heap traced by the generic per-edge drain
  (``Tracer(specialized=False)``, the pre-overhaul loop kept for exactly
  this purpose) and by the fused specialized drain; reported as
  edges-traced/second and their ratio.
* **alloc** — allocation throughput with the run cache disabled (the
  pre-overhaul ``space.allocate`` path) and enabled; reported as
  allocations/second and the fast-path hit rate.
* **pauses** — full workloads (lusearch, pseudojbb) run twice, under
  ``sweep_mode="eager"`` and ``"lazy"``; reported as pause percentiles plus
  the deterministic work counters, which must be identical between modes
  (the lazy sweep changes *when* reclamation happens, never *what* is
  reclaimed).
* **abl-snapshot** — one workload run with piggybacked heap-snapshot
  capture on every collection vs off; reported as the GC-time ratio (the
  subsystem's ≤15% acceptance bar) with, again, identical work counters
  required.
* **abl-tracing** — the same shape for span tracing: one workload run with
  the in-pause span recorder on vs off; reported as the GC-time ratio with
  identical work counters required (spans observe phases, they must never
  change what the collector does).
* **abl-faults** — the fault-injection hook cost: one workload run with an
  *armed but empty-plan* :class:`~repro.faults.FaultInjector` attached vs
  without; the injector's standing cost is one allocation-counter
  increment plus a list check, so the ratio must sit at ~1.00 with
  bit-identical work counters and zero recovery activity.
* **abl-paranoid** — the paranoid wellformedness walker: one workload run
  with ``--paranoid`` per-GC heap/allocator walks vs without; the walk is
  allowed to be expensive but must be purely observational — bit-identical
  work counters and zero verification errors on a clean workload.
* **abl-dtrace** — the end-to-end tracing increment: one tenant run
  through a tracing-enabled server (trace context on every frame,
  request-lifecycle spans, merged multi-track export) vs a direct VM with
  tracing off; the counters must be bit-identical and the export must
  validate as a Chrome trace.
* **par-mark** — the zone-sharded parallel-mark scaling curve: one
  workload run sequentially and at 1/2/4/8 mark workers; reported as
  mark-phase edges/s, p99 pause, the deterministic zone-balance speedup
  bound, and a ``machine`` record (cores, GIL) so the curve can be
  normalized against available parallelism.  Work counters must be
  bit-identical across every leg.

Wall-clock numbers from a Python simulator are noisy; the counters are the
ground truth (``counters_match`` gates CI), the rates are the trend.
"""

from __future__ import annotations

import json
import platform
import random
import time
from typing import Optional

from repro.gc.stats import GcStats
from repro.gc.tracer import Tracer
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from repro.workloads.suite import build_suite

#: Workloads used for the eager-vs-lazy pause comparison.
PAUSE_WORKLOADS = ("lusearch", "pseudojbb")


# -- trace microbenchmark --------------------------------------------------------------


def _build_trace_heap(n_nodes: int) -> VirtualMachine:
    """A deterministic object graph: list spines, a tree, and ref arrays."""
    vm = VirtualMachine(
        heap_bytes=64 << 20, assertions=False, telemetry=False
    )
    node = vm.define_class(
        "BenchNode",
        [("next", FieldKind.REF), ("other", FieldKind.REF), ("value", FieldKind.INT)],
    )
    rng = random.Random(0xBEEF)
    addresses: list[int] = []
    prev = None
    for i in range(n_nodes):
        obj = vm.collector.allocate(node)
        obj.slots[2] = i
        addresses.append(obj.address)
        if prev is not None:
            prev.slots[0] = obj.address
        # Cross links make the repeat-encounter path non-trivial.
        obj.slots[1] = addresses[rng.randrange(len(addresses))]
        prev = obj
    array_cls = vm.array_class(node)
    for start in range(0, n_nodes, 64):
        chunk = addresses[start : start + 64]
        arr = vm.collector.allocate(array_cls, len(chunk))
        arr.slots[:] = chunk
        vm.statics.set_ref(f"bench-arr-{start}", arr.address)
    vm.statics.set_ref("bench-head", addresses[0])
    return vm


class _PathDepthProbe:
    """A minimal engine exercising the cheap path API during a drain.

    Uses :meth:`Tracer.path_depth` and :meth:`Tracer.current_path_addresses`
    — the no-object-materialization variants — the way a sampling profiler
    would: every object visit reads the depth, an occasional visit takes the
    whole address chain.
    """

    def __init__(self, sample_every: int = 1024):
        self.max_depth = 0
        self.sampled_paths = 0
        self._visits = 0
        self._sample_every = sample_every

    def gc_begin(self, collector) -> None: ...
    def pre_mark(self, collector, tracer) -> None: ...
    def post_mark(self, collector, tracer) -> None: ...
    def gc_end(self, collector, freed) -> None: ...
    def purge(self, freed) -> None: ...
    def finalize(self, collector) -> None: ...
    def apply_forwarding(self, fwd) -> None: ...
    def on_repeat_encounter(self, obj, tracer, parent) -> None: ...

    def on_first_encounter(self, obj, tracer, parent) -> None:
        depth = tracer.path_depth()
        if depth > self.max_depth:
            self.max_depth = depth
        self._visits += 1
        if self._visits % self._sample_every == 0:
            chain = tracer.current_path_addresses(obj.address)
            self.sampled_paths += 1
            assert chain and chain[-1] == obj.address


def bench_trace(n_nodes: int = 20_000, trials: int = 5) -> dict:
    """Generic vs specialized drain over one prepared heap."""
    vm = _build_trace_heap(n_nodes)
    heap = vm.heap
    roots = list(vm.root_entries())
    results: dict[str, dict] = {}
    for variant, specialized in (("generic", False), ("specialized", True)):
        best = float("inf")
        stats = GcStats()
        for _ in range(trials):
            stats = GcStats()
            # Each Tracer starts its own (empty) mark set.
            tracer = Tracer(heap, stats, None, track_paths=True, specialized=specialized)
            start = time.perf_counter()
            tracer.trace(roots)
            best = min(best, time.perf_counter() - start)
        results[variant] = {
            "objects_traced": stats.objects_traced,
            "edges_traced": stats.edges_traced,
            "path_entries_tagged": stats.path_entries_tagged,
            "best_seconds": best,
            "edges_per_second": stats.edges_traced / best if best else 0.0,
        }
    # One instrumented pass with the cheap path API (engine specialization).
    probe = _PathDepthProbe()
    tracer = Tracer(heap, GcStats(), probe, track_paths=True)
    tracer.trace(roots)
    heap.new_marks()  # no collection is running: leave no marks behind
    generic, specialized = results["generic"], results["specialized"]
    return {
        "nodes": n_nodes,
        "trials": trials,
        "generic": generic,
        "specialized": specialized,
        "speedup": (
            specialized["edges_per_second"] / generic["edges_per_second"]
            if generic["edges_per_second"]
            else 0.0
        ),
        "counters_match": (
            generic["objects_traced"] == specialized["objects_traced"]
            and generic["edges_traced"] == specialized["edges_traced"]
            and generic["path_entries_tagged"] == specialized["path_entries_tagged"]
        ),
        "path_probe": {
            "max_depth": probe.max_depth,
            "sampled_paths": probe.sampled_paths,
        },
    }


# -- allocation microbenchmark ----------------------------------------------------------


def bench_alloc(n_allocs: int = 50_000, trials: int = 5) -> dict:
    """Allocation throughput with the run cache disabled vs enabled.

    Measured in the regime the cache targets: allocation out of recycled
    free-list cells (prefill, collect, then time allocations that pop the
    freed cells).  On a fresh bump frontier the cache is near-neutral — one
    refill per ``RUN_CACHE_CELLS`` bump carves instead of one carve per
    allocation.
    """
    results: dict[str, dict] = {}
    for variant in ("uncached", "cached"):
        best = float("inf")
        fast_hits = 0
        for _ in range(trials):
            vm = VirtualMachine(
                heap_bytes=64 << 20, assertions=False, telemetry=False
            )
            cls = vm.define_class(
                "AllocBench", [("a", FieldKind.INT), ("b", FieldKind.REF)]
            )
            collector = vm.collector
            if variant == "uncached":
                collector._alloc_cache = None  # pre-overhaul space.allocate path
            allocate = collector.allocate
            for _ in range(n_allocs):
                allocate(cls)  # unrooted prefill ...
            vm.gc("populate the free lists")  # ... freed: cells now recycled
            hits_before = collector.stats.alloc_fast_hits
            start = time.perf_counter()
            for _ in range(n_allocs):
                allocate(cls)
            best = min(best, time.perf_counter() - start)
            fast_hits = collector.stats.alloc_fast_hits - hits_before
        results[variant] = {
            "best_seconds": best,
            "allocs_per_second": n_allocs / best if best else 0.0,
            "alloc_fast_hits": fast_hits,
        }
    uncached, cached = results["uncached"], results["cached"]
    return {
        "allocations": n_allocs,
        "trials": trials,
        "uncached": uncached,
        "cached": cached,
        "speedup": (
            cached["allocs_per_second"] / uncached["allocs_per_second"]
            if uncached["allocs_per_second"]
            else 0.0
        ),
        "fast_hit_rate": cached["alloc_fast_hits"] / n_allocs if n_allocs else 0.0,
    }


# -- snapshot-capture ablation ----------------------------------------------------------


def bench_snapshot(workload: str = "pseudojbb", trials: int = 3) -> dict:
    """GC time with piggybacked snapshot capture on every collection vs off.

    The acceptance bar for the snapshot subsystem: capturing on *every*
    full collection (``every_n_gcs=1``, the worst case) must add no more
    than ~15% to GC time, and the deterministic work counters must be
    identical — capture observes marking, it must never change it.
    Serialization cost lands on the mutator (after the pause timer
    closes), so ``gc_seconds`` isolates exactly the in-pause row-append
    overhead.  Best-of-``trials`` per leg to shave scheduler noise.
    """
    import shutil
    import tempfile

    from repro.snapshot import SnapshotPolicy

    suite = build_suite()
    entry = suite[workload]
    results: dict[str, dict] = {}
    for variant in ("off", "capture"):
        best_gc = float("inf")
        stats = None
        snapshots = 0
        for _ in range(trials):
            vm = VirtualMachine(
                heap_bytes=entry.heap_bytes, assertions=False, telemetry=False
            )
            tmpdir = None
            if variant == "capture":
                tmpdir = tempfile.mkdtemp(prefix="repro-bench-snap-")
                policy = SnapshotPolicy(tmpdir, every_n_gcs=1).attach(vm)
            try:
                entry.run(vm)
                vm.collector.sweep_all()
                if vm.stats.gc_seconds < best_gc:
                    best_gc = vm.stats.gc_seconds
                    stats = vm.stats
                if variant == "capture":
                    snapshots = len(policy.captured)
            finally:
                if tmpdir is not None:
                    shutil.rmtree(tmpdir, ignore_errors=True)
        results[variant] = {
            "best_gc_seconds": best_gc,
            "collections": stats.collections,
            "snapshots_written": snapshots,
            "counters": {
                "objects_traced": stats.objects_traced,
                "edges_traced": stats.edges_traced,
                "objects_freed": stats.objects_freed,
                "bytes_freed": stats.bytes_freed,
            },
        }
    off, capture = results["off"], results["capture"]
    return {
        "workload": workload,
        "trials": trials,
        "off": off,
        "capture": capture,
        "gc_time_ratio": (
            capture["best_gc_seconds"] / off["best_gc_seconds"]
            if off["best_gc_seconds"]
            else 0.0
        ),
        "counters_match": off["counters"] == capture["counters"],
    }


# -- span-tracing ablation --------------------------------------------------------------


def bench_tracing(workload: str = "pseudojbb", trials: int = 3) -> dict:
    """GC time with in-pause span tracing on vs off.

    The tracing subsystem's acceptance bar: recording every phase span and
    counter must stay within a few percent of GC time, and the
    deterministic work counters must be identical — spans observe the
    phases, they must never change collector behaviour.  (With tracing
    *off* the hooks cost one attribute load per phase; that leg is the
    baseline here, so the ratio prices exactly the recorder.)
    Best-of-``trials`` per leg to shave scheduler noise.
    """
    from repro.tracing.spans import SpanTracer

    suite = build_suite()
    entry = suite[workload]
    results: dict[str, dict] = {}
    for variant in ("off", "trace"):
        best_gc = float("inf")
        stats = None
        spans = 0
        for _ in range(trials):
            vm = VirtualMachine(
                heap_bytes=entry.heap_bytes,
                assertions=False,
                telemetry=False,
                tracing=(variant == "trace"),
            )
            entry.run(vm)
            vm.collector.sweep_all()
            if vm.stats.gc_seconds < best_gc:
                best_gc = vm.stats.gc_seconds
                stats = vm.stats
            if variant == "trace":
                spans = vm.span_tracer.spans_ended
        results[variant] = {
            "best_gc_seconds": best_gc,
            "collections": stats.collections,
            "spans_recorded": spans,
            "counters": {
                "objects_traced": stats.objects_traced,
                "edges_traced": stats.edges_traced,
                "objects_freed": stats.objects_freed,
                "bytes_freed": stats.bytes_freed,
            },
        }
    off, trace = results["off"], results["trace"]
    return {
        "workload": workload,
        "trials": trials,
        "off": off,
        "trace": trace,
        "gc_time_ratio": (
            trace["best_gc_seconds"] / off["best_gc_seconds"]
            if off["best_gc_seconds"]
            else 0.0
        ),
        "counters_match": off["counters"] == trace["counters"],
    }


# -- fault-injection ablation -----------------------------------------------------------


def bench_faults(workload: str = "pseudojbb", trials: int = 3) -> dict:
    """GC + mutator time with an armed (empty-plan) fault injector vs off.

    The robustness layer's acceptance bar: with no faults scheduled, the
    injector's only standing cost is the allocation-count shim (one
    integer increment and an empty-list check per allocation) plus one
    inert GC observer.  The GC-time ratio must sit at ~1.00, every
    deterministic work counter must be bit-identical to the uninstrumented
    run, and the recovery counters must stay at zero — an armed injector
    that changes *anything* before its first fault fires is a bug.
    Best-of-``trials`` per leg to shave scheduler noise.
    """
    from repro.faults import FaultInjector, FaultPlan

    suite = build_suite()
    entry = suite[workload]
    results: dict[str, dict] = {}
    recovery_total = 0
    for variant in ("off", "armed"):
        best_gc = float("inf")
        stats = None
        for _ in range(trials):
            vm = VirtualMachine(
                heap_bytes=entry.heap_bytes, assertions=False, telemetry=False
            )
            injector = None
            if variant == "armed":
                injector = FaultInjector(vm, FaultPlan()).attach()
            entry.run(vm)
            vm.collector.sweep_all()
            if vm.stats.gc_seconds < best_gc:
                best_gc = vm.stats.gc_seconds
                stats = vm.stats
            if variant == "armed":
                recovery_total = vm.collector.recovery.total()
                injector.detach()
        results[variant] = {
            "best_gc_seconds": best_gc,
            "collections": stats.collections,
            "counters": {
                "objects_traced": stats.objects_traced,
                "edges_traced": stats.edges_traced,
                "objects_freed": stats.objects_freed,
                "bytes_freed": stats.bytes_freed,
            },
        }
    off, armed = results["off"], results["armed"]
    return {
        "workload": workload,
        "trials": trials,
        "off": off,
        "armed": armed,
        "gc_time_ratio": (
            armed["best_gc_seconds"] / off["best_gc_seconds"]
            if off["best_gc_seconds"]
            else 0.0
        ),
        "counters_match": off["counters"] == armed["counters"],
        "recovery_activity": recovery_total,
    }


# -- paranoid-walker ablation -----------------------------------------------------------


def bench_paranoid(workload: str = "pseudojbb", trials: int = 3) -> dict:
    """GC + mutator time with the paranoid wellformedness walker on vs off.

    The verification layer's acceptance bar: ``--paranoid`` walks the full
    heap and every allocator structure before and after each collection,
    so its GC-time ratio is allowed to be large — but it must be *purely
    observational*.  Every deterministic work counter must be bit-identical
    to the walker-free run (the walk count lives outside ``GcStats`` for
    exactly this reason), and a clean workload must complete with zero
    :class:`~repro.gc.verify.HeapVerificationError` raises.
    Best-of-``trials`` per leg to shave scheduler noise.
    """
    suite = build_suite()
    entry = suite[workload]
    results: dict[str, dict] = {}
    paranoid_walks = 0
    for variant in ("off", "paranoid"):
        best_wall = float("inf")
        stats = None
        for _ in range(trials):
            vm = VirtualMachine(
                heap_bytes=entry.heap_bytes,
                assertions=False,
                telemetry=False,
                paranoid=(variant == "paranoid"),
            )
            start = time.perf_counter()
            entry.run(vm)
            vm.collector.sweep_all()
            wall = time.perf_counter() - start
            if wall < best_wall:
                best_wall = wall
                stats = vm.stats
            if variant == "paranoid":
                paranoid_walks = vm.collector.paranoid_walks
        results[variant] = {
            # The walks run mutator-side (outside the gc_seconds pause
            # timer, like the sentinel), so wall time is the honest basis.
            "best_wall_seconds": best_wall,
            "collections": stats.collections,
            "counters": {
                "objects_traced": stats.objects_traced,
                "edges_traced": stats.edges_traced,
                "objects_freed": stats.objects_freed,
                "bytes_freed": stats.bytes_freed,
            },
        }
    off, paranoid = results["off"], results["paranoid"]
    return {
        "workload": workload,
        "trials": trials,
        "off": off,
        "paranoid": paranoid,
        "wall_time_ratio": (
            paranoid["best_wall_seconds"] / off["best_wall_seconds"]
            if off["best_wall_seconds"]
            else 0.0
        ),
        "counters_match": off["counters"] == paranoid["counters"],
        "paranoid_walks": paranoid_walks,
    }


# -- continuous-monitoring ablation -----------------------------------------------------


def bench_monitor(workload: str = "pseudojbb", trials: int = 3) -> dict:
    """GC time with the continuous-monitoring hub armed vs telemetry alone.

    The monitoring layer's acceptance bar: with a hub and the full stock
    SLO catalog attached, GC time must stay within ~5% of the same VM
    running telemetry without a monitor, and every deterministic work
    counter must be bit-identical — the hub is a sink, it observes
    collections and must never change them.  Both legs run telemetry so
    the ratio prices exactly the monitor increment (time-series appends,
    MMU evaluation, SLO probes per collection), not telemetry itself.
    Best-of-``trials`` per leg to shave scheduler noise.
    """
    from repro.monitor import MonitorHub, default_slos

    suite = build_suite()
    entry = suite[workload]
    results: dict[str, dict] = {}
    alerts_seen = 0
    for variant in ("off", "armed"):
        best_gc = float("inf")
        stats = None
        for _ in range(trials):
            vm = VirtualMachine(
                heap_bytes=entry.heap_bytes, assertions=False, telemetry=True
            )
            hub = None
            if variant == "armed":
                hub = MonitorHub(default_slos()).attach(vm)
            entry.run(vm)
            vm.collector.sweep_all()
            if vm.stats.gc_seconds < best_gc:
                best_gc = vm.stats.gc_seconds
                stats = vm.stats
            if variant == "armed":
                alerts_seen = len(hub.alerts)
        results[variant] = {
            "best_gc_seconds": best_gc,
            "collections": stats.collections,
            "counters": {
                "objects_traced": stats.objects_traced,
                "edges_traced": stats.edges_traced,
                "objects_freed": stats.objects_freed,
                "bytes_freed": stats.bytes_freed,
            },
        }
    off, armed = results["off"], results["armed"]
    return {
        "workload": workload,
        "trials": trials,
        "off": off,
        "armed": armed,
        "gc_time_ratio": (
            armed["best_gc_seconds"] / off["best_gc_seconds"]
            if off["best_gc_seconds"]
            else 0.0
        ),
        "counters_match": off["counters"] == armed["counters"],
        "alerts_seen": alerts_seen,
    }


def bench_service(workload: str = "pseudojbb", trials: int = 3) -> dict:
    """One tenant through the session server vs the same VM run directly.

    The serving layer's acceptance bar: a workload submitted over the
    ``repro-wire/1`` protocol must produce **bit-identical** GC/assertion
    counters and violation sets to a direct VM run with the same
    configuration — the server adds transport and streaming, never GC
    work.  Both legs use the hardened tenant configuration (OOM ladder,
    2× growth ceiling) so the comparison prices exactly the service
    increment: session bookkeeping, the telemetry fan-in sink, and the
    violation-streaming reaction handler.  Best-of-``trials`` per leg.
    """
    from repro.service import AssertionService, ServiceClient, ServiceConfig
    from repro.service.session import resolve_workload

    heap_bytes, runner = resolve_workload(workload, asserted=True)

    def direct_leg() -> dict:
        best = None
        for _ in range(trials):
            vm = VirtualMachine(
                heap_bytes=heap_bytes,
                assertions=True,
                telemetry=True,
                hardened=True,
                max_heap_bytes=heap_bytes * 2,
            )
            runner(vm)
            vm.collector.sweep_all()
            if best is None or vm.stats.gc_seconds < best["best_gc_seconds"]:
                best = {
                    "best_gc_seconds": vm.stats.gc_seconds,
                    "collections": vm.stats.collections,
                    "counters": vm.stats.snapshot()["counters"],
                    "violations": len(vm.violation_lines()),
                    "violation_lines": vm.violation_lines(),
                }
        return best

    def server_leg() -> dict:
        best = None
        with AssertionService(ServiceConfig(http_port=None)) as service:
            for _ in range(trials):
                with ServiceClient("127.0.0.1", service.port) as client:
                    client.hello()
                    opened = client.open("bench", workload)
                    streamed: list = []
                    result = client.submit(opened["session"], collect=streamed)
                    client.close_session(opened["session"], collect=streamed)
                if best is None or result["gc_seconds"] < best["best_gc_seconds"]:
                    best = {
                        "best_gc_seconds": result["gc_seconds"],
                        "collections": result["counters"]["collections"],
                        "counters": result["counters"],
                        "violations": len(result["violations"]),
                        "violation_lines": result["violations"],
                        "violation_frames_streamed": sum(
                            1 for f in streamed if f.get("type") == "violation"
                        ),
                    }
        return best

    direct = direct_leg()
    served = server_leg()
    counters_match = (
        direct["counters"] == served["counters"]
        and direct["violation_lines"] == served["violation_lines"]
    )
    # The line sets are compared, then dropped from the payload: hundreds
    # of rendered reports would dwarf the record.
    direct.pop("violation_lines")
    served.pop("violation_lines")
    return {
        "workload": workload,
        "trials": trials,
        "direct": direct,
        "served": served,
        "gc_time_ratio": (
            served["best_gc_seconds"] / direct["best_gc_seconds"]
            if direct["best_gc_seconds"]
            else 0.0
        ),
        "counters_match": counters_match,
    }


def bench_dtrace(workload: str = "pseudojbb", trials: int = 3) -> dict:
    """One tenant through the server with end-to-end tracing on vs direct.

    The distributed-tracing acceptance bar: a *traced* served run — trace
    context stamped on every wire frame, request-lifecycle spans recorded
    around admission and execution, the tenant VM's span stream
    re-parented under the request — must stay **bit-identical** in
    GC/assertion counters and violation lines to a direct VM run with
    tracing off entirely.  The merged multi-track export must also pass
    :func:`~repro.tracing.export.validate_chrome_trace`; a malformed
    artifact fails the cell even when the counters agree.
    """
    from repro.service import AssertionService, ServiceClient, ServiceConfig
    from repro.service.session import resolve_workload
    from repro.tracing.distributed import TraceContext, request_rows
    from repro.tracing.export import validate_chrome_trace

    heap_bytes, runner = resolve_workload(workload, asserted=True)

    def direct_leg() -> dict:
        best = None
        for _ in range(trials):
            vm = VirtualMachine(
                heap_bytes=heap_bytes,
                assertions=True,
                telemetry=True,
                hardened=True,
                max_heap_bytes=heap_bytes * 2,
            )
            runner(vm)
            vm.collector.sweep_all()
            if best is None or vm.stats.gc_seconds < best["best_gc_seconds"]:
                best = {
                    "best_gc_seconds": vm.stats.gc_seconds,
                    "counters": vm.stats.snapshot()["counters"],
                    "violation_lines": vm.violation_lines(),
                }
        return best

    def traced_leg() -> tuple[dict, dict, list]:
        best = None
        with AssertionService(ServiceConfig(http_port=None, tracing=True)) as service:
            for _ in range(trials):
                ctx = TraceContext.new()
                with ServiceClient("127.0.0.1", service.port, trace=ctx) as client:
                    client.hello()
                    opened = client.open("bench", workload)
                    result = client.submit(opened["session"])
                    client.close_session(opened["session"])
                if best is None or result["gc_seconds"] < best["best_gc_seconds"]:
                    best = {
                        "best_gc_seconds": result["gc_seconds"],
                        "counters": result["counters"],
                        "violation_lines": result["violations"],
                        "trace_id": opened["trace_id"],
                    }
            payload = service.merged_trace_payload()
            rows = request_rows(service.tracer)
        return best, payload, rows

    direct = direct_leg()
    traced, payload, rows = traced_leg()
    counters_match = (
        direct["counters"] == traced["counters"]
        and direct["violation_lines"] == traced["violation_lines"]
    )
    direct.pop("violation_lines")
    traced.pop("violation_lines")
    return {
        "workload": workload,
        "trials": trials,
        "direct": direct,
        "traced": traced,
        "gc_time_ratio": (
            traced["best_gc_seconds"] / direct["best_gc_seconds"]
            if direct["best_gc_seconds"]
            else 0.0
        ),
        "counters_match": counters_match,
        "trace_valid": validate_chrome_trace(payload) == [],
        "trace_events": len(payload["traceEvents"]),
        "request_spans": len(rows),
        "max_delivery_lag_ms": max(
            [row["max_delivery_lag_s"] * 1e3 for row in rows] or [0.0]
        ),
    }


def bench_loadgen(sessions: int = 50, rate: float = 200.0, seed: int = 0) -> dict:
    """The serving top line: open-loop load against a self-hosted service.

    Poisson arrivals at ``rate`` sessions/s over the default workload
    mix; the committed record carries completion counts, admission peaks,
    and the client-observed latency percentiles (open latency, session
    duration) that make serving regressions visible in review diffs.
    """
    from repro.service import LoadgenConfig, run_loadgen

    report = run_loadgen(LoadgenConfig(sessions=sessions, rate=rate, seed=seed))
    payload = report.as_dict()
    payload["ok"] = report.ok
    return payload


# -- parallel-mark scaling curve --------------------------------------------------------


def bench_par_mark(workload: str = "lusearch", worker_counts=(1, 2, 4, 8)) -> dict:
    """Zone-sharded parallel marking: worker-count scaling curve vs sequential.

    One sequential leg (``gc_workers`` unset — the unsharded space and the
    classic fused drain) plus one leg per worker count on the zoned heap.
    Acceptance bar: every leg's deterministic work counters are bit-identical
    to the sequential run — zone sharding changes *where* objects live and
    *who* traces them, never what is traced or freed.

    Two scaling numbers are recorded per leg:

    * ``mark_edges_per_second`` — measured wall-clock rate over the mark
      phase.  On a GIL build this cannot exceed the sequential rate (the
      interpreter serializes the drains); the ``machine`` record (cores,
      GIL) is committed alongside so readers normalize expectations.
    * ``zone_balance_speedup`` — the deterministic bound: per-zone edge
      loads LPT-packed onto ``workers`` bins, total work over the busiest
      bin.  A pure function of the heap partition — bit-identical across
      runs and machines — so CI can gate the scaling curve without trusting
      wall clocks.
    """
    import os
    import sys

    suite = build_suite()
    entry = suite[workload]

    def run_leg(gc_workers: Optional[int]) -> tuple[dict, object]:
        vm = VirtualMachine(
            heap_bytes=entry.heap_bytes,
            assertions=False,
            gc_workers=gc_workers,
        )
        entry.run(vm)
        vm.collector.sweep_all()
        stats = vm.stats
        hist = vm.telemetry.pause_hist
        mark_s = stats.mark_seconds
        leg = {
            "collections": stats.collections,
            "mark_seconds": mark_s,
            "mark_edges_per_second": stats.edges_traced / mark_s if mark_s else 0.0,
            "pause_p99_ms": hist.percentile(99) * 1e3 if hist.count else 0.0,
            "counters": {
                "objects_traced": stats.objects_traced,
                "edges_traced": stats.edges_traced,
                "objects_freed": stats.objects_freed,
                "bytes_freed": stats.bytes_freed,
            },
        }
        return leg, vm.collector.last_parallel_mark

    sequential, _ = run_leg(None)
    base_rate = sequential["mark_edges_per_second"]
    curve: dict[str, dict] = {}
    matches = []
    for workers in worker_counts:
        leg, report = run_leg(workers)
        leg["workers"] = workers
        leg["zones"] = report.zones
        leg["zone_edges"] = list(report.zone_edges)
        leg["zone_balance_speedup"] = report.zone_balance_speedup()
        leg["packets_sent"] = report.packets_sent
        leg["edges_routed"] = report.edges_routed
        leg["measured_speedup"] = (
            leg["mark_edges_per_second"] / base_rate if base_rate else 0.0
        )
        matches.append(leg["counters"] == sequential["counters"])
        curve[str(workers)] = leg
    return {
        "workload": workload,
        "machine": {
            "cores": os.cpu_count(),
            "gil": bool(getattr(sys, "_is_gil_enabled", lambda: True)()),
        },
        "sequential": sequential,
        "curve": curve,
        "counters_match": all(matches),
    }


# -- eager vs lazy pause comparison -----------------------------------------------------


def _run_pause_leg(entry, sweep_mode: str) -> dict:
    vm = VirtualMachine(
        heap_bytes=entry.heap_bytes,
        assertions=False,
        sweep_mode=sweep_mode,
    )
    entry.run(vm)
    # Lazy mode may still owe sweep work; finish it so the work counters
    # compare like-for-like (same reclaimed set, different timing).
    vm.collector.sweep_all()
    stats = vm.stats
    hist = vm.telemetry.pause_hist
    full_events = [e for e in vm.telemetry.events if e.kind == "full"]
    return {
        "sweep_mode": sweep_mode,
        "collections": stats.collections,
        "full_collections": stats.full_collections,
        "pause_p50_ms": hist.percentile(50) * 1e3 if hist.count else 0.0,
        "pause_p99_ms": hist.percentile(99) * 1e3 if hist.count else 0.0,
        "pause_max_ms": hist.max_value * 1e3 if hist.count else 0.0,
        "mean_sweep_debt_chunks": (
            sum(e.sweep_debt_chunks for e in full_events) / len(full_events)
            if full_events
            else 0.0
        ),
        "gc_seconds": stats.gc_seconds,
        "lazy_sweep_seconds": stats.lazy_sweep_seconds,
        "counters": {
            "objects_traced": stats.objects_traced,
            "edges_traced": stats.edges_traced,
            "objects_freed": stats.objects_freed,
            "objects_swept": stats.objects_swept,
            "bytes_freed": stats.bytes_freed,
        },
    }


def bench_pauses(workloads=PAUSE_WORKLOADS) -> dict:
    """Run each workload under both sweep modes; compare pauses and work."""
    suite = build_suite()
    out: dict[str, dict] = {}
    for name in workloads:
        entry = suite[name]
        eager = _run_pause_leg(entry, "eager")
        lazy = _run_pause_leg(entry, "lazy")
        drift_keys = ("objects_traced", "edges_traced", "objects_freed")
        out[name] = {
            "eager": eager,
            "lazy": lazy,
            "pause_p99_ratio": (
                lazy["pause_p99_ms"] / eager["pause_p99_ms"]
                if eager["pause_p99_ms"]
                else 0.0
            ),
            "counters_match": all(
                eager["counters"][k] == lazy["counters"][k] for k in drift_keys
            ),
        }
    return out


# -- payload / CLI ---------------------------------------------------------------------


def perf_payload(quick: bool = False) -> dict:
    """Run all three benchmarks; machine-readable with provenance."""
    if quick:
        trace = bench_trace(n_nodes=4_000, trials=3)
        alloc = bench_alloc(n_allocs=10_000, trials=2)
        pauses = bench_pauses(("pseudojbb",))
        snapshot = bench_snapshot(trials=2)
        tracing = bench_tracing(trials=2)
        faults = bench_faults(trials=2)
        paranoid = bench_paranoid(trials=2)
        monitor = bench_monitor(trials=2)
        par_mark = bench_par_mark(worker_counts=(1, 2, 4, 8))
        service = bench_service(trials=2)
        dtrace = bench_dtrace(trials=2)
        loadgen = bench_loadgen(sessions=12)
    else:
        trace = bench_trace()
        alloc = bench_alloc()
        pauses = bench_pauses()
        snapshot = bench_snapshot()
        tracing = bench_tracing()
        faults = bench_faults()
        paranoid = bench_paranoid()
        monitor = bench_monitor()
        par_mark = bench_par_mark()
        service = bench_service()
        dtrace = bench_dtrace()
        loadgen = bench_loadgen()
    counters_match = (
        trace["counters_match"]
        and snapshot["counters_match"]
        and tracing["counters_match"]
        and faults["counters_match"]
        and paranoid["counters_match"]
        and monitor["counters_match"]
        and par_mark["counters_match"]
        and service["counters_match"]
        and dtrace["counters_match"]
        and dtrace["trace_valid"]
        and all(row["counters_match"] for row in pauses.values())
    )
    return {
        "schema": "repro-bench-perf/1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "quick": quick,
        "trace": trace,
        "alloc": alloc,
        "pauses": pauses,
        "abl-snapshot": snapshot,
        "abl-tracing": tracing,
        "abl-faults": faults,
        "abl-paranoid": paranoid,
        "abl-monitor": monitor,
        "abl-service": service,
        "abl-dtrace": dtrace,
        "par-mark": par_mark,
        "service-loadgen": loadgen,
        "counters_match": counters_match,
    }


def dump_perf(payload: dict, path: str = "BENCH_perf.json") -> str:
    """Write :func:`perf_payload` as JSON; returns the path written."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def render_perf(payload: dict) -> str:
    """Human-readable summary of a perf payload."""
    trace, alloc = payload["trace"], payload["alloc"]
    lines = [
        "trace microbench (generic -> specialized drain):",
        f"  edges/s: {trace['generic']['edges_per_second']:,.0f} -> "
        f"{trace['specialized']['edges_per_second']:,.0f} "
        f"({trace['speedup']:.2f}x, {trace['generic']['edges_traced']} edges, "
        f"counters {'match' if trace['counters_match'] else 'DRIFT'})",
        f"  path probe: max depth {trace['path_probe']['max_depth']}, "
        f"{trace['path_probe']['sampled_paths']} cheap paths sampled",
        "alloc microbench (uncached -> run cache):",
        f"  allocs/s: {alloc['uncached']['allocs_per_second']:,.0f} -> "
        f"{alloc['cached']['allocs_per_second']:,.0f} "
        f"({alloc['speedup']:.2f}x, fast-hit rate {alloc['fast_hit_rate']:.1%})",
        "pause comparison (eager vs lazy sweep):",
    ]
    for name, row in sorted(payload["pauses"].items()):
        eager, lazy = row["eager"], row["lazy"]
        lines.append(
            f"  {name:10} p99 {eager['pause_p99_ms']:.3f}ms -> "
            f"{lazy['pause_p99_ms']:.3f}ms "
            f"({row['pause_p99_ratio']:.2f}x), "
            f"{eager['full_collections']} full GCs, "
            f"mean debt {lazy['mean_sweep_debt_chunks']:.1f} chunks, "
            f"counters {'match' if row['counters_match'] else 'DRIFT'}"
        )
    snap = payload.get("abl-snapshot")
    if snap is not None:
        lines.append("snapshot-capture ablation (off -> every-GC capture):")
        lines.append(
            f"  {snap['workload']:10} gc time "
            f"{snap['off']['best_gc_seconds'] * 1e3:.1f}ms -> "
            f"{snap['capture']['best_gc_seconds'] * 1e3:.1f}ms "
            f"({snap['gc_time_ratio']:.2f}x), "
            f"{snap['capture']['snapshots_written']} snapshots, "
            f"counters {'match' if snap['counters_match'] else 'DRIFT'}"
        )
    spans = payload.get("abl-tracing")
    if spans is not None:
        lines.append("span-tracing ablation (off -> every-phase spans):")
        lines.append(
            f"  {spans['workload']:10} gc time "
            f"{spans['off']['best_gc_seconds'] * 1e3:.1f}ms -> "
            f"{spans['trace']['best_gc_seconds'] * 1e3:.1f}ms "
            f"({spans['gc_time_ratio']:.2f}x), "
            f"{spans['trace']['spans_recorded']} spans, "
            f"counters {'match' if spans['counters_match'] else 'DRIFT'}"
        )
    faults = payload.get("abl-faults")
    if faults is not None:
        lines.append("fault-injection ablation (off -> armed empty-plan injector):")
        lines.append(
            f"  {faults['workload']:10} gc time "
            f"{faults['off']['best_gc_seconds'] * 1e3:.1f}ms -> "
            f"{faults['armed']['best_gc_seconds'] * 1e3:.1f}ms "
            f"({faults['gc_time_ratio']:.2f}x), "
            f"recovery activity {faults['recovery_activity']}, "
            f"counters {'match' if faults['counters_match'] else 'DRIFT'}"
        )
    paranoid = payload.get("abl-paranoid")
    if paranoid is not None:
        lines.append("paranoid-walker ablation (off -> per-GC wellformedness walks):")
        lines.append(
            f"  {paranoid['workload']:10} wall time "
            f"{paranoid['off']['best_wall_seconds'] * 1e3:.1f}ms -> "
            f"{paranoid['paranoid']['best_wall_seconds'] * 1e3:.1f}ms "
            f"({paranoid['wall_time_ratio']:.2f}x), "
            f"{paranoid['paranoid_walks']} walks, "
            f"counters {'match' if paranoid['counters_match'] else 'DRIFT'}"
        )
    monitor = payload.get("abl-monitor")
    if monitor is not None:
        lines.append("monitoring ablation (telemetry-only -> hub + SLO catalog):")
        lines.append(
            f"  {monitor['workload']:10} gc time "
            f"{monitor['off']['best_gc_seconds'] * 1e3:.1f}ms -> "
            f"{monitor['armed']['best_gc_seconds'] * 1e3:.1f}ms "
            f"({monitor['gc_time_ratio']:.2f}x), "
            f"{monitor['alerts_seen']} alert transitions, "
            f"counters {'match' if monitor['counters_match'] else 'DRIFT'}"
        )
    service = payload.get("abl-service")
    if service is not None:
        lines.append("service ablation (direct VM -> through the session server):")
        lines.append(
            f"  {service['workload']:10} gc time "
            f"{service['direct']['best_gc_seconds'] * 1e3:.1f}ms -> "
            f"{service['served']['best_gc_seconds'] * 1e3:.1f}ms "
            f"({service['gc_time_ratio']:.2f}x), "
            f"{service['served']['violations']} violations "
            f"({service['served'].get('violation_frames_streamed', 0)} streamed), "
            f"counters {'match' if service['counters_match'] else 'DRIFT'}"
        )
    dtrace = payload.get("abl-dtrace")
    if dtrace is not None:
        lines.append("distributed-tracing ablation (direct VM -> traced server):")
        lines.append(
            f"  {dtrace['workload']:10} gc time "
            f"{dtrace['direct']['best_gc_seconds'] * 1e3:.1f}ms -> "
            f"{dtrace['traced']['best_gc_seconds'] * 1e3:.1f}ms "
            f"({dtrace['gc_time_ratio']:.2f}x), "
            f"{dtrace['trace_events']} events / {dtrace['request_spans']} request "
            f"spans exported ({'valid' if dtrace['trace_valid'] else 'INVALID'}), "
            f"max delivery lag {dtrace['max_delivery_lag_ms']:.2f}ms, "
            f"counters {'match' if dtrace['counters_match'] else 'DRIFT'}"
        )
    loadgen = payload.get("service-loadgen")
    if loadgen is not None:
        lines.append("service load generator (open-loop Poisson arrivals):")
        lines.append(
            f"  {loadgen['completed']}/{loadgen['sessions']} sessions completed, "
            f"{loadgen['rejected']} rejected, peak {loadgen['peak_concurrent']} "
            f"concurrent in {loadgen['wall_s']:.2f}s"
        )
        lines.append(
            f"  open p50/p99 {loadgen['open_latency_s']['p50'] * 1e3:.2f}/"
            f"{loadgen['open_latency_s']['p99'] * 1e3:.2f}ms, "
            f"session p50/p99 {loadgen['session_duration_s']['p50'] * 1e3:.2f}/"
            f"{loadgen['session_duration_s']['p99'] * 1e3:.2f}ms, "
            f"{loadgen['violation_frames']} violation frames streamed"
        )
    par = payload.get("par-mark")
    if par is not None:
        machine = par["machine"]
        lines.append(
            f"parallel-mark scaling ({par['workload']}, "
            f"{machine['cores']} cores, gil={'on' if machine['gil'] else 'off'}):"
        )
        seq = par["sequential"]
        lines.append(
            f"  sequential: {seq['mark_edges_per_second']:,.0f} edges/s, "
            f"p99 {seq['pause_p99_ms']:.3f}ms"
        )
        for workers, leg in sorted(par["curve"].items(), key=lambda kv: int(kv[0])):
            lines.append(
                f"  workers={workers}: {leg['mark_edges_per_second']:,.0f} edges/s "
                f"({leg['measured_speedup']:.2f}x measured, "
                f"{leg['zone_balance_speedup']:.2f}x zone-balance bound), "
                f"p99 {leg['pause_p99_ms']:.3f}ms, "
                f"{leg['edges_routed']} edges routed in {leg['packets_sent']} packets"
            )
        lines.append(
            "  counters " + ("match" if par["counters_match"] else "DRIFT")
        )
    lines.append(
        "work counters identical across modes: "
        + ("yes" if payload["counters_match"] else "NO — investigate")
    )
    return "\n".join(lines)
