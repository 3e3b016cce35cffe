"""Isolated probes: one layer, one call, timed from outside.

These are the ``L`` rows of the catalog — numbers a traced workload cannot
give because the call never runs there (the other tracer loops, the other
allocators, the copying collectors, features that are off) or runs too hot
to wrap (handle loads and stores).  Every probe reports the median of a few
repetitions on a heap of its own; none has a bound.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
from time import perf_counter

from repro.gc.base import Collector
from repro.gc.stats import GcStats
from repro.gc.tracer import Tracer
from repro.gc.verify import verify_heap
from repro.heap.blocks import BlockSpace
from repro.heap.heap import ObjectHeap
from repro.heap.object_model import FieldKind
from repro.heap.space import FreeListSpace
from repro.heap.zones import ZonedFreeListSpace
from repro.interp.interpreter import Interpreter
from repro.runtime.vm import VirtualMachine
from repro.service.admission import AdmissionController
from repro.service.session import SWAPLEAK_HEAP_BYTES, FrameQueue, TenantSession, resolve_workload
from repro.service.wire import FrameDecoder, encode_frame
from repro.snapshot.capture import SnapshotSink
from repro.verify.paranoid import paranoid_problems
from repro.workloads.synthetic import SyntheticProfile, run_synthetic

from benchmarks.e2e import env
from benchmarks.e2e.workloads import build_graph

#: nodes in the probe graph, repetitions per probe, calls per timing loop.
SCALES = {
    "full": dict(nodes=15_000, repeats=3, calls=5_000),
    "smoke": dict(nodes=1_500, repeats=1, calls=500),
}

MINIJ_PROGRAM = env.ROOT / "examples" / "programs" / "order_processing.minij"


def _timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def _median_of(repeats: int, fn) -> float:
    return statistics.median(fn() for _ in range(repeats))


def _graph_vm(nodes: int, seed: int, **options) -> VirtualMachine:
    vm = VirtualMachine(heap_bytes=64 << 20, **options)
    build_graph(vm, nodes, seed)
    return vm


def _clear_marks(vm: VirtualMachine) -> None:
    for obj in vm.heap:
        Collector.clear_gc_bits(obj)


def tracer_variants(nodes: int, seed: int, repeats: int) -> dict:
    """``Tracer(...).trace(roots)`` on one heap, marks cleared between."""
    vm = _graph_vm(nodes, seed)
    heap, engine = vm.heap, vm.engine
    roots = list(vm.root_entries())

    def sink() -> SnapshotSink:
        return SnapshotSink("", heap=heap, moving=False)

    variants = {
        "plain": lambda s: Tracer(heap, s, None, track_paths=False),
        "paths": lambda s: Tracer(heap, s, None, track_paths=True),
        "engine": lambda s: Tracer(heap, s, engine, track_paths=True),
        "snapshot": lambda s: Tracer(heap, s, None, track_paths=True, snapshot=sink()),
        "generic": lambda s: Tracer(heap, s, None, track_paths=True, specialized=False),
    }
    out = {}
    for name, make in variants.items():
        def once() -> float:
            stats = GcStats()
            engine.gc_begin(vm.collector)
            tracer = make(stats)
            seconds = _timed(lambda: tracer.trace(roots))
            _clear_marks(vm)
            return stats.edges_traced / seconds
        out[f"gc.tracer.{name}_edges_per_s"] = _median_of(repeats, once)
    return out


def lazy_sweep(nodes: int, seed: int, repeats: int) -> dict:
    """``sweep_all()`` after a mark-only ``collect()``: sweep from outside."""
    vm = _graph_vm(nodes, seed, sweep_mode="lazy")
    cls = vm.classes.get("e2e.Node")

    def once() -> float:
        for _ in range(nodes // 4):
            vm.collector.allocate(cls)
        vm.collector.collect("probe")
        before = vm.stats.objects_swept
        seconds = _timed(vm.collector.sweep_all)
        return 1e9 * seconds / (vm.stats.objects_swept - before)

    return {"gc.lazysweep.sweep_all_ns_per_cell": _median_of(repeats, once)}


def allocators(calls: int, repeats: int) -> dict:
    """The collector's allocate on recycled cells, the three spaces under
    it, and the heap table's install."""
    vm = VirtualMachine(heap_bytes=64 << 20, assertions=False)
    cls = vm.define_class("e2e.Cell", [("a", FieldKind.INT), ("b", FieldKind.REF)])
    nbytes = cls.size_of()

    def allocate() -> float:
        for _ in range(calls):
            vm.collector.allocate(cls)
        vm.gc("recycle")
        allocate_one = vm.collector.allocate
        return 1e9 * _timed(lambda: [allocate_one(cls) for _ in range(calls)]) / calls

    def space(factory):
        def once() -> float:
            target = factory()

            def churn() -> None:
                addresses = [target.allocate(nbytes) for _ in range(calls)]
                for address in addresses:
                    target.free(address)

            churn()  # the timed pass allocates from the free lists
            return 1e9 * _timed(churn) / calls
        return once

    def install() -> float:
        heap = ObjectHeap()
        addresses = range(0x1000, 0x1000 + 64 * calls, 64)
        return 1e9 * _timed(lambda: [heap.install(a, cls) for a in addresses]) / calls

    return {
        "gc.marksweep.allocate_ns.isolated": _median_of(repeats, allocate),
        "heap.freelist.alloc_free_ns": _median_of(repeats, space(lambda: FreeListSpace("probe", 64 << 20))),
        "heap.blocks.alloc_free_ns": _median_of(repeats, space(lambda: BlockSpace("probe", 64 << 20))),
        "heap.zones.alloc_free_ns": _median_of(repeats, space(lambda: ZonedFreeListSpace("probe", 64 << 20))),
        "heap.install_ns": _median_of(repeats, install),
    }


def _pause_ms(vm: VirtualMachine, repeats: int) -> float:
    return 1e3 * _median_of(repeats, lambda: _timed(vm.gc))


def other_collectors(nodes: int, seed: int, repeats: int) -> dict:
    """The same graph under the parallel marker and the copying collectors."""
    sequential = _pause_ms(_graph_vm(nodes, seed), repeats)
    out = {}
    for label, workers in (("w1", 1), ("w2", max(2, env.nproc()))):
        parallel = _pause_ms(_graph_vm(nodes, seed, gc_workers=workers), repeats)
        out[f"gc.parallel.collect_ms.{label}"] = parallel
        out[f"gc.parallel.vs_sequential.{label}"] = sequential / parallel
    out["gc.semispace.collect_ms"] = _pause_ms(_graph_vm(nodes, seed, collector="semispace"), repeats)

    profile = SyntheticProfile("e2e-gen", iterations=max(1, nodes // 3000), clusters_per_iteration=200,
                               cluster_size=3, promote_every=20, retained_cap=400, payload_ints=3, seed=seed)
    vm = VirtualMachine(heap_bytes=1 << 20, collector="generational")
    minors: list[float] = []
    collect_minor = vm.collector.collect_minor

    def timed_minor(reason: str = "explicit-minor") -> None:
        minors.append(_timed(lambda: collect_minor(reason)))

    vm.collector.collect_minor = timed_minor
    out["gc.generational.churn_wall_s"] = _timed(lambda: run_synthetic(vm, profile))
    out["gc.generational.minor_ms_p50"] = 1e3 * statistics.median(minors) if minors else 0.0
    return out


def assertion_api(calls: int, repeats: int) -> dict:
    def once(register) -> float:
        vm = VirtualMachine(heap_bytes=64 << 20)
        cls = vm.define_class("e2e.Thing", [("ref", FieldKind.REF), ("id", FieldKind.INT)])
        with vm.scope("probe"):
            owner = vm.new(cls)
            things = [vm.new(cls) for _ in range(calls)]
            return 1e9 * _timed(lambda: [register(vm.assertions, owner, t) for t in things]) / calls

    return {
        "core.api.assert_dead_ns.isolated": _median_of(
            repeats, lambda: once(lambda api, owner, thing: api.assert_dead(thing, site="probe"))),
        "core.api.assert_ownedby_ns.isolated": _median_of(
            repeats, lambda: once(lambda api, owner, thing: api.assert_ownedby(owner, thing, site="probe"))),
    }


def mutator(calls: int, repeats: int) -> dict:
    vm = VirtualMachine(heap_bytes=64 << 20)
    cls = vm.define_class("e2e.Thing", [("ref", FieldKind.REF), ("id", FieldKind.INT)])
    out = {}
    with vm.scope("probe"):
        out["runtime.vm.new_ns.isolated"] = _median_of(
            repeats, lambda: 1e9 * _timed(lambda: [vm.new(cls) for _ in range(calls)]) / calls)
        handle = vm.new(cls)
        out["runtime.handles.load_ns"] = _median_of(
            repeats, lambda: 1e9 * _timed(lambda: [handle["id"] for _ in range(calls)]) / calls)

        def stores() -> None:
            for value in range(calls):
                handle["id"] = value

        out["runtime.handles.store_ns"] = _median_of(repeats, lambda: 1e9 * _timed(stores) / calls)
    return out


def interpreter() -> dict:
    """The MiniJ example program: compile, then run its fixed variant."""
    try:
        source = MINIJ_PROGRAM.read_text()
    except OSError:
        return {"interp.load_ms": 0.0, "interp.ops_per_s": 0.0}
    interp = Interpreter(VirtualMachine(heap_bytes=8 << 20))
    load_s = _timed(lambda: interp.load(source))
    run_s = _timed(lambda: interp.run("mainFixed"))
    return {"interp.load_ms": 1e3 * load_s, "interp.ops_per_s": interp.steps / run_s}


def optional_features(nodes: int, seed: int, repeats: int) -> dict:
    """One graph, a feature off and on, collections interleaved."""
    vms = {
        "bare": _graph_vm(nodes, seed, telemetry=False),
        "telemetry": _graph_vm(nodes, seed, telemetry=True),
        "tracing": _graph_vm(nodes, seed, telemetry=True, tracing=True),
        "monitor": _graph_vm(nodes, seed, telemetry=True, monitor=True),
    }
    pauses: dict[str, list] = {name: [] for name in vms}
    for _ in range(repeats + 2):
        for name, vm in vms.items():
            pauses[name].append(_timed(vm.gc))
    pause = {name: statistics.median(values) for name, values in pauses.items()}
    vm = vms["telemetry"]
    scratch = tempfile.mkdtemp(prefix=".bench_tmp", dir=os.getcwd())
    try:
        capture_s = _median_of(repeats, lambda: _timed(
            lambda: vm.capture_snapshot(os.path.join(scratch, "probe.snapshot"))))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "telemetry.on_gc_ratio": pause["telemetry"] / pause["bare"],
        "tracing.on_gc_ratio": pause["tracing"] / pause["telemetry"],
        "monitor.on_gc_ratio": pause["monitor"] / pause["telemetry"],
        "verify.paranoid_walk_ms": 1e3 * _median_of(repeats, lambda: _timed(lambda: paranoid_problems(vm))),
        "gc.verify.verify_heap_ms": 1e3 * _median_of(
            repeats, lambda: _timed(lambda: verify_heap(vm, raise_on_error=False))),
        "snapshot.capture_ms": 1e3 * capture_s,
    }


def service_parts(calls: int, repeats: int, swaps: int) -> dict:
    """The codec on the frames of one streamed session, and the session,
    queue and admission objects on their own — no server, no socket."""
    overrides = {"swaps": swaps, "gc_every_swaps": 1, "array_size": 32}

    def build() -> TenantSession:
        return TenantSession("s0", "probe", SWAPLEAK_HEAP_BYTES, queue_frames=1 << 30)

    construct_ms = 1e3 * _median_of(max(repeats, 5), lambda: _timed(build))
    session = build()
    session.run(resolve_workload("swapleak", True, overrides)[1])
    frames = [frame for frame, _at in session.queue.drain()]
    encoded = [encode_frame(frame) for frame in frames]
    blob = b"".join(encoded)
    chunks = [blob[i:i + (1 << 16)] for i in range(0, len(blob), 1 << 16)]

    def decode() -> None:
        decoder = FrameDecoder()
        for chunk in chunks:
            decoder.feed(chunk)

    encode_s = _median_of(repeats, lambda: _timed(lambda: [encode_frame(f) for f in frames]))
    decode_s = _median_of(repeats, lambda: _timed(decode))

    def pushes() -> float:
        queue = FrameQueue(max_frames=1 << 30)
        frame = frames[0]
        return 1e9 * _timed(lambda: [queue.push(frame) for _ in range(calls)]) / calls

    def admissions() -> float:
        controller = AdmissionController(1 << 30)

        def cycle() -> None:
            for _ in range(calls):
                controller.try_admit(4096)
                controller.release(4096)

        return 1e9 * _timed(cycle) / calls

    return {
        "service.wire.encode_ns_per_frame.isolated": 1e9 * encode_s / len(frames),
        "service.wire.decode_ns_per_frame.isolated": 1e9 * decode_s / len(frames),
        "service.wire.decode_mb_per_s.isolated": len(blob) / 1e6 / decode_s,
        "service.session.construct_ms.isolated": construct_ms,
        "service.session.queue_push_ns.isolated": _median_of(repeats, pushes),
        "service.admission.admit_release_ns.isolated": _median_of(repeats, admissions),
    }


def run(seed: int, scale: str = "full") -> dict:
    """Every ``L`` metric of the catalog, by name."""
    size = SCALES[scale]
    nodes, repeats, calls = size["nodes"], size["repeats"], size["calls"]
    out = {}
    out.update(tracer_variants(nodes, seed, repeats))
    out.update(lazy_sweep(nodes, seed, repeats))
    out.update(allocators(calls, repeats))
    out.update(other_collectors(nodes, seed, repeats))
    out.update(assertion_api(calls, repeats))
    out.update(mutator(calls, repeats))
    out.update(interpreter())
    out.update(optional_features(nodes, seed, repeats))
    out.update(service_parts(calls, repeats, swaps=32 if scale == "full" else 8))
    return out
