"""One benchmark process: set up, run one workload for its seconds, check,
and turn the samples into the declared metrics.

The end-to-end run carries one wrapper, a timer around
``MarkSweepCollector.collect`` (tenant VMs are built inside the service, so
it sits on the class).  The traced run spends its first quarter untraced —
that gives the raw wall-clock numbers and an overhead ratio from one
process — then installs the span wrappers for the rest and closes with the
isolated layer probes.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
from time import perf_counter, thread_time

from repro.gc.marksweep import MarkSweepCollector

from benchmarks.e2e import catalog, env, layers, spans
from benchmarks.e2e.workloads import MEASURED, SIZES, WORKLOADS, DirectWorkload

#: Set-up is repeated and its median reported, so one slow build does not
#: decide ``setup_s``.
SETUP_REPETITIONS = 3

#: Share of a traced run's seconds spent untraced first.
UNTRACED_SHARE = 0.25


class PauseTimer:
    """The one end-to-end wrapper: seconds spent in each ``collect`` call.

    The clock is the calling thread's CPU time.  On a direct workload that
    is the wall clock under another name; in the service it leaves out the
    5 ms slices the interpreter lock hands to other threads in the middle of
    a tenant's collection, which made a served pause read 1 ms or 6 ms by
    the toss of a coin.
    """

    def __init__(self) -> None:
        self.pauses: list[float] = []
        self._original = None

    def install(self) -> None:
        original = self._original = MarkSweepCollector.collect
        record = self.pauses.append

        def timed_collect(collector, reason: str = "explicit") -> None:
            start = thread_time()
            try:
                original(collector, reason)
            finally:
                record(thread_time() - start)

        MarkSweepCollector.collect = timed_collect

    def uninstall(self) -> None:
        MarkSweepCollector.collect = self._original


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _per(amount: float, n: float, scale: float = 1.0) -> float:
    return scale * amount / n if n else 0.0


def cycle_samples(workload, cycles: list) -> dict:
    """What each cycle contributes: its calibrated unit time, its two base
    ratios and its calibrated pauses."""
    unit_cal, pause_cal = [], []
    for cycle in cycles:
        good = [u.wall_s for u in cycle.measured() if u.ok]
        if good:
            unit_cal.append(statistics.fmean(good) / cycle.cal_s)
        pause_cal += [p / cycle.cal_s for p in cycle.pauses]
    gc_ratio, wall_ratio = workload.base_ratios(cycles)
    return {"unit_cal": unit_cal, "gc_ratio": gc_ratio, "wall_ratio": wall_ratio, "pause_cal": pause_cal}


def end_to_end(samples: dict, cycles: list, setup_s: float) -> dict:
    unit_time = sum(u.wall_s for c in cycles for u in c.measured())
    return {
        "setup_s": setup_s,
        "unit_cal": percentile(samples["unit_cal"], 0.5),
        "gc_share": _per(sum(p for c in cycles for p in c.pauses), unit_time),
        "pause_p50_cal": percentile(samples["pause_cal"], 0.5),
        "pause_p90_cal": percentile(samples["pause_cal"], 0.9),
        "vs_base_gc_ratio": percentile(samples["gc_ratio"], 0.5),
        "vs_base_wall_ratio": percentile(samples["wall_ratio"], 0.5),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def raw_times(cycles: list) -> dict:
    """Wall-clock numbers as a stopwatch reads them: what a user of this
    machine sees, and what the machine's own drift moves by a fifth."""
    walls = [u.wall_s for c in cycles for u in c.measured() if u.ok]
    pauses = [p for c in cycles for p in c.pauses]
    return {
        "raw.unit_p50_ms": 1e3 * percentile(walls, 0.5),
        "raw.unit_p90_ms": 1e3 * percentile(walls, 0.9),
        "raw.units_per_s": _per(len(walls), sum(c.wall_s for c in cycles)),
        "raw.gc_s": sum(pauses),
        "raw.pause_p50_ms": 1e3 * percentile(pauses, 0.5),
        "raw.pause_p90_ms": 1e3 * percentile(pauses, 0.9),
        "raw.cal_ms": 1e3 * percentile([c.cal_s for c in cycles], 0.5),
    }


def traced_layers(workload, recorder: spans.Recorder, cycles: list) -> tuple[dict, dict]:
    """The ``T`` metrics of the catalog and the budget table."""
    direct = isinstance(workload, DirectWorkload)
    units = [u for c in cycles for u in c.units]
    measured = [u for u in units if u.leg == MEASURED]
    tally = recorder.tally(lambda request: request != "base")
    counters: dict[str, float] = {}
    for unit in measured:
        for name, value in unit.counters.items():
            counters[name] = counters.get(name, 0) + value

    def total(name: str) -> float:
        return tally[name][1] if name in tally else 0.0

    def self_time(name: str) -> float:
        return tally[name][2] if name in tally else 0.0

    def count(name: str) -> int:
        return tally[name][0] if name in tally else 0

    budget = (spans.direct_budget if direct else spans.served_budget)(recorder, units)
    trace_time = total("gc.tracer.scan_roots") + total("gc.tracer.drain")
    run_time = sum(u.wall_s for u in measured) if direct else total("service.session.run")
    checks = counters.get("header_bit_checks", 0) + counters.get("ownees_checked", 0)
    out = {
        "gc.tracer.scan_roots_s": total("gc.tracer.scan_roots"),
        "gc.tracer.drain_s": total("gc.tracer.drain"),
        "gc.tracer.edges_per_s": _per(counters.get("edges_traced", 0), trace_time),
        "gc.lazysweep.sweep_s": total("gc.lazysweep.sweep"),
        "gc.lazysweep.ns_per_cell": _per(total("gc.lazysweep.sweep"), counters.get("objects_swept", 0), 1e9),
        "gc.marksweep.collect_s": total("gc.marksweep.collect"),
        "gc.marksweep.collections": count("gc.marksweep.collect"),
        "gc.marksweep.other_s": self_time("gc.marksweep.collect"),
        "gc.marksweep.allocate_ns": _per(self_time("gc.marksweep.allocate"), count("gc.marksweep.allocate"), 1e9),
        "gc.marksweep.alloc_fast_hit_share": _per(counters.get("alloc_fast_hits", 0), count("gc.marksweep.allocate")),
        "core.ownership.pre_mark_s": total("core.ownership.pre_mark"),
        "core.ownership.ns_per_ownee": _per(total("core.ownership.pre_mark"), counters.get("ownees_checked", 0), 1e9),
        "core.ownership.probes_per_lookup": _per(counters.get("ownee_search_probes", 0), counters.get("ownee_lookups", 0)),
        "core.engine.post_mark_s": total("core.engine.post_mark"),
        "core.engine.gc_end_s": total("core.engine.gc_end"),
        "core.engine.checks_per_gc": _per(checks, counters.get("collections", 0)),
        "core.reporting.report_us_per_violation": _per(total("core.reporting.report"), counters.get("violations_detected", 0), 1e6),
        "core.api.assert_dead_ns": _per(self_time("core.api.assert_dead"), count("core.api.assert_dead"), 1e9),
        "core.api.assert_ownedby_ns": _per(self_time("core.api.assert_ownedby"), count("core.api.assert_ownedby"), 1e9),
        "runtime.vm.new_ns": _per(self_time("runtime.vm.new"), count("runtime.vm.new"), 1e9),
        "runtime.mutator_s": max(0.0, run_time - total("gc.marksweep.collect") - self_time("gc.marksweep.allocate")),
        "trace.budget_residual_share": budget["residual_share"],
    }
    base_wall = 0.0
    if not direct:
        for cycle in cycles:
            base = {u.extra["kind"]: u.wall_s for u in cycle.units if u.leg != MEASURED}
            base_wall += sum(base[u.extra["kind"]] for u in cycle.measured() if u.ok)  # last base run of the kind
    out["service.session.run_vs_direct"] = _per(run_time, base_wall)
    out.update(_served_layers(recorder, [u for u in measured if u.ok], tally,
                              sum(c.wall_s for c in cycles)))
    return out, budget


def _served_layers(recorder: spans.Recorder, sessions: list, tally: dict, waves_wall_s: float) -> dict:
    """Client stamps, server spans and the codec tallies of a served run
    (all zero on a direct one)."""
    sessions = [u for u in sessions if "stamps" in u.extra]
    stamps = [u.extra["stamps"] for u in sessions]
    by_tenant = recorder.session_spans()
    joined = [(u, *by_tenant[u.extra["tenant"]]) for u in sessions if u.extra["tenant"] in by_tenant]
    counts = recorder.counts()
    none = [0, 0.0, 0.0]
    decode, encode = tally.get("service.wire.decode", none), tally.get("service.wire.encode", none)
    admit, release = tally.get("service.admission.try_admit", none), tally.get("service.admission.release", none)
    push = tally.get("service.session.queue_push", none)
    frames = sum(u.extra["frames"] for u in sessions)
    missed = sum(u.extra["missed"] for u in sessions)

    def p50_ms(values) -> float:
        return 1e3 * percentile(list(values), 0.5)

    return {
        "service.client.connect_hello_ms": p50_ms(s[1] - s[0] for s in stamps),
        "service.client.open_ms_p50": p50_ms(s[2] - s[0] for s in stamps),
        "service.tax_ms_p50": p50_ms(u.wall_s - u.extra["server_wall_s"] for u in sessions),
        "service.frames_per_s": _per(frames, waves_wall_s),
        "service.wire.decode_ns_per_frame": _per(decode[1], counts.get("decode.frames", 0), 1e9),
        "service.wire.encode_ns_per_frame": _per(encode[1], encode[0], 1e9),
        "service.wire.decode_mb_per_s": _per(counts.get("decode.bytes", 0) / 1e6, decode[1]),
        "service.admission.admit_release_ns": _per(admit[1], admit[0], 1e9) + _per(release[1], release[0], 1e9),
        "service.admission.retries": max(0, admit[0] - release[0]),
        "service.session.construct_ms": p50_ms(b[1] - b[0] for _u, b, _r in joined),
        "service.session.run_s": sum(r[1] - r[0] for _u, _b, r in joined),
        "service.session.queue_push_ns": _per(push[1], push[0], 1e9),
        "service.session.shed_share": _per(missed, frames + missed),
        "service.server.executor_wait_ms_p50": p50_ms(r[0] - u.extra["stamps"][2] for u, _b, r in joined),
        "service.server.delivery_lag_ms_p50": p50_ms(recorder.delivery_lags()),
        "service.server.close_ms_p50": p50_ms(s[4] - s[3] for s in stamps),
        "service.server.unattributed_ms_p50": p50_ms((u.extra["stamps"][2] - u.extra["stamps"][1]) - (b[1] - b[0])
                                                     for u, b, _r in joined),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, started: float,
            scale: str = "full", inject: dict | None = None, out: str | None = None) -> dict:
    """Run one workload in this process; returns the full record, whose
    ``result`` is the object the driver reads.

    ``started`` is ``perf_counter`` at process start, so the imports count
    as set-up.  ``out`` names a file the record is also written to; only
    then does it carry the spans.
    """
    sizes = SIZES[scale][name]
    record = env.record(seed, workload=name, seconds=seconds, scale=scale, sizes=sizes)
    timer = PauseTimer()
    timer.install()
    import_s = perf_counter() - started
    workload = WORKLOADS[name](seed, sizes, timer.pauses)
    builds = []
    for _ in range(1 if trace else SETUP_REPETITIONS):
        workload.teardown()
        gc.collect()
        begun = perf_counter()
        workload.setup()
        builds.append(perf_counter() - begun)
    # Plain seconds: imports and one-shot builds are not the kernel's kind of
    # work; calibrated, they repeated better on two workloads and worse on two.
    setup_s = import_s + statistics.median(builds)

    detail: dict = {}
    try:
        gc.collect()
        if not trace:
            cycles = workload.run(seconds)
            samples = cycle_samples(workload, cycles)
            metrics = end_to_end(samples, cycles, setup_s)
            detail = {"samples": samples, "raw": raw_times(cycles)}
            declared = catalog.END_TO_END
        else:
            plain = workload.run(seconds * UNTRACED_SHARE)
            recorder = spans.Recorder(inject)
            recorder.install()
            try:
                cycles = workload.run(seconds * (1 - UNTRACED_SHARE), recorder)
            finally:
                recorder.uninstall()
            metrics, budget = traced_layers(workload, recorder, cycles)
            metrics.update(raw_times(plain))
            metrics["trace.overhead_ratio"] = _per(
                percentile(cycle_samples(workload, cycles)["unit_cal"], 0.5),
                percentile(cycle_samples(workload, plain)["unit_cal"], 0.5))
            detail = {"budget": budget, "spans": recorder.spans() if out else []}
            cycles = plain + cycles
            declared = catalog.PER_LAYER
        problems = workload.finish()
    finally:
        workload.teardown()
        timer.uninstall()
    if trace:
        metrics.update(layers.run(seed, scale))

    units = [u for c in cycles for u in c.units]
    attempted = len(units) + 1  # the closing checks count as one operation
    failed = sum(1 for u in units if not u.ok) + (1 if problems else 0)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in declared},
    }
    for text in [p for u in units for p in u.problems] + problems:
        print(f"e2e: {name}: {text}", file=sys.stderr)
    detail.update(env=env.close(record), result=result, setup_builds_s=builds, import_s=import_s,
                  cycles=len(cycles))
    if out:
        with open(out, "w") as handle:
            json.dump(detail, handle)
    return detail
