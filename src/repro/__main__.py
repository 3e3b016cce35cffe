"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``      — package, collector, and suite overview.
* ``demo``      — run the quickstart scenario and print the reports.
* ``figures``   — regenerate Figures 2–5 (``--full`` for the whole suite;
  ``--json-out`` also writes the machine-readable record).
* ``verify``    — run a workload on every collector and verify heap
  integrity afterwards (a smoke test for modified collectors).
* ``stats``     — run a workload with telemetry on and report the GC event
  stream, pause percentiles, and per-class census (``--json`` / ``--prom``
  for machine-readable output, ``--jsonl FILE`` to stream events).
* ``snapshot``  — heap snapshots and leak triage: ``capture`` a workload's
  heap, ``analyze`` retained sizes, ``diff`` two snapshots for leak
  candidates, ask ``why`` an object is alive.
* ``trace``     — in-pause span tracing: ``run`` a workload and export a
  Chrome trace_event JSON loadable in Perfetto (``--flame`` adds a
  collapsed-stack flamegraph of mark work by type and alloc site);
  ``report`` prints the per-phase span table.
* ``top``       — live terminal view of a running workload: pause
  percentiles, sweep debt, census slopes, hottest GC phases.
* ``monitor``   — continuous heap-health monitoring: run a workload under
  MMU/utilization timelines and pause-SLO error budgets with burn-rate
  alerts (``--serve PORT`` exposes ``/metrics`` ``/health`` ``/slo`` over
  HTTP, ``--watch`` repaints a live SLO view, ``--chaos-seed`` injects a
  seeded fault schedule); exits 1 when an alert is firing or a budget is
  exhausted, 2 on bad monitor configuration.
* ``chaos``     — fault-injection soak: run a seeded fault schedule
  (header-bit flips, dangling refs, free-list corruption, allocation
  failure, raising reactions/sinks/snapshots) across the
  (collector × sweep-mode) × workload matrix on hardened VMs and assert
  the crash-consistency contract (``--quick`` for the CI smoke pair).
* ``minij FILE``— run a MiniJ program (with gcAssert* builtins available).

Exit codes (every command): 0 = success, 1 = assertion violations were
detected or a check failed, 2 = usage error (bad arguments or inputs).
"""

from __future__ import annotations

import argparse
import functools
import sys

#: Shared --help epilog line; every subcommand states the contract.
_EXIT_CODES = "exit codes: 0 = success, 1 = violations/check failure, 2 = usage error"


def _violations_exit(vm) -> int:
    """The 0-vs-1 half of the exit-code contract."""
    if vm.engine is not None and len(vm.engine.log):
        return 1
    return 0


def _print_reports(vm) -> None:
    if lines := vm.violation_lines():
        print()
        print("GC assertion reports:")
        for line in lines:
            print(line)
            print()


def _workload_vm(args, **vm_options):
    """The one way a command turns ``--workload`` and its knobs into a VM
    and something to run on it: ``(vm, runner)``, or ``(None, None)`` once
    the complaint about the arguments is printed (the caller exits 2).

    The name resolves through the service's table
    (:func:`repro.service.session.resolve_workload`), so a workload is the
    same program in the same default heap whether served, soaked or run
    from here; ``--heap`` overrides the size, and ``hardened=True`` builds
    the service's tenant VM (:func:`repro.service.session.hardened_vm`).
    """
    from repro.errors import RuntimeFault, WireProtocolError
    from repro.runtime.vm import VirtualMachine
    from repro.service.session import hardened_vm, resolve_workload

    overrides = {
        knob: value
        for knob in ("swaps", "array_size", "gc_every_swaps", "static_rep")
        if (value := getattr(args, knob)) is not None
    }
    try:
        heap_bytes, runner = resolve_workload(args.workload, args.assertions, overrides)
        build = hardened_vm if vm_options.pop("hardened", False) else VirtualMachine
        vm = build(
            heap_bytes=args.heap or heap_bytes,
            collector=args.collector,
            gc_workers=args.gc_workers,
            **vm_options,
        )
    except WireProtocolError as exc:  # an unknown name, listing the known ones
        print(exc)
        return None, None
    except (RuntimeFault, ValueError) as exc:  # e.g. --gc-workers on semispace
        print(f"configuration error: {exc}")
        return None, None
    return vm, runner


def _run_to_a_collection(vm, runner) -> None:
    """Run the workload, then force one collection only if none happened:
    there is no event, span or census sample to report otherwise.  (After a
    workload that *did* collect, a forced GC would only overwrite the census
    with the post-run empty heap.)"""
    runner(vm)
    if vm.stats.collections == 0:
        vm.gc("final collection")


def cmd_info(_args) -> int:
    import repro
    from repro.workloads.suite import build_suite

    print(f"repro {repro.__version__} — GC assertions (PLDI 2009) reproduction")
    print("collectors: marksweep (paper), semispace, generational")
    print("assertions: assert_dead, start_region/assert_alldead, "
          "assert_instances, assert_unshared, assert_ownedby")
    suite = build_suite()
    print(f"benchmark suite ({len(suite)} members):")
    for name, entry in sorted(suite.items()):
        asserted = " [+assertions variant]" if entry.run_with_assertions else ""
        print(f"  {name:12} heap={entry.heap_bytes:>8}B{asserted}")
    return 0


def cmd_demo(_args) -> int:
    """A compact version of examples/quickstart.py."""
    from repro import FieldKind, VirtualMachine

    vm = VirtualMachine(heap_bytes=1 << 20)
    node = vm.define_class("Node", [("next", FieldKind.REF), ("value", FieldKind.INT)])
    with vm.scope():
        head = vm.new(node, value=1)
        tail = vm.new(node, value=2)
        head["next"] = tail
        vm.statics.set_ref("head", head.address)
        vm.assertions.assert_dead(tail, site="demo: after detach")
    vm.gc()
    print("assert_dead on a still-reachable object:")
    print()
    print(vm.assertions.violations.lines[0])
    print()
    head["next"] = None
    vm.gc()
    print(f"after the fix: {vm.assertions.pending_dead()} pending assertions, "
          f"{vm.engine.registry.dead_satisfied} satisfied.")
    print("see examples/quickstart.py for all five assertion kinds.")
    return 0


def cmd_figures(args) -> int:
    from repro.bench import (
        PAPER_REFERENCE,
        dump_figures,
        infrastructure_figures,
        withassertions_figures,
    )

    benchmarks = None if args.full else ["antlr", "jess", "xalan", "db", "pseudojbb"]
    infra = infrastructure_figures(trials=args.trials, benchmarks=benchmarks)
    print(infra["fig2"].render())
    print()
    print(infra["fig3"].render())
    print()
    asserted = withassertions_figures(trials=args.trials)
    print(asserted["fig4"].render())
    print()
    print(asserted["fig5"].render())
    print()
    print(asserted["fig5-infra"].render())
    print()
    print("Paper aggregates for comparison:")
    for fig, ref in PAPER_REFERENCE.items():
        print(f"  {fig}: {ref}")
    if args.json_out:
        path = dump_figures({**infra, **asserted}, args.json_out, trials=args.trials)
        print()
        print(f"machine-readable results written to {path}")
    return 0


def cmd_stats(args) -> int:
    """Run one workload with telemetry enabled and report it."""
    import json

    from repro.telemetry import JsonlSink, render_prometheus

    vm, runner = _workload_vm(args, paranoid=args.paranoid)
    if vm is None:
        return 2
    if args.jsonl:
        vm.telemetry.add_sink(JsonlSink(args.jsonl))
    _run_to_a_collection(vm, runner)
    vm.telemetry.close()
    if args.json:
        print(json.dumps(vm.telemetry.summary(), indent=2))
    elif args.prom:
        print(render_prometheus(vm.telemetry), end="")
    else:
        print(f"{args.workload} on {vm.collector.describe()}")
        print()
        print(vm.telemetry.render())
    return _violations_exit(vm)


def cmd_verify(args) -> int:
    from repro.gc.verify import verify_heap
    from repro.runtime.vm import VirtualMachine
    from repro.workloads.jbb import JbbConfig, run_pseudojbb

    if args.model_check:
        from repro.verify import run_model_check

        progress = (lambda line: print(f"  {line}", flush=True)) if args.verbose else None
        report = run_model_check(
            max_objects=args.max_objects,
            max_edges=args.max_edges,
            max_roots=args.max_roots,
            progress=progress,
        )
        print(report.render())
        return 0 if report.ok else 1

    failures = 0
    for collector in ("marksweep", "semispace", "generational"):
        vm = VirtualMachine(
            heap_bytes=1 << 20, collector=collector, paranoid=args.paranoid
        )
        run_pseudojbb(
            vm,
            JbbConfig(
                iterations=1,
                transactions_per_iteration=150,
                assert_dead_orders=True,
                assert_ownedby_orders=True,
                gc_per_iteration=True,
            ),
        )
        vm.gc()
        problems = verify_heap(vm, raise_on_error=False)
        status = "OK" if not problems else f"FAILED ({len(problems)} problems)"
        print(f"{collector:12} {status}")
        for problem in problems:
            print(f"    {problem}")
        failures += bool(problems)
    return 1 if failures else 0


# -- trace / top commands ---------------------------------------------------------------


def cmd_trace_run(args) -> int:
    from repro.tracing import SpanTracer, write_chrome_trace, write_flamegraph

    # Mark attribution walks the heap after every mark phase; only pay for
    # it when a flamegraph was requested.
    tracer = SpanTracer(attribute_marks=bool(args.flame))
    vm, runner = _workload_vm(args, tracing=tracer, paranoid=args.paranoid)
    if vm is None:
        return 2
    _run_to_a_collection(vm, runner)
    summary = write_chrome_trace(
        vm.span_tracer,
        args.out,
        meta={"workload": args.workload, "collector": vm.collector.describe()},
    )
    print(f"workload {args.workload!r} on {vm.collector.describe()}")
    print(
        f"{summary['spans']} spans / {summary['events']} trace events "
        f"-> {summary['path']} ({summary['file_bytes']} bytes)"
    )
    print("open in https://ui.perfetto.dev (or chrome://tracing)")
    if args.flame:
        flame = write_flamegraph(vm.span_tracer, args.flame, weight=args.flame_weight)
        print(
            f"{flame['stacks']} collapsed stacks ({flame['weight']}) "
            f"-> {flame['path']}"
        )
    return _violations_exit(vm)


def cmd_trace_report(args) -> int:
    from repro.tracing import aggregate_spans, render_span_table

    vm, runner = _workload_vm(args, tracing=True)
    if vm is None:
        return 2
    _run_to_a_collection(vm, runner)
    print(
        f"workload {args.workload!r} on {vm.collector.describe()} — "
        f"{vm.stats.collections} collections"
    )
    print()
    print(render_span_table(aggregate_spans(vm.span_tracer.events), indent="  "))
    return _violations_exit(vm)


def cmd_top(args) -> int:
    from repro.tracing import run_top

    vm, runner = _workload_vm(args, tracing=True)
    if vm is None:
        return 2
    rc = run_top(vm, runner, interval=args.interval, frames=args.frames)
    return rc or _violations_exit(vm)


def cmd_monitor(args) -> int:
    """Run a workload under continuous heap-health monitoring."""
    from repro.errors import ReproError
    from repro.monitor import (
        MonitorHub,
        MonitorServer,
        default_slos,
        render_monitor_frame,
        run_monitor,
    )

    chaotic = args.chaos_seed is not None
    try:
        slos = default_slos(
            pause_p99_s=args.pause_slo_ms / 1e3,
            mmu_floor=args.mmu_floor,
        )
    except ValueError as exc:
        print(f"monitor configuration error: {exc}")
        return 2
    hub = MonitorHub(slos)
    # Chaos runs go to the hardened collector with growth headroom, same
    # contract as `repro chaos` (faults are absorbed, not fatal).
    vm, runner = _workload_vm(args, hardened=chaotic, monitor=hub)
    if vm is None:
        return 2

    if chaotic:
        from repro.faults import FaultInjector, FaultPlan

        plan = FaultPlan.one_of_each(args.chaos_seed)
        workload = runner

        def runner(vm):
            injector = FaultInjector(vm, plan).attach()
            try:
                workload(vm)
                injector.apply_remaining()
                vm.gc("monitor: post-chaos settle")
            except ReproError as exc:
                # Documented degradation outcome, not a monitor failure —
                # the SLO engine judges it via the degradation stream.
                print(f"(workload absorbed a fault: {exc})")
            finally:
                injector.detach()

    server = None
    if args.serve is not None:
        server = MonitorServer(hub, port=args.serve).start()
        print(f"serving /metrics /health /slo at {server.url}")
    try:
        if args.watch:
            rc = run_monitor(
                vm, hub, runner, interval=args.interval, frames=args.frames
            )
        else:
            _run_to_a_collection(vm, runner)
            print(f"workload {args.workload!r} on {vm.collector.describe()}")
            print()
            print(render_monitor_frame(vm, hub, 1, hub.uptime_s()))
            rc = hub.slos.exit_code() if hub.slos is not None else 0
            if rc:
                firing = [r.objective.name for r in hub.slos.firing()]
                spent = [r.objective.name for r in hub.slos.exhausted()]
                print(f"SLO breach: firing={firing} exhausted={spent}")
    finally:
        if server is not None:
            server.stop()
    return rc or _violations_exit(vm)


def cmd_serve(args) -> int:
    """Run the multi-tenant assertion service until interrupted."""
    import signal
    import threading

    from repro.service import AssertionService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        heap_budget_bytes=args.heap_budget,
        max_sessions=args.max_sessions,
        executor_workers=args.workers,
        hardened=not args.no_hardened,
        paranoid=args.paranoid,
    )
    service = AssertionService(config).start()
    print(f"serving repro-wire/1 on {config.host}:{service.port}", flush=True)
    if service.http is not None:
        print(f"serving /metrics /health /slo at {service.http.url}", flush=True)
    print(
        f"admission budget: {config.heap_budget_bytes} heap bytes"
        + (f", {config.max_sessions} sessions max" if config.max_sessions else ""),
        flush=True,
    )

    stop = threading.Event()

    def _graceful(signum, frame):
        stop.set()

    signal.signal(signal.SIGINT, _graceful)
    signal.signal(signal.SIGTERM, _graceful)
    try:
        while not stop.is_set():
            stop.wait(0.5)
    finally:
        service.stop()
        snap = service.admission.snapshot()
        print(
            f"shutdown: {snap['admitted_total']} session(s) admitted, "
            f"{snap['rejected_total']} rejected, peak {snap['peak_sessions']} "
            f"concurrent"
        )
    return 0


def cmd_loadgen(args) -> int:
    """Drive open-loop load at an assertion service."""
    from repro.errors import ConfigurationError
    from repro.service import LoadgenConfig, run_loadgen

    config = LoadgenConfig(
        sessions=args.sessions,
        rate=args.rate,
        seed=args.seed,
        mode=args.mode,
        quick=args.quick,
        host=args.host,
        port=args.port,
        heap_budget_bytes=args.heap_budget,
        trace_out=args.trace_out,
        delivery_lag_slo_s=(
            args.delivery_lag_slo_ms / 1e3
            if args.delivery_lag_slo_ms is not None else None
        ),
    )
    try:
        report = run_loadgen(config)
    except ConfigurationError as exc:
        print(f"loadgen: {exc}")
        return 2
    print(report.render())
    if args.trace_out:
        from repro.tracing import render_request_report

        print()
        print(render_request_report(report.requests))
    if args.json_out:
        import json

        with open(args.json_out, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")
    return 0 if report.ok else 1


def cmd_chaos(args) -> int:
    from repro.faults import run_chaos

    report = run_chaos(quick=args.quick, seed=args.seed, paranoid=args.paranoid)
    print(report.render())
    return 0 if report.ok else 1


def cmd_minij(args) -> int:
    from repro.interp.interpreter import Interpreter
    from repro.runtime.vm import VirtualMachine

    with open(args.file) as handle:
        source = handle.read()
    vm = VirtualMachine(heap_bytes=args.heap)
    interp = Interpreter(vm, echo=True)
    interp.load(source)
    interp.run(args.entry)
    _print_reports(vm)
    return _violations_exit(vm)


# -- snapshot subcommands ---------------------------------------------------------------


def _load_snapshot_or_complain(path: str):
    """Returns (snapshot, 0) or (None, 2); schema drift is a usage error."""
    from repro.snapshot import SnapshotFormatError, load_snapshot

    try:
        return load_snapshot(path), 0
    except (OSError, SnapshotFormatError) as exc:
        print(f"cannot load snapshot {path}: {exc}")
        return None, 2


def cmd_snapshot_capture(args) -> int:
    import os

    from repro.snapshot import SnapshotPolicy

    vm, runner = _workload_vm(args)
    if vm is None:
        return 2
    policy = SnapshotPolicy(
        args.out_dir,
        every_n_gcs=args.every_n_gcs,
        on_violation=args.on_violation,
    ).attach(vm)
    runner(vm)

    written = list(policy.captured)
    if not written:
        # No piggybacked capture happened (the workload never collected, or
        # no --every-n-gcs): guarantee at least one snapshot via a
        # standalone walk of whatever is still rooted.
        final = os.path.join(args.out_dir, "final.jsonl")
        summary = vm.capture_snapshot(final, trigger="manual")
        written.append(final)
        print(
            f"final heap: {summary['objects']} objects, "
            f"{summary['total_bytes']} bytes, {summary['roots']} roots"
        )
    print(f"workload {args.workload!r} on {vm.collector.describe()}")
    print(f"{len(written)} snapshot(s) written to {args.out_dir}:")
    for path in written:
        print(f"  {path}")
    _print_reports(vm)
    return _violations_exit(vm)


def cmd_snapshot_analyze(args) -> int:
    from repro.snapshot import build_dominator_tree, retained_sizes, top_retained

    snapshot, rc = _load_snapshot_or_complain(args.snapshot)
    if snapshot is None:
        return rc
    tree = build_dominator_tree(snapshot)
    retained = retained_sizes(snapshot, tree)
    meta = snapshot.meta
    print(
        f"snapshot {args.snapshot}: gc#{meta.get('gc_number')} "
        f"({meta.get('collector')}, trigger={meta.get('trigger')})"
    )
    print(
        f"{len(snapshot)} objects, {snapshot.total_bytes} live bytes, "
        f"{len(snapshot.roots)} roots, {len(tree)} reachable"
    )
    types = sorted(
        snapshot.type_summary().items(), key=lambda kv: (-kv[1][1], kv[0])
    )
    print(f"per-type (top {min(args.top, len(types))} by shallow bytes):")
    for name, (count, nbytes) in types[: args.top]:
        print(f"  {name:24} {count:>8} objects {nbytes:>12} bytes")
    rows = top_retained(snapshot, limit=args.top, tree=tree)
    print(f"heaviest objects (top {len(rows)} by retained bytes):")
    for addr, type_name, nbytes in rows:
        print(f"  {type_name:24} @{addr:#x}  retains {nbytes} bytes")
    # Exercised so a malformed tree fails here, not in a later `why` call.
    assert all(addr in retained for addr, _t, _b in rows)
    return 0


def cmd_snapshot_diff(args) -> int:
    from repro.snapshot import diff_snapshots

    first, rc = _load_snapshot_or_complain(args.first)
    if first is None:
        return rc
    last, rc = _load_snapshot_or_complain(args.last)
    if last is None:
        return rc
    diff = diff_snapshots(first, last)
    print(diff.render(limit=args.limit))
    return 0


def cmd_snapshot_why(args) -> int:
    from repro.snapshot import why_alive

    snapshot, rc = _load_snapshot_or_complain(args.snapshot)
    if snapshot is None:
        return rc
    try:
        address = int(args.address, 0)
    except ValueError:
        print(f"not an address: {args.address!r} (use decimal or 0x-hex)")
        return 2
    try:
        answer = why_alive(snapshot, address)
    except KeyError as exc:
        print(exc.args[0])
        return 2
    print(answer.render(show_addresses=not args.types_only))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str, example: str, group=sub, prefix: str = ""):
        """A (sub)subcommand whose --help ends in an example and the exit codes."""
        return group.add_parser(
            name,
            help=help_text,
            epilog=f"example: python -m repro {prefix}{example}\n{_EXIT_CODES}",
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )

    def add_paranoid_argument(target):
        target.add_argument(
            "--paranoid",
            action="store_true",
            help="every VM the command builds runs the paranoid wellformedness "
            "walker before and after each GC (HeapVerificationError on any "
            "broken invariant)",
        )

    def add_workload_arguments(target, workload: str = "pseudojbb"):
        """The workload-selection knobs of every command that runs one;
        ``_workload_vm`` reads them all."""
        target.add_argument(
            "--workload",
            default=workload,
            help="suite workload name or 'swapleak' (default: %(default)s)",
        )
        target.add_argument(
            "--collector",
            default="marksweep",
            choices=["marksweep", "semispace", "generational"],
        )
        target.add_argument(
            "--heap",
            type=int,
            default=None,
            help="heap bytes (default: the workload's tuned suite size)",
        )
        target.add_argument(
            "--assertions",
            action="store_true",
            help="use the workload's asserted variant when it has one",
        )
        target.add_argument(
            "--gc-workers",
            type=int,
            default=None,
            metavar="N",
            help="mark with N parallel workers on a zone-sharded heap "
            "(marksweep/generational; default: sequential unsharded heap)",
        )
        # swapleak's knobs default to None: the defaults are the service's.
        target.add_argument("--swaps", type=int, help="swapleak: swap count")
        target.add_argument("--array-size", type=int, help="swapleak: SObject array size")
        target.add_argument(
            "--gc-every-swaps",
            type=int,
            metavar="N",
            help="swapleak: collect every N swaps (gives --every-n-gcs captures "
            "to bracket)",
        )
        target.add_argument(
            "--static-rep",
            action="store_true",
            help="swapleak: run the repaired (non-leaking) variant",
        )

    add_command("info", "package and suite overview", "info")
    add_command(
        "demo",
        "run the quickstart scenario (prints a violation on purpose; exits 0)",
        "demo",
    )

    figures = add_command(
        "figures", "regenerate Figures 2-5", "figures --trials 1 --json-out BENCH_figures.json"
    )
    figures.add_argument("--trials", type=int, default=3)
    figures.add_argument("--full", action="store_true")
    figures.add_argument(
        "--json-out",
        metavar="PATH",
        help="also write machine-readable results (e.g. BENCH_figures.json)",
    )

    verify = add_command(
        "verify",
        "heap-integrity smoke test on all collectors (or exhaustive model check)",
        "verify --model-check --max-objects 4",
    )
    add_paranoid_argument(verify)
    verify.add_argument(
        "--model-check",
        action="store_true",
        help="enumerate every canonical heap shape in scope and prove "
        "Soundness1/Soundness2/Completeness in every collector cell",
    )
    verify.add_argument(
        "--max-objects",
        type=int,
        default=4,
        metavar="N",
        help="model check: largest heap shape, in objects (default: %(default)s)",
    )
    verify.add_argument(
        "--max-edges",
        type=int,
        default=3,
        metavar="E",
        help="model check: most reference edges per shape (default: %(default)s)",
    )
    verify.add_argument(
        "--max-roots",
        type=int,
        default=2,
        metavar="R",
        help="model check: most static roots per shape (default: %(default)s)",
    )
    verify.add_argument(
        "--verbose",
        action="store_true",
        help="model check: print per-cell progress lines",
    )

    stats = add_command(
        "stats", "GC telemetry for one workload run", "stats --workload db --json"
    )
    add_workload_arguments(stats)
    add_paranoid_argument(stats)
    stats.add_argument("--jsonl", metavar="PATH", help="stream events to a JSONL file")
    output = stats.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", help="full summary as JSON")
    output.add_argument(
        "--prom", action="store_true", help="Prometheus text exposition format"
    )

    snapshot = sub.add_parser(
        "snapshot",
        help="heap snapshots and leak triage",
        epilog=(
            "example: python -m repro snapshot capture --workload swapleak "
            "--out-dir /tmp/snaps --every-n-gcs 1 --gc-every-swaps 16\n"
            + _EXIT_CODES
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    snap_sub = snapshot.add_subparsers(dest="snapshot_command", required=True)
    add_snapshot_command = functools.partial(
        add_command, group=snap_sub, prefix="snapshot "
    )

    capture = add_snapshot_command(
        "capture",
        "run a workload and capture heap snapshot(s)",
        "capture --workload swapleak --out-dir snaps --every-n-gcs 1 --gc-every-swaps 16",
    )
    add_workload_arguments(capture, workload="swapleak")
    capture.add_argument("--out-dir", default="snapshots", metavar="DIR")
    capture.add_argument(
        "--every-n-gcs",
        type=int,
        default=None,
        metavar="N",
        help="piggyback a capture on every Nth collection",
    )
    capture.add_argument(
        "--on-violation",
        action="store_true",
        help="also capture (and annotate the report) when an assertion fires",
    )

    analyze = add_snapshot_command(
        "analyze",
        "dominator/retained-size analysis of one snapshot",
        "analyze snaps/final.jsonl --top 10",
    )
    analyze.add_argument("snapshot", help="snapshot .jsonl path")
    analyze.add_argument("--top", type=int, default=10)

    diff = add_snapshot_command(
        "diff",
        "rank leak candidates between two snapshots",
        "diff snaps/heap-gc00001-interval.jsonl snaps/final.jsonl",
    )
    diff.add_argument("first", help="earlier snapshot .jsonl path")
    diff.add_argument("last", help="later snapshot .jsonl path")
    diff.add_argument("--limit", type=int, default=10)

    why = add_snapshot_command(
        "why",
        "why is this object alive? dominator chain + retained size",
        "why snaps/final.jsonl 0x1040",
    )
    why.add_argument("snapshot", help="snapshot .jsonl path")
    why.add_argument("address", help="object address (decimal or 0x-hex)")
    why.add_argument(
        "--types-only",
        action="store_true",
        help="render the chain as types without addresses (Figure-1 style)",
    )

    trace = sub.add_parser(
        "trace",
        help="in-pause span tracing: Perfetto export and mark-work attribution",
        epilog=(
            "example: python -m repro trace run --workload lusearch --out trace.json\n"
            + _EXIT_CODES
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    add_trace_command = functools.partial(add_command, group=trace_sub, prefix="trace ")

    trace_run = add_trace_command(
        "run",
        "run a workload under span tracing; export Chrome/Perfetto JSON",
        "run --workload lusearch --out trace.json --flame mark.folded",
    )
    add_workload_arguments(trace_run)
    add_paranoid_argument(trace_run)
    trace_run.add_argument(
        "--out",
        default="trace.json",
        metavar="PATH",
        help="Chrome trace_event JSON output path (default: %(default)s)",
    )
    trace_run.add_argument(
        "--flame",
        metavar="PATH",
        help="also write a collapsed-stack flamegraph of mark work "
        "by (type, alloc site)",
    )
    trace_run.add_argument(
        "--flame-weight",
        choices=["bytes", "objects"],
        default="bytes",
        help="flamegraph weight (default: %(default)s)",
    )

    trace_report = add_trace_command(
        "report",
        "per-phase span table",
        "report --workload pseudojbb --assertions",
    )
    add_workload_arguments(trace_report)

    top = add_command(
        "top",
        "live terminal view: pauses, sweep debt, census slopes, hottest phases",
        "top --workload pseudojbb --interval 0.5",
    )
    add_workload_arguments(top)
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between repaints (default: %(default)s)",
    )
    top.add_argument(
        "--frames",
        type=int,
        default=None,
        metavar="N",
        help="exit after N frames (for scripting/CI; default: run to completion)",
    )

    monitor = add_command(
        "monitor",
        "continuous heap-health monitoring: MMU, SLO budgets, burn-rate alerts",
        "monitor --workload lusearch --serve 9464 --watch",
    )
    add_workload_arguments(monitor)
    monitor.add_argument(
        "--serve",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics /health /slo on this port while running "
        "(0 = ephemeral)",
    )
    monitor.add_argument(
        "--watch",
        action="store_true",
        help="repaint a live SLO/utilization view while the workload runs",
    )
    monitor.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="--watch: seconds between repaints (default: %(default)s)",
    )
    monitor.add_argument(
        "--frames",
        type=int,
        default=None,
        metavar="N",
        help="--watch: exit after N frames (for scripting/CI)",
    )
    monitor.add_argument(
        "--pause-slo-ms",
        type=float,
        default=50.0,
        metavar="MS",
        help="p99 pause objective in milliseconds (default: %(default)s)",
    )
    monitor.add_argument(
        "--mmu-floor",
        type=float,
        default=0.3,
        help="MMU(100ms) floor objective (default: %(default)s)",
    )
    monitor.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="inject a seeded fault schedule on a hardened VM "
        "(drives degradation SLOs)",
    )

    serve = add_command(
        "serve",
        "multi-tenant assertion service: async session server + HTTP sidecar",
        "serve --port 9700 --heap-budget 16777216",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="wire-protocol TCP port (default: ephemeral)",
    )
    serve.add_argument(
        "--http-port", type=int, default=0, metavar="PORT",
        help="/metrics /health /slo sidecar port (default: ephemeral)",
    )
    serve.add_argument(
        "--heap-budget", type=int, default=8 << 20, metavar="BYTES",
        help="aggregate committed-heap admission budget (default: %(default)s)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=None, metavar="N",
        help="hard cap on concurrent sessions (default: budget-limited only)",
    )
    serve.add_argument(
        "--workers", type=int, default=8,
        help="executor threads running tenant GC work (default: %(default)s)",
    )
    serve.add_argument(
        "--no-hardened", action="store_true",
        help="tenant VMs without the PR-5 OOM ladder (halves committed bytes)",
    )
    add_paranoid_argument(serve)

    loadgen = add_command(
        "loadgen",
        "open-loop Poisson load generator for the assertion service",
        "loadgen --sessions 100 --rate 200 --mode ramp",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument(
        "--port", type=int, default=None,
        help="target service port (default: self-host an in-process service)",
    )
    loadgen.add_argument(
        "--sessions", type=int, default=50,
        help="total sessions to run (default: %(default)s)",
    )
    loadgen.add_argument(
        "--rate", type=float, default=200.0,
        help="Poisson arrival rate, sessions/s (default: %(default)s)",
    )
    loadgen.add_argument(
        "--mode", choices=("flow", "ramp"), default="flow",
        help="flow: open-loop arrivals; ramp: all sessions open first "
        "(drives admission to the budget limit)",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--heap-budget", type=int, default=8 << 20, metavar="BYTES",
        help="self-hosted service budget (default: %(default)s)",
    )
    loadgen.add_argument(
        "--quick", action="store_true",
        help="CI smoke shape: at most 12 sessions",
    )
    loadgen.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the report as JSON",
    )
    loadgen.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="distributed tracing: write the merged multi-tenant "
        "Chrome/Perfetto trace here and print the per-request breakdown "
        "(implies a self-hosted service)",
    )
    loadgen.add_argument(
        "--delivery-lag-slo-ms", type=float, default=None, metavar="MS",
        help="override the self-hosted service's violation-delivery SLO "
        "(tight values force the burn-rate alert, for drills/CI)",
    )

    chaos = add_command(
        "chaos",
        "fault-injection soak across the collector matrix",
        "chaos --quick --seed 7",
    )
    chaos.add_argument(
        "--quick",
        action="store_true",
        help="one seed, smoke workload pair (lusearch + swapleak) — the CI gate",
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fault-schedule seed; a failing run replays bit-for-bit "
        "(default: %(default)s)",
    )
    add_paranoid_argument(chaos)

    minij = add_command("minij", "run a MiniJ program", "minij examples/programs/linked_list.minij")
    minij.add_argument("file")
    minij.add_argument("--entry", default="main")
    minij.add_argument("--heap", type=int, default=4 << 20)

    args = parser.parse_args(argv)
    handlers = {
        "info": cmd_info,
        "demo": cmd_demo,
        "figures": cmd_figures,
        "verify": cmd_verify,
        "stats": cmd_stats,
        "top": cmd_top,
        "monitor": cmd_monitor,
        "serve": cmd_serve,
        "loadgen": cmd_loadgen,
        "chaos": cmd_chaos,
        "minij": cmd_minij,
    }
    if args.command == "trace":
        trace_handlers = {"run": cmd_trace_run, "report": cmd_trace_report}
        return trace_handlers[args.trace_command](args)
    if args.command == "snapshot":
        snapshot_handlers = {
            "capture": cmd_snapshot_capture,
            "analyze": cmd_snapshot_analyze,
            "diff": cmd_snapshot_diff,
            "why": cmd_snapshot_why,
        }
        return snapshot_handlers[args.snapshot_command](args)
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
