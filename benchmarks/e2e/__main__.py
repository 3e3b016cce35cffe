"""``python -m benchmarks.e2e {run,trace,layers,agree,selftest}``.

``run`` repeats every workload in fresh processes and pools the samples;
``trace`` prints one workload's budget table; ``layers`` runs the isolated
probes alone; ``agree`` compares two ``run`` files against the bounds;
``selftest`` checks the benchmark against itself in under half a minute.
"""

import time

_STARTED = time.perf_counter()

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent.parent
sys.path[:0] = [p for p in (str(_ROOT), str(_ROOT / "src")) if p not in sys.path]

from benchmarks.e2e import catalog, env  # noqa: E402

RUN_PY = str(_HERE / "run.py")
BENCHMARK_JSON = _ROOT / "BENCHMARK.json"

#: A percentile is reported from pooled samples only with this many beyond it.
SAMPLES_BEYOND = 10


def declared() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def _child(workload: str, seed: int, seconds: float, trace: int, scale: str, extra=()) -> dict:
    """One ``run.py`` process; returns its full record."""
    with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=_ROOT) as scratch:
        out = str(Path(scratch) / "record.json")
        command = [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
                   "--out", out, *extra]
        done = subprocess.run(command, cwd=_ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            raise SystemExit(f"{' '.join(command)}\nexited {done.returncode}:\n{done.stderr}")
        sys.stderr.write(done.stderr)
        return json.loads(Path(out).read_text())


# -- run -------------------------------------------------------------------------------------

#: End-to-end metrics that are a percentile of samples: (samples key, percentile).
POOLED = {
    "unit_cal": ("unit_cal", 0.5),
    "pause_p50_cal": ("pause_cal", 0.5),
    "pause_p90_cal": ("pause_cal", 0.9),
    "vs_base_gc_ratio": ("gc_ratio", 0.5),
    "vs_base_wall_ratio": ("wall_ratio", 0.5),
}


def command_run(args) -> int:
    from benchmarks.e2e.harness import percentile

    workloads = [args.workload] if args.workload else list(catalog.WORKLOAD_NAMES)
    seconds = args.seconds if args.seconds else declared()["run_seconds"]
    document = {"env": env.record(args.seed, reps=args.reps, seconds=seconds, scale=args.scale),
                "workloads": {}}
    failed_anywhere = False
    for workload in workloads:
        records = [_child(workload, args.seed, seconds, 0, args.scale) for _ in range(args.reps)]
        metrics = {}
        for metric in catalog.END_TO_END:
            values = [r["result"]["metrics"][metric.name]["value"] for r in records]
            entry = {"value": statistics.median(values), "unit": metric.unit,
                     "min": min(values), "max": max(values), "reps": values}
            if metric.name in POOLED:
                # A percentile is taken over the samples of all repetitions pooled.
                key, q = POOLED[metric.name]
                samples = [v for r in records for v in r["samples"][key]]
                entry["value"] = percentile(samples, q)
                entry["samples"] = len(samples)
                entry["resolved"] = len(samples) * min(q, 1 - q) >= SAMPLES_BEYOND
            metrics[metric.name] = entry
        raw = {name: statistics.median(r["raw"][name] for r in records) for name in records[0]["raw"]}
        attempted = sum(r["result"]["attempted"] for r in records)
        failed = sum(r["result"]["failed"] for r in records)
        failed_anywhere |= failed > 0
        document["workloads"][workload] = {
            "metrics": metrics, "raw": raw, "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "noisy": any(r["env"]["noisy"] for r in records),
            "sizes": records[0]["env"]["sizes"],
        }
        for name, entry in metrics.items():
            note = ""
            if "samples" in entry:
                note = f"  n={entry['samples']}" + ("" if entry["resolved"] else " (fewer than 10 samples beyond it)")
            print(f"{workload:<14} {name:<20} {entry['value']:12.4f} {entry['unit']:<6}"
                  f" min {entry['min']:.4f} max {entry['max']:.4f}{note}")
        print(f"{workload:<14} {'failed_share':<20} {failed / attempted:12.4f} share  ({failed} of {attempted})")
        for name, value in raw.items():
            print(f"{workload:<14} {name:<20} {value:12.4f}  (uncalibrated, not bounded)")
    env.close(document["env"])
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1))
    return 1 if failed_anywhere else 0


# -- trace / layers ----------------------------------------------------------------------------


def command_trace(args) -> int:
    from benchmarks.e2e import harness, spans

    inject = dict(spans.parse_delay(text) for text in args.inject_delay)
    seconds = args.seconds if args.seconds else declared()["run_seconds"]
    record = harness.measure(args.workload, args.seed, seconds, True, _STARTED,
                             scale=args.scale, inject=inject, out=args.out)
    metrics = record["result"]["metrics"]
    print(spans.render_budget(args.workload, record["budget"], metrics["trace.overhead_ratio"]["value"]))
    print()
    _print_layers(metrics, only="T")
    return 0 if record["result"]["correct"] else 1


def _print_layers(metrics: dict, only: str) -> None:
    for layer in catalog.PER_LAYER:
        if layer.src == only:
            print(f"{layer.name:<44} {metrics[layer.name]['value']:16.4f} {layer.unit:<6} -> {layer.moves}")


def command_layers(args) -> int:
    from benchmarks.e2e import layers

    record = env.record(args.seed, scale=args.scale)
    values = layers.run(args.seed, args.scale)
    metrics = {m.name: {"value": values[m.name], "unit": m.unit, "src": m.src, "moves": m.moves}
               for m in catalog.PER_LAYER if m.src == "L"}
    _print_layers(metrics, only="L")
    if args.out:
        Path(args.out).write_text(json.dumps({"env": env.close(record), "metrics": metrics}, indent=1))
    return 0


# -- agree -------------------------------------------------------------------------------------


def command_agree(args) -> int:
    """Two ``run`` files of one commit must agree within each metric's bound."""
    first = json.loads(Path(args.a).read_text())["workloads"]
    second = json.loads(Path(args.b).read_text())["workloads"]
    bounds = {m["name"]: m["bound"] for m in declared()["end_to_end"]}
    problems = []
    for workload in sorted(set(first) | set(second)):
        if workload not in first or workload not in second:
            problems.append(f"{workload}: in only one of the two files")
            continue
        for side, document in (("A", first), ("B", second)):
            emitted = set(document[workload]["metrics"])
            problems += [f"{workload} {name}: declared but not emitted by {side}" for name in sorted(set(bounds) - emitted)]
            problems += [f"{workload} {name}: emitted by {side} but not declared" for name in sorted(emitted - set(bounds))]
            if document[workload]["failed"]:
                problems.append(f"{workload}: {side} has failed_share {document[workload]['failed_share']:.4f}, must be 0")
        for name, bound in bounds.items():
            a = first[workload]["metrics"].get(name)
            b = second[workload]["metrics"].get(name)
            if a is None or b is None:
                continue
            spread = abs(a["value"] - b["value"]) / min(a["value"], b["value"]) if min(a["value"], b["value"]) > 0 else float("inf")
            verdict = "ok" if spread <= bound else "DISAGREE"
            print(f"{workload:<14} {name:<20} A {a['value']:12.4f} B {b['value']:12.4f} {a['unit']:<6}"
                  f" spread {100 * spread:6.2f} %  bound {100 * bound:5.1f} %  {verdict}")
            if spread > bound:
                problems.append(f"{workload} {name}: A/A spread {100 * spread:.2f} % exceeds the {100 * bound:.1f} % bound")
    for problem in problems:
        print(f"agree: {problem}", file=sys.stderr)
    return 1 if problems else 0


# -- selftest ----------------------------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

#: (workload, layer, delay): the delay must land in that layer's budget row.
INJECTIONS = (("live_graph", "gc.tracer.drain", "50ms"), ("served_stream", "service.session.run", "100ms"))
LOCALISED_SHARE = 0.90
RESIDUAL_LIMIT = 0.10


def _declaration_problems(document: dict) -> list:
    problems = []
    if document != catalog.benchmark_json(document.get("run_seconds")):
        problems.append("BENCHMARK.json differs from benchmarks/e2e/catalog.py")
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in document[key]]
    problems += [f"name {name!r} breaks the contract" for name in names if not _NAME.match(name)]
    problems += [f"name {name!r} is used twice" for name in set(names) if names.count(name) > 1]
    for key in ("end_to_end", "per_layer"):
        problems += [f"unit {m['unit']!r} of {m['name']} breaks the contract"
                     for m in document[key] if not _UNIT.match(m["unit"])]
    problems += [f"why of {w['name']} is longer than 200 characters"
                 for w in document["workloads"] if len(w["why"]) > 200 or "\n" in w["why"]]
    problems += [f"bound of {m['name']} is outside (0, 0.25]"
                 for m in document["end_to_end"] if not 0 < m["bound"] <= 0.25]
    if len(document["per_layer"]) > 128 or len(document["end_to_end"]) > 16:
        problems.append("too many metrics")
    return problems


def _per_unit_rows(record: dict) -> dict:
    units = record["budget"]["units"] or 1
    return {name: seconds / units for name, seconds in record["budget"]["rows_s"].items()}


def command_selftest(args) -> int:
    begun = time.perf_counter()
    problems = _declaration_problems(declared())
    end_to_end = {m.name for m in catalog.END_TO_END}
    per_layer = {m.name for m in catalog.PER_LAYER}
    traced = {}
    for workload in catalog.WORKLOAD_NAMES:
        plain = _child(workload, args.seed, args.seconds, 0, "smoke")
        traced[workload] = record = _child(workload, args.seed, args.seconds, 1, "smoke")
        for label, run, names in (("run", plain, end_to_end), ("trace", record, per_layer)):
            result = run["result"]
            if set(result["metrics"]) != names:
                problems.append(f"{workload} {label}: metric names differ from the catalog")
            if not result["correct"]:
                problems.append(f"{workload} {label}: {result['failed']} of {result['attempted']} operations failed")
        zero = [name for name, m in plain["result"]["metrics"].items() if not m["value"] > 0]
        if zero:
            problems.append(f"{workload}: end-to-end metrics at zero: {', '.join(zero)}")
        residual = record["budget"]["residual_share"]
        print(f"selftest: {workload:<14} oracles ok={plain['result']['correct'] and record['result']['correct']}"
              f"  budget residual {100 * residual:.2f} %")
        if residual > RESIDUAL_LIMIT:
            problems.append(f"{workload}: budget rows miss the traced wall by {100 * residual:.1f} %")
    for workload, layer, delay in INJECTIONS:
        injected = _child(workload, args.seed, args.seconds, 1, "smoke", ("--inject-delay", f"{layer}={delay}"))
        before, after = _per_unit_rows(traced[workload]), _per_unit_rows(injected)
        moved = {name: after.get(name, 0.0) - before.get(name, 0.0) for name in set(before) | set(after)}
        share = moved.get(layer, 0.0) / sum(abs(delta) for delta in moved.values())
        print(f"selftest: {workload:<14} +{delay} in {layer}: {100 * share:.1f} % of the moved time is in that row")
        if share < LOCALISED_SHARE:
            problems.append(f"{workload}: only {100 * share:.1f} % of an injected {layer} delay landed in its row")
    for problem in problems:
        print(f"selftest: FAIL {problem}", file=sys.stderr)
    print(f"selftest: {'FAIL' if problems else 'ok'} in {time.perf_counter() - begun:.1f} s")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub, workload_required: bool):
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument("--workload", choices=catalog.WORKLOAD_NAMES, required=workload_required)
        sub.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
        sub.add_argument("--scale", choices=("full", "smoke"), default="full")
        sub.add_argument("--out")

    run = commands.add_parser("run", help="every end-to-end metric, each repetition in a fresh process")
    common(run, workload_required=False)
    run.add_argument("--reps", type=int, default=3)
    run.set_defaults(call=command_run)

    trace = commands.add_parser("trace", help="the traced run: budget table and per-layer metrics")
    common(trace, workload_required=True)
    trace.add_argument("--inject-delay", action="append", default=[], metavar="LAYER=2ms")
    trace.set_defaults(call=command_trace)

    probes = commands.add_parser("layers", help="the isolated per-layer probes")
    probes.add_argument("--seed", type=int, required=True)
    probes.add_argument("--scale", choices=("full", "smoke"), default="full")
    probes.add_argument("--out")
    probes.set_defaults(call=command_layers)

    agree = commands.add_parser("agree", help="compare two run files against the bounds")
    agree.add_argument("a")
    agree.add_argument("b")
    agree.set_defaults(call=command_agree)

    selftest = commands.add_parser("selftest", help="names, oracles and cost localisation at smoke scale")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--seconds", type=float, default=0.8)
    selftest.set_defaults(call=command_selftest)

    args = parser.parse_args(argv)
    return args.call(args)


if __name__ == "__main__":
    sys.exit(main())
