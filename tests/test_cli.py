"""CLI (`python -m repro`) tests, driven through main(argv)."""

import json
import pathlib
import re
import runpy
import sys
import warnings

import pytest

from repro.__main__ import main
from repro.snapshot import load_snapshot

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "examples" / "programs"


def run_as_module(argv: list[str]) -> int:
    """Invoke ``python -m repro <argv>`` in-process via runpy."""
    saved = sys.argv
    sys.argv = ["repro"] + argv
    try:
        with pytest.raises(SystemExit) as excinfo, warnings.catch_warnings():
            # repro.__main__ is already imported by this test module; the
            # re-execution runpy warns about is exactly what we want here.
            warnings.filterwarnings("ignore", category=RuntimeWarning)
            runpy.run_module("repro", run_name="__main__")
        return excinfo.value.code or 0
    finally:
        sys.argv = saved


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "GC assertions" in out
        assert "pseudojbb" in out
        assert "marksweep" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Warning: an object that was asserted dead is reachable." in out
        assert "1 satisfied" in out

    def test_verify(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        for collector in ("marksweep", "semispace", "generational"):
            assert collector in out
        assert "OK" in out
        assert "FAILED" not in out

    def test_minij(self, capsys):
        path = str(PROGRAMS / "linked_list.minij")
        assert main(["minij", path]) == 0
        out = capsys.readouterr().out
        assert "sum: 55" in out

    def test_minij_custom_entry(self, tmp_path, capsys):
        source = tmp_path / "t.minij"
        source.write_text("def go(): void { print(7); }")
        assert main(["minij", str(source), "--entry", "go"]) == 0
        assert "7" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_figures_fast(self, capsys):
        assert main(["figures", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "fig5" in out
        assert "geomean" in out

    def test_stats_human(self, capsys):
        assert main(["stats", "--workload", "db"]) == 0
        out = capsys.readouterr().out
        assert "collections:" in out
        assert "pause times:" in out
        assert "live census" in out

    def test_stats_json_has_events_percentiles_census(self, capsys):
        assert main(["stats", "--workload", "pseudojbb", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"], "expected per-collection events"
        event = summary["events"][0]
        assert {"seq", "kind", "pause_s", "mark_s", "objects_freed"} <= set(event)
        for key in ("p50", "p90", "p99"):
            assert key in summary["pause_seconds"]
        assert summary["census"]["classes"], "expected a per-class census"

    def test_stats_prometheus(self, capsys):
        assert main(["stats", "--workload", "db", "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_gc_pause_seconds histogram" in out
        assert "repro_gc_collections_total" in out

    def test_stats_jsonl_sink(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main(["stats", "--workload", "db", "--jsonl", str(path)]) == 0
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows and rows[0]["seq"] == 1

    def test_stats_unknown_workload(self, capsys):
        assert main(["stats", "--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().out

    def test_figures_json_out(self, tmp_path, capsys):
        path = tmp_path / "BENCH_figures.json"
        assert main(["figures", "--trials", "1", "--json-out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-bench-figures/1"
        assert payload["trials"] == 1
        assert "fig2" in payload["figures"]
        assert "fig5" in payload["figures"]
        out = capsys.readouterr().out
        assert "fig5-infra: GC time — Infrastructure vs WithAssertions" in out
        assert "Paper aggregates for comparison:" in out and "'db_overhead_pct': 49.7" in out
        fig2 = payload["figures"]["fig2"]
        assert "geomean_overhead_pct" in fig2
        assert "pseudojbb" in fig2["rows"]


class TestSnapshotCli:
    @pytest.fixture()
    def captured_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "snaps"
        code = main(
            [
                "snapshot", "capture",
                "--workload", "swapleak",
                "--out-dir", str(out_dir),
                "--every-n-gcs", "1",
                "--gc-every-swaps", "16",
                "--swaps", "48",
            ]
        )
        assert code == 0  # no --assertions, so no violations
        capsys.readouterr()
        snapshots = sorted(out_dir.glob("heap-gc*.jsonl"))
        assert len(snapshots) >= 2
        return snapshots

    def test_capture_writes_only_loadable_bodies(self, captured_dir):
        """One file per capture: the JSONL body is the format."""
        directory = captured_dir[0].parent
        assert sorted(directory.iterdir()) == captured_dir
        for path in captured_dir:
            snapshot = load_snapshot(str(path))
            assert len(snapshot) == snapshot.summary["objects"] > 0

    def test_capture_with_assertions_exits_one(self, tmp_path, capsys):
        code = main(
            [
                "snapshot", "capture",
                "--workload", "swapleak",
                "--out-dir", str(tmp_path / "viol"),
                "--assertions",
                "--swaps", "8",
            ]
        )
        assert code == 1
        assert "GC assertion reports:" in capsys.readouterr().out

    def test_analyze(self, captured_dir, capsys):
        assert main(["snapshot", "analyze", str(captured_dir[-1])]) == 0
        out = capsys.readouterr().out
        assert "SObject" in out
        assert "retains" in out

    def test_diff_ranks_leaking_type_first(self, captured_dir, capsys):
        code = main(
            ["snapshot", "diff", str(captured_dir[0]), str(captured_dir[-1])]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "#1 SObject:" in out

    def test_why(self, captured_dir, capsys):
        addr = next(iter(load_snapshot(str(captured_dir[-1])).objects))
        assert main(["snapshot", "why", str(captured_dir[-1]), str(addr)]) == 0
        out = capsys.readouterr().out
        assert "Retained size:" in out
        assert "Dominator chain" in out

    def test_why_unreachable_is_usage_error(self, captured_dir, capsys):
        assert main(["snapshot", "why", str(captured_dir[-1]), "0xdead0"]) == 2
        assert "not reachable" in capsys.readouterr().out

    def test_bad_snapshot_file_is_usage_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"kind": "header", "schema": "other/1"}\n')
        assert main(["snapshot", "analyze", str(bogus)]) == 2
        assert "cannot load snapshot" in capsys.readouterr().out
        assert main(["snapshot", "analyze", str(tmp_path / "missing.jsonl")]) == 2


class TestRunpyInvocation:
    """Satellite: every subcommand is reachable via ``python -m repro``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["info"],
            ["demo"],
            ["figures", "--help"],
            ["verify", "--help"],
            ["stats", "--help"],
            ["minij", "--help"],
            ["snapshot", "--help"],
            ["snapshot", "capture", "--help"],
            ["snapshot", "analyze", "--help"],
            ["snapshot", "diff", "--help"],
            ["snapshot", "why", "--help"],
        ],
    )
    def test_subcommand_exits_zero(self, argv, capsys):
        assert run_as_module(argv) == 0
        capsys.readouterr()

    def test_every_documented_command_is_registered(self, capsys):
        """Docs and CI cannot quote a subcommand the parser no longer has.

        CHANGES.md and ROADMAP.md are history and are not scanned.
        """
        sources = [
            ROOT / "README.md",
            ROOT / "EXPERIMENTS.md",
            ROOT / "DESIGN.md",
            *sorted((ROOT / "docs").glob("*.md")),
            ROOT / ".github" / "workflows" / "ci.yml",
        ]
        quoted: dict[tuple, str] = {}
        for source in sources:
            # One pass over the whole text: prose wraps a command across lines.
            for match in re.finditer(
                r"python -m repro\s+([a-z][a-z-]*)(?:\s+([a-z][a-z-]*))?", source.read_text()
            ):
                command, word = match.groups()
                # `trace` and `snapshot` are groups: their next word is a command too.
                path = (command, word) if command in ("trace", "snapshot") and word else (command,)
                quoted.setdefault(path, source.name)
        assert len(quoted) >= 10, f"the scan found too little: {sorted(quoted)}"
        for path, where in sorted(quoted.items()):
            # argparse exits 0 for a registered command's --help and 2 for an
            # invalid choice.
            assert run_as_module([*path, "--help"]) == 0, (
                f"{where} quotes `python -m repro {' '.join(path)}`, "
                "which is not a registered subcommand"
            )
        capsys.readouterr()

    def test_every_documented_metric_family_is_declared_once(self):
        """Docs and CI cannot quote a ``repro_*`` family no renderer declares,
        and no family is declared by two of the three renderers — ``/metrics``
        concatenates them, and a second TYPE line is a malformed exposition."""
        from repro.monitor import MonitorHub, default_slos
        from repro.monitor.server import render_monitor_metrics
        from repro.runtime.vm import VirtualMachine
        from repro.service.admission import AdmissionController
        from repro.service.metrics import ServiceMetrics
        from repro.service.session import resolve_workload
        from repro.telemetry.sinks import render_prometheus

        # A run that has collected, taken a census and reported a violation,
        # under a hub with objectives armed: every conditional family renders.
        hub = MonitorHub(default_slos())
        heap_bytes, runner = resolve_workload("swapleak")
        vm = VirtualMachine(heap_bytes=heap_bytes, monitor=hub)
        runner(vm)
        renderings = {
            "telemetry": render_prometheus(vm.telemetry),
            "monitor": render_monitor_metrics(hub),
            "service": ServiceMetrics().render(AdmissionController(1 << 20)),
        }
        declared: dict[str, str] = {}
        for renderer, text in renderings.items():
            for family in re.findall(r"^# TYPE (repro_\w+) ", text, re.MULTILINE):
                assert family not in declared, (
                    f"{family} is declared by {declared[family]} and by {renderer}"
                )
                declared[family] = renderer
        assert set(declared.values()) == set(renderings)

        quoted: dict[str, str] = {}
        for source in (
            ROOT / "README.md",
            ROOT / "EXPERIMENTS.md",
            ROOT / "DESIGN.md",
            ROOT / ".github" / "workflows" / "ci.yml",
        ):
            for family in re.findall(r"\brepro_[a-z0-9_]+", source.read_text()):
                quoted.setdefault(family, source.name)
        assert len(quoted) >= 5, f"the scan found too little: {sorted(quoted)}"
        for family, where in sorted(quoted.items()):
            base = re.sub(r"_(bucket|sum|count)$", "", family)
            assert family in declared or base in declared, (
                f"{where} quotes {family}, which no renderer declares"
            )

    def test_every_service_option_is_set_by_some_caller(self):
        """The caller census, kept on: a config field nothing in ``src/`` sets
        outside its definition has one value in use, which is a constant."""
        import ast
        import dataclasses

        from repro.service import LoadgenConfig, ServiceConfig

        allowed = {
            ("ServiceConfig", "max_frame_bytes"): "input limit; tests drive it at 400 bytes",
            ("ServiceConfig", "outbound_queue_frames"): "backpressure policy, set per deployment",
            ("LoadgenConfig", "mix"): "the traffic shape a load test is about",
        }
        configs = {"ServiceConfig": ServiceConfig, "LoadgenConfig": LoadgenConfig}
        keywords: set[tuple] = set()
        assigned: set[str] = set()
        for source in (ROOT / "src").rglob("*.py"):
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in configs:
                    keywords |= {(node.func.id, kw.arg) for kw in node.keywords}
                elif isinstance(node, ast.Assign):
                    assigned |= {
                        t.attr for t in node.targets
                        if isinstance(t, ast.Attribute) and getattr(t.value, "id", "self") != "self"
                    }
        for name, config in configs.items():
            for field in dataclasses.fields(config):
                key = (name, field.name)
                assert key in keywords or field.name in assigned or key in allowed, (
                    f"{name}.{field.name} is set by no caller in src/: make it a constant"
                )
        assert not [key for key in allowed if key in keywords], "allowlisted, yet set"

    def test_help_epilogs_document_exit_codes(self, capsys):
        for argv in (["stats", "--help"], ["snapshot", "diff", "--help"]):
            run_as_module(argv)
            assert "exit codes: 0 = success" in capsys.readouterr().out

    def test_usage_error_exits_two(self, capsys):
        assert run_as_module(["snapshot", "capture", "--every-n-gcs"]) == 2
        # Gone like `bench`: `loadgen --trace-out` is the one traced-load path.
        assert run_as_module(["trace", "serve"]) == 2
        capsys.readouterr()

    def test_capture_via_runpy(self, tmp_path, capsys):
        code = run_as_module(
            [
                "snapshot", "capture",
                "--workload", "swapleak",
                "--out-dir", str(tmp_path / "rp"),
                "--every-n-gcs", "1",
                "--gc-every-swaps", "16",
                "--swaps", "32",
            ]
        )
        assert code == 0
        assert "snapshot(s) written" in capsys.readouterr().out
