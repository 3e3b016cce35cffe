"""Same behaviour as before, checked against history.

``tests/golden_marks.json`` was written by this module **on the commit
before the mark left the header word** (``HeapObject.status & MARK_BIT``),
so a twin-VM differential cannot hide a bug both twins share: four
workloads under six collector configurations, and for each one every
``GcStats`` counter, the heap's own counters, the rendered violation log,
the registry snapshot and the sequence of addresses the collector handed
out (installs and relocations — free-list order decides every later
address, so one reordered cell shows here).  The test reruns each scenario
and demands the same bytes.

Regenerate only on a commit whose behaviour is the reference::

    PYTHONPATH=src python -m tests.test_golden_marks --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.runtime.vm import VirtualMachine
from repro.workloads.suite import HEAP_BUDGETS, build_suite
from repro.workloads.swapleak import SwapLeakConfig, run_swapleak
from repro.workloads.synthetic import SyntheticProfile, run_synthetic

GOLDEN = Path(__file__).with_name("golden_marks.json")

#: label -> VirtualMachine options.
MODES = {
    "marksweep-eager": dict(collector="marksweep", sweep_mode="eager"),
    "marksweep-lazy": dict(collector="marksweep", sweep_mode="lazy"),
    "generational-eager": dict(collector="generational"),
    "semispace": dict(collector="semispace"),
    "marksweep-workers2": dict(collector="marksweep", sweep_mode="eager", gc_workers=2),
}

#: The benchmark's ``churn`` profile (benchmarks/e2e/workloads.py), seed 1.
E2E_CHURN = SyntheticProfile(
    "e2e-churn", iterations=40, clusters_per_iteration=200, cluster_size=3,
    promote_every=20, retained_cap=400, payload_ints=3, seed=1, heap_bytes=256 << 10,
)


def _workloads() -> dict:
    """label -> (heap bytes, runner)."""
    suite = build_suite()
    return {
        "db-asserted": (HEAP_BUDGETS["db"], suite["db"].run_with_assertions),
        "pseudojbb-asserted": (HEAP_BUDGETS["pseudojbb"], suite["pseudojbb"].run_with_assertions),
        "swapleak": (24 << 10, lambda vm: run_swapleak(vm, SwapLeakConfig(swaps=96, gc_every_swaps=8))),
        "e2e-churn": (E2E_CHURN.heap_bytes, lambda vm: run_synthetic(vm, E2E_CHURN)),
    }


WORKLOADS = _workloads()
SCENARIOS = [f"{workload}/{mode}" for workload in WORKLOADS for mode in MODES]


def observe(scenario: str) -> dict:
    """Run one scenario in a fresh VM and describe everything it did."""
    workload, mode = scenario.split("/")
    heap_bytes, run = WORKLOADS[workload]
    vm = VirtualMachine(heap_bytes=heap_bytes, **MODES[mode])
    handed_out: list[int] = []
    heap = vm.heap
    install, relocate = heap.install, heap.relocate

    def recording_install(address, cls, length=0):
        handed_out.append(address)
        return install(address, cls, length)

    def recording_relocate(obj, new_address):
        handed_out.append(new_address)
        return relocate(obj, new_address)

    heap.install, heap.relocate = recording_install, recording_relocate
    run(vm)
    at_exit = dict(vm.stats.snapshot()["counters"])
    vm.gc("golden: final")
    vm.collector.sweep_all()
    rendered = [v.render(show_addresses=True) for v in vm.engine.log.violations]
    return {
        "counters_at_exit": at_exit,
        "counters_after_final_gc": dict(vm.stats.snapshot()["counters"]),
        "heap": heap.stats.snapshot(),
        "census": {name: list(row) for name, row in sorted(heap.live_by_class().items())},
        "registry": vm.engine.registry.snapshot(),
        "violations": {"count": len(rendered), "sha256": _digest(rendered), "first": rendered[:2]},
        "addresses": {"count": len(handed_out), "sha256": _digest(handed_out), "last": handed_out[-8:]},
    }


def _digest(items: list) -> str:
    """One hash for a long sequence: the file stays reviewable, a single
    differing address or log line still changes it."""
    return hashlib.sha256("\n".join(map(str, items)).encode()).hexdigest()


def _canonical(document: dict) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_marks_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_golden_marks_byte_identical(golden, scenario):
    assert _canonical(observe(scenario)) == _canonical(golden[scenario])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    GOLDEN.write_text(_canonical({scenario: observe(scenario) for scenario in SCENARIOS}))
    print(f"wrote {GOLDEN} ({len(SCENARIOS)} scenarios)")
