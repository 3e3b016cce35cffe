"""Every reader that says "live" gives the same answer eager and lazy.

After a lazy collection the heap table still holds the dead a sweep owes;
the heap's liveness rule (``ObjectHeap.is_live``) is what keeps them out of
every reader's view.  Each case runs one script on an eager VM and on a
lazy one, ends with a single ``vm.gc()`` and no ``sweep_all()``, and
compares what the readers report.  A new reader that walks the raw table
instead of asking the heap shows up here as an eager/lazy split.
"""

from __future__ import annotations

import re

from repro.baselines import StalenessDetector
from repro.core.probes import HeapProbes
from repro.gc.analysis import heap_census, incoming_references
from repro.gc.verify import verify_heap
from repro.runtime.vm import VirtualMachine
from repro.tracing.top import render_frame
from tests.conftest import build_chain, make_node_class


def _run(sweep_mode: str) -> dict:
    vm = VirtualMachine(heap_bytes=1 << 20, sweep_mode=sweep_mode)
    cls = make_node_class(vm)
    staleness = StalenessDetector(vm, stale_after=3)
    keep = build_chain(vm, cls, 3)

    # Garbage whose cells the next allocations recycle (the staleness case).
    with vm.scope("recycled"):
        for i in range(50):
            vm.new(cls, value=i)
    vm.gc("first")
    vm.collector.sweep_all()
    build_chain(vm, cls, 50, root_name="fresh")
    vm.gc("second")
    vm.gc("third")

    # The judged garbage: old enough to sit in swept space, one of it
    # pointing into the live chain.
    with vm.scope("dropped"):
        dropped = [vm.new(cls, value=i) for i in range(100)]
        dropped[0]["next"] = keep[1]
    vm.gc("judged")

    assert len(vm.heap.live()) == 53
    if sweep_mode == "lazy":
        assert vm.collector.sweep_debt() > 0 and len(vm.heap) > 53
    frame = render_frame(vm, 1, 0.0)
    seen = {
        "live_after": vm.telemetry.events.latest.live_after,
        "top": re.search(r"(\d+) objects live", frame).group(1),
        "describe": vm.describe(),
        "is_live": (all(node.is_live for node in keep), any(node.is_live for node in dropped)),
        "census": vm.telemetry.census.latest(),
        "heap_census": heap_census(vm),
        "incoming": [description for description, _holder in incoming_references(vm, keep[1])],
        "verify_heap": verify_heap(vm, raise_on_error=False),
        "stale": sorted((c.type_name, c.idle_epochs) for c in staleness.candidates()),
    }
    probes = HeapProbes(vm)
    seen["probes"] = (
        probes.probe_dead(dropped[5]),
        probes.probe_instances(cls),
        probes.probe_unshared(keep[1]),
        probes.probe_reachable_from(dropped[0], keep[1]),
    )
    return seen


def test_every_liveness_reader_agrees_eager_and_lazy():
    eager = _run("eager")
    lazy = _run("lazy")
    for reader in eager:
        assert lazy[reader] == eager[reader], reader
    assert eager["live_after"] == 53
    assert eager["is_live"] == (True, False)
    assert eager["incoming"] == ["Node.next"]
    assert eager["verify_heap"] == []
    assert len(eager["stale"]) == 3
    assert eager["probes"] == (True, 53, True, False)
