"""Lazy (chunked) sweeping: parity with the eager discipline.

The lazy mode changes *when* dead cells are reclaimed — incrementally on
the allocation slow path instead of inside the pause — never *what* is
reclaimed.  These tests drive identical deterministic workloads through
twin eager/lazy VMs and require byte-exact heap state once the lazy VM's
outstanding sweep debt is repaid.
"""

import random

import pytest

from repro.errors import HeapError, RuntimeFault, UseAfterFreeError
from repro.gc.marksweep import MarkSweepCollector
from repro.gc.verify import verify_heap
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from tests.conftest import build_chain, make_node_class

HEAP = 256 << 10


def _make_vm(sweep_mode: str, space_policy: str = "freelist") -> VirtualMachine:
    if space_policy == "freelist":
        return VirtualMachine(heap_bytes=HEAP, sweep_mode=sweep_mode)
    collector = MarkSweepCollector(
        HEAP, space_policy=space_policy, sweep_mode=sweep_mode
    )
    return VirtualMachine(heap_bytes=HEAP, collector=collector)


def _churn(vm: VirtualMachine, seed: int = 42, rounds: int = 30) -> None:
    """Deterministic interleaved allocation, mutation, and explicit GCs."""
    rng = random.Random(seed)
    cls = make_node_class(vm)
    array_cls = vm.array_class(cls)
    for round_no in range(rounds):
        with vm.scope():
            chain = [vm.new(cls, value=round_no) for _ in range(rng.randrange(4, 24))]
            for prev, node in zip(chain, chain[1:]):
                prev["next"] = node
            arr_len = rng.randrange(1, 9)
            arr = vm.new_array(cls, arr_len)
            for idx in range(arr_len):
                arr[idx] = chain[rng.randrange(len(chain))]
            if rng.random() < 0.5:
                vm.statics.set_ref(f"keep-{round_no}", chain[0].address)
            if rng.random() < 0.3:
                vm.statics.set_ref(f"keep-arr-{round_no}", arr.address)
        if rng.random() < 0.4:
            vm.gc(f"churn round {round_no}")
        if round_no > 4 and rng.random() < 0.2:
            vm.statics.drop_ref(f"keep-{round_no - rng.randrange(1, 5)}")


class TestEagerLazyParity:
    @pytest.mark.parametrize("policy", ["freelist", "blocks"])
    def test_heap_state_identical_after_debt_repaid(self, policy):
        eager = _make_vm("eager", policy)
        lazy = _make_vm("lazy", policy)
        _churn(eager)
        _churn(lazy)
        lazy.collector.sweep_all()
        # Physical placement may differ (lazy recycles cells later, so some
        # allocations land on fresh bump addresses) — the logical live set
        # must not.
        assert lazy.heap.live_bytes() == eager.heap.live_bytes()
        assert len(lazy.heap) == len(eager.heap)
        assert lazy.heap.live_by_class() == eager.heap.live_by_class()
        if policy == "freelist":
            # Free lists reclaim per cell: byte-exact space accounting.
            assert lazy.collector.bytes_in_use() == eager.collector.bytes_in_use()
        else:
            # Blocks reclaim per block; occupancy still bounds live bytes.
            assert lazy.collector.bytes_in_use() >= lazy.heap.live_bytes()

    @pytest.mark.parametrize("policy", ["freelist", "blocks"])
    def test_work_counters_identical(self, policy):
        eager = _make_vm("eager", policy)
        lazy = _make_vm("lazy", policy)
        _churn(eager, seed=7)
        _churn(lazy, seed=7)
        lazy.collector.sweep_all()
        for field in ("objects_traced", "edges_traced", "objects_freed", "bytes_freed"):
            assert getattr(lazy.stats, field) == getattr(eager.stats, field), field

    def test_verify_heap_passes_with_debt_outstanding(self):
        vm = _make_vm("lazy")
        _churn(vm, seed=3, rounds=10)
        vm.gc("leave debt behind")
        debt = vm.collector.sweep_debt()
        assert debt > 0
        # verify_heap holds the heap's live view to exactness and only reads.
        assert verify_heap(vm, raise_on_error=False) == []
        assert vm.collector.sweep_debt() == debt


class TestLazySemantics:
    def test_pause_ends_at_mark_and_debt_is_reported(self):
        vm = _make_vm("lazy")
        cls = make_node_class(vm)
        with vm.scope():
            for _ in range(64):
                vm.new(cls)
        vm.gc("garbage now unswept")
        assert vm.collector.sweep_debt() > 0
        assert vm.telemetry.events.latest.sweep_debt_chunks == vm.collector.sweep_debt()
        assert vm.heap.sweep_cutoff is not None
        assert len(vm.heap.live()) < len(vm.heap)
        vm.collector.sweep_all()
        assert vm.collector.sweep_debt() == 0
        assert vm.heap.sweep_cutoff is None
        assert len(vm.heap.live()) == len(vm.heap)

    def test_use_after_free_detected_once_swept(self):
        vm = _make_vm("lazy")
        cls = make_node_class(vm)
        with vm.scope():
            a = vm.new(cls)
        vm.gc()
        vm.collector.sweep_all()
        with pytest.raises(UseAfterFreeError):
            a["value"]

    def test_no_resurrection_of_swept_cells_under_pressure(self):
        # Allocation pressure drives incremental sweeping; dead objects must
        # be reclaimed exactly once and never come back live.
        vm = VirtualMachine(heap_bytes=16 << 10, sweep_mode="lazy")
        cls = make_node_class(vm)
        keep = build_chain(vm, cls, 8)
        dead = []
        for _ in range(2000):
            with vm.scope():
                dead.append(vm.new(cls))
        assert vm.stats.collections > 0
        assert vm.stats.chunks_swept > 0
        vm.gc("judge the tail allocated since the last pressure GC")
        vm.collector.sweep_all()
        assert all(node.is_live for node in keep)
        assert all(not handle.is_live for handle in dead)

    def test_objects_allocated_after_mark_survive_debt_sweep(self):
        # The allocation-epoch stamp: a pending chunk sweep must skip cells
        # installed after the mark that scheduled it.
        vm = _make_vm("lazy")
        cls = make_node_class(vm)
        with vm.scope():
            for _ in range(32):
                vm.new(cls)
        vm.gc("schedule debt")
        assert vm.collector.sweep_debt() > 0
        survivor = build_chain(vm, cls, 4, root_name="post-mark")
        vm.collector.sweep_all()
        assert all(node.is_live for node in survivor)

    def test_violations_identical_eager_vs_lazy(self):
        # Property-style: random graphs with a random asserted subset must
        # produce the same violation set under both sweep disciplines.
        for seed in (11, 29, 83):
            reports = []
            for mode in ("eager", "lazy"):
                vm = _make_vm(mode)
                rng = random.Random(seed)
                cls = make_node_class(vm)
                with vm.scope():
                    nodes = [vm.new(cls, value=i) for i in range(40)]
                    for node in nodes:
                        node["next"] = nodes[rng.randrange(len(nodes))]
                    for i in rng.sample(range(len(nodes)), 8):
                        vm.statics.set_ref(f"root-{i}", nodes[i].address)
                    for i in rng.sample(range(len(nodes)), 12):
                        vm.assertions.assert_dead(nodes[i], site=f"site-{i}")
                vm.gc("judge assertions")
                reports.append(
                    sorted(
                        (v.kind.value, v.type_name, v.site)
                        for v in vm.engine.log.violations
                    )
                )
            assert reports[0] == reports[1], f"seed {seed}"
            assert reports[0], f"seed {seed} produced no violations to compare"


class TestConfiguration:
    def test_unknown_sweep_mode_rejected(self):
        with pytest.raises(HeapError):
            MarkSweepCollector(1 << 20, sweep_mode="deferred")

    def test_sweep_mode_rejected_for_non_sweeping_collector(self):
        # Generational sweeps its mature space in the pause, its one
        # discipline; semispace does not sweep at all.
        for collector in ("semispace", "generational"):
            with pytest.raises(RuntimeFault, match="sweep_mode is a mark-sweep option"):
                VirtualMachine(heap_bytes=1 << 20, collector=collector, sweep_mode="lazy")

    def test_gc_workers_rejected_for_single_threaded_collector(self):
        for collector in ("semispace", "generational"):
            with pytest.raises(RuntimeFault, match="gc_workers is a mark-sweep option"):
                VirtualMachine(heap_bytes=1 << 20, collector=collector, gc_workers=2)
