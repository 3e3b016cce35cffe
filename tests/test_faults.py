"""Fault injection and hardened-GC recovery tests.

Covers the robustness surface end to end: the seeded injector itself,
the pre-GC sentinel's repairs + quarantine, assertion-engine
degradation (raising hooks, raising reaction handlers, check budgets),
the OOM recovery ladder (emergency GC → growth → HeapExhausted triage),
the telemetry sink circuit breaker, snapshot crash consistency, and a
seeded fuzzer whose surviving object set is checked against a
brute-force reachability oracle on all three collectors × both sweep
modes.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.reporting import AssertionKind
from repro.errors import (
    ConfigurationError,
    EngineDegraded,
    HeapCorruption,
    HeapExhausted,
    OutOfMemoryError,
    ReproError,
)
from repro.faults import ExplodingSink, Fault, FaultInjector, FaultPlan, run_chaos
from repro.faults.chaos import run_cell
from repro.gc.verify import BOTH_TIERS, heap_findings, run_sentinel, verify_heap
from repro.heap import header as hdr
from repro.heap.layout import NULL
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from repro.snapshot.capture import SnapshotPolicy
from repro.snapshot.format import SnapshotWriter, load_snapshot
from tests.conftest import ALL_COLLECTORS, build_chain, make_node_class, oracle_reachable

#: (collector, sweep_mode) cells the heavier tests sweep.
SWEEP_CELLS = [
    ("marksweep", "eager"),
    ("marksweep", "lazy"),
    ("generational", "eager"),
    ("generational", "lazy"),
    ("semispace", None),
]


def hardened_vm(
    collector: str = "marksweep",
    sweep_mode: str | None = None,
    heap_bytes: int = 256 << 10,
    max_heap_bytes: int | None = None,
    **kwargs,
) -> VirtualMachine:
    return VirtualMachine(
        heap_bytes=heap_bytes,
        collector=collector,
        sweep_mode=sweep_mode,
        hardened=True,
        max_heap_bytes=max_heap_bytes,
        **kwargs,
    )


# -- plan / injector mechanics -----------------------------------------------------------


class TestFaultPlan:
    def test_fault_needs_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            Fault("flip-owned")
        with pytest.raises(ValueError):
            Fault("flip-owned", at_gc=1, at_alloc=1)
        with pytest.raises(ValueError):
            Fault("not-a-kind", at_gc=1)

    def test_one_of_each_covers_every_kind(self):
        from repro.faults import FAULT_KINDS

        plan = FaultPlan.one_of_each(seed=5)
        assert plan.kinds() == set(FAULT_KINDS)
        assert plan.seed == 5

    def test_generate_is_seed_deterministic(self):
        a = FaultPlan.generate(seed=9, count=12)
        b = FaultPlan.generate(seed=9, count=12)
        assert [(f.kind, f.at_gc, f.at_alloc) for f in a.faults] == [
            (f.kind, f.at_gc, f.at_alloc) for f in b.faults
        ]
        c = FaultPlan.generate(seed=10, count=12)
        assert [(f.kind, f.at_gc, f.at_alloc) for f in a.faults] != [
            (f.kind, f.at_gc, f.at_alloc) for f in c.faults
        ]


class TestInjectorMechanics:
    def test_attach_detach_restores_allocate(self, vm):
        original = vm.collector.allocate
        injector = FaultInjector(vm, FaultPlan()).attach()
        assert vm.collector.allocate is not original
        injector.detach()
        assert vm.collector.allocate == original
        assert "allocate" not in vars(vm.collector)  # instance shadow removed

    def test_empty_plan_changes_nothing(self):
        plain = VirtualMachine(heap_bytes=128 << 10)
        armed = VirtualMachine(heap_bytes=128 << 10)
        injector = FaultInjector(armed, FaultPlan()).attach()
        cls_p = make_node_class(plain)
        cls_a = make_node_class(armed)
        build_chain(plain, cls_p, 200)
        build_chain(armed, cls_a, 200)
        plain.gc()
        armed.gc()
        # Timers are wall-clock; the bit-identical contract is on counters.
        assert plain.stats.snapshot()["counters"] == armed.stats.snapshot()["counters"]
        # Nothing fired, so no hardening machinery engaged either.
        assert injector.applied == []
        assert armed.collector.recovery.total() == 0

    def test_alloc_trigger_fires_at_the_right_count(self, vm):
        plan = FaultPlan().add("alloc-fail", at_alloc=5, arg=1)
        injector = FaultInjector(vm, plan).attach()
        cls = make_node_class(vm)
        build_chain(vm, cls, 4)
        assert injector.applied == []
        build_chain(vm, cls, 1, root_name="second")
        assert injector.kinds_applied() == {"alloc-fail"}

    def test_same_seed_same_schedule(self):
        def run(seed):
            vm = hardened_vm()
            injector = FaultInjector(vm, FaultPlan.one_of_each(seed)).attach()
            cls = make_node_class(vm)
            for round_no in range(4):
                build_chain(vm, cls, 120, root_name=f"r{round_no}")
                vm.gc(f"round {round_no}")
            return list(injector.applied)

        assert run(21) == run(21)
        assert run(21) != run(22)


# -- sentinel repairs + quarantine -------------------------------------------------------


class TestSentinelRepairs:
    def test_stale_mark_bit_cleared_and_counted(self):
        vm = hardened_vm()
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 4)
        # A mark left behind outside a collection, and a stale OWNED bit.
        vm.heap.marks.add(nodes[2].obj.address)
        nodes[1].obj.set(hdr.OWNED_BIT)
        vm.gc("sentinel sweep")
        assert vm.collector.recovery.stale_bits_cleared == 2
        assert not nodes[1].obj.test(hdr.OWNED_BIT)
        assert vm.collector.recovery.heap_degradations >= 1
        assert verify_heap(vm) == []

    def test_dangling_slot_nulled(self):
        vm = hardened_vm()
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 3)
        nodes[2].obj.slots[cls.field("next").slot] = 0xBAD000
        vm.gc("repair dangle")
        assert nodes[2].obj.slots[cls.field("next").slot] == NULL
        assert vm.collector.recovery.refs_fenced >= 1
        assert verify_heap(vm) == []

    def test_dangling_root_nulled(self):
        vm = hardened_vm()
        cls = make_node_class(vm)
        build_chain(vm, cls, 2)
        vm.statics.set_ref("ghost", 0xBAD10)
        vm.gc("repair root")
        assert vm.statics.get_ref("ghost") == NULL
        assert verify_heap(vm) == []

    def test_freed_zombie_evicted_and_quarantined(self):
        vm = hardened_vm()
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 3)
        zombie = nodes[2].obj
        nodes[1]["next"] = None
        zombie.status |= hdr.FREED_BIT
        run_sentinel(vm)
        assert vm.collector.recovery.objects_quarantined == 1
        assert zombie.address in vm.collector.quarantine
        assert vm.heap.maybe(zombie.address) is None
        assert verify_heap(vm) == []

    def test_registry_scrubbed_for_vanished_addresses(self):
        vm = hardened_vm()
        cls = make_node_class(vm)
        build_chain(vm, cls, 2)
        vm.engine.registry.register_dead(0xFE0, "stale", 0)
        run_sentinel(vm)
        assert vm.collector.recovery.registry_scrubbed == 1
        assert 0xFE0 not in vm.engine.registry.dead_sites

    def test_unhardened_vm_never_runs_the_sentinel(self, vm):
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 2)
        nodes[1].obj.slots[cls.field("next").slot] = 0xBAD000
        # Unhardened tracing hits the dangle head-on: typed heap error.
        with pytest.raises(ReproError):
            vm.gc("no sentinel")


class TestQuarantineAliasedCells:
    def test_duplicate_freelist_push_is_fenced(self):
        vm = hardened_vm(heap_bytes=64 << 10)
        injector = FaultInjector(vm, FaultPlan()).attach()
        cls = make_node_class(vm)
        build_chain(vm, cls, 10)
        detail = injector.apply_now("corrupt-freelist")
        assert "duplicated" in detail
        # Allocate until the poisoned cell cycles back out of the free list.
        build_chain(vm, cls, 400, root_name="pressure")
        assert vm.collector.recovery.cells_fenced >= 1
        assert len(vm.collector.quarantine) >= 1
        vm.gc("after fencing")
        assert verify_heap(vm) == []

    def test_aliased_cell_records_one_allocation(self):
        # The hardened retry used to re-enter allocate(), so the one object
        # that came out recorded its request size (and a fast-path hit) twice.
        vm = hardened_vm(heap_bytes=64 << 10)
        cls = make_node_class(vm)
        live = build_chain(vm, cls, 20)
        collector = vm.collector
        run = collector._alloc_cache[cls.instance_size]
        assert run, "the run cache should hold reserved cells of this class"
        run.append(live[3].address)  # next fast-path pop aliases a live object
        calls_before = vm.heap.stats.objects_allocated
        hits_before = collector.stats.alloc_fast_hits
        with vm.scope("after the alias"):
            fresh = vm.new(cls, value=7)
        assert collector.recovery.cells_fenced == 1
        assert live[3].address in collector.quarantine
        assert fresh.address != live[3].address and live[3]["value"] == 3
        assert vm.heap.stats.objects_allocated == calls_before + 1
        assert vm.telemetry.alloc_hist.count == vm.heap.stats.objects_allocated
        assert collector.stats.alloc_fast_hits == hits_before + 1
        vm.gc("after fencing")
        assert verify_heap(vm) == []

    @pytest.mark.parametrize("collector, sweep_mode", SWEEP_CELLS[:4])
    def test_fenced_cell_is_never_handed_out_again(self, collector, sweep_mode):
        # Once the fenced cell's legitimate occupant died, the sweep used to
        # push the address back on the free list and the allocator reused it.
        vm = hardened_vm(collector, sweep_mode)
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 8)
        vm.gc("settle")  # generational: the chain now lives in mature cells
        space = vm.collector.mature if collector == "generational" else vm.collector.space
        victim = nodes[4].address
        space.free_list.push(victim, space.cell_size(victim))

        heap, placed = vm.heap, []
        install, relocate = heap.install, heap.relocate

        def placing_install(address, *args, **kwargs):
            obj = install(address, *args, **kwargs)
            placed.append(address)
            return obj

        def placing_relocate(obj, address):
            relocate(obj, address)
            placed.append(address)

        heap.install, heap.relocate = placing_install, placing_relocate
        for round_no in range(10):
            if victim in vm.collector.quarantine:
                break
            build_chain(vm, cls, 4, root_name=f"probe{round_no}")
            if collector == "generational":
                vm.minor_gc("promote onto the poisoned free list")
        assert victim in vm.collector.quarantine and nodes[4]["value"] == 4

        nodes[3]["next"] = None  # the occupant dies
        vm.gc("sweep the occupant")
        vm.gc("and repay any debt")
        for round_no in range(40):
            build_chain(vm, cls, 100, root_name=f"churn{round_no % 3}")
        assert victim not in placed
        assert heap_findings(vm, BOTH_TIERS, finish_lazy_sweep=False) == []

    def test_uncommit_repairs_double_charge(self):
        from repro.heap.space import FreeListSpace

        space = FreeListSpace("t", 4096)
        first = space.allocate(16)
        before = space.bytes_in_use
        assert space.commit(first, 16)  # aliased commit: double charge
        space.uncommit(first, 16)
        assert space.bytes_in_use == before


# -- engine degradation ------------------------------------------------------------------


class TestEngineDegradation:
    def _raise_from_hook(self, vm):
        def exploding_hook(*args, **kwargs):
            raise RuntimeError("injected hook failure")

        vm.engine.pre_mark = exploding_hook

    def test_raising_hook_degrades_and_rearms(self):
        vm = hardened_vm()
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 3)
        self._raise_from_hook(vm)
        vm.gc("degraded collection")
        assert vm.engine.degraded
        assert vm.collector.recovery.engine_degradations == 1
        assert [e for e in vm.engine.degraded_events if isinstance(e, EngineDegraded)]
        # The heap itself is fine; checking re-arms on the next pause.
        del vm.engine.pre_mark
        nodes[0]["next"] = None
        vm.assertions.assert_dead(nodes[1], site="rearm test")
        vm.gc("re-armed collection")
        assert not vm.engine.degraded
        assert len(vm.engine.log.of_kind(AssertionKind.DEAD)) >= 0
        assert vm.engine.registry.dead_satisfied >= 1

    def test_unhardened_hook_exception_propagates(self, vm):
        make_node_class(vm)
        self._raise_from_hook(vm)
        with pytest.raises(RuntimeError):
            vm.gc("unhardened")

    def test_check_budget_disables_after_n_checks(self):
        vm = VirtualMachine(heap_bytes=4 << 20)
        vm.engine.check_budget = 3
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 20)
        for i in range(5, 15):
            vm.assertions.assert_dead(nodes[i], site=f"beyond budget {i}")
        vm.gc("budgeted")
        # All 10 asserted nodes stay reachable: unbudgeted this is 10
        # violations, but the 4th check blows the budget and degrades.
        assert 0 < len(vm.engine.log) <= 3
        assert vm.engine.degraded_events
        assert vm.engine.degraded_events[-1].phase == "budget"

    def test_check_budget_validation(self):
        from repro.core.engine import AssertionEngine
        from repro.runtime.classes import ClassRegistry

        with pytest.raises(ConfigurationError):
            AssertionEngine(ClassRegistry(), check_budget=0)
        with pytest.raises(ValueError):  # ConfigurationError is a ValueError
            AssertionEngine(ClassRegistry(), check_budget=-5)

    def test_raising_reaction_handler_is_contained(self):
        vm = hardened_vm()
        injector = FaultInjector(vm, FaultPlan()).attach()
        injector.apply_now("raise-reaction")
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 3)
        vm.assertions.assert_dead(nodes[2], site="still reachable")
        vm.gc("violation under raising handler")
        violations = vm.engine.log.of_kind(AssertionKind.DEAD)
        assert violations, "violation must still be reported"
        assert violations[0].reaction == "log"  # policy fallback applied
        assert vm.collector.recovery.engine_degradations >= 1

    def test_configuration_error_still_propagates_through_guard(self):
        from repro.core.reactions import Reaction

        vm = hardened_vm()
        vm.engine.policy.add_handler(lambda v: Reaction.FORCE)
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 2)
        vm.assertions.assert_instances(cls, 1)
        with pytest.raises(ConfigurationError):
            vm.gc("forced non-lifetime")


# -- injected violations -----------------------------------------------------------------


class TestInjectedViolations:
    def test_flip_dead_reports_site_none(self):
        vm = hardened_vm()
        injector = FaultInjector(vm, FaultPlan()).attach()
        cls = make_node_class(vm)
        build_chain(vm, cls, 5)
        injector.apply_now("flip-dead")
        vm.gc("trace the injected bit")
        injected = [
            v
            for v in vm.engine.log.violations
            if v.kind is AssertionKind.DEAD and v.site is None
        ]
        assert injected, "injected DEAD bit must surface as a violation"

    def test_genuine_violation_keeps_its_site(self):
        vm = hardened_vm()
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 3)
        vm.assertions.assert_dead(nodes[2], site="tests/test_faults.py:genuine")
        vm.gc("genuine violation")
        genuine = vm.engine.log.of_kind(AssertionKind.DEAD)
        assert genuine and genuine[0].site is not None

    def test_flip_unshared_reports_violation(self):
        vm = hardened_vm()
        injector = FaultInjector(vm, FaultPlan()).attach()
        cls = make_node_class(vm)
        build_chain(vm, cls, 5)
        injector.apply_now("flip-unshared")
        vm.gc("trace the second reference")
        unshared = vm.engine.log.of_kind(AssertionKind.UNSHARED)
        assert unshared and unshared[0].site is None


# -- OOM recovery ladder -----------------------------------------------------------------


class TestOomRecovery:
    @pytest.mark.parametrize("collector,sweep_mode", SWEEP_CELLS)
    def test_growth_rescues_allocation(self, collector, sweep_mode):
        vm = hardened_vm(
            collector, sweep_mode, heap_bytes=24 << 10, max_heap_bytes=512 << 10
        )
        cls = make_node_class(vm)
        build_chain(vm, cls, 2000)  # far beyond 24 KB of live data
        assert vm.collector.recovery.heap_growths >= 1
        assert vm.collector.recovery.oom_recoveries >= 1
        assert vm.collector.heap_bytes <= 512 << 10
        vm.gc("post growth")
        assert verify_heap(vm) == []

    def test_exhaustion_raises_typed_error_with_triage(self):
        vm = hardened_vm(heap_bytes=24 << 10, max_heap_bytes=32 << 10)
        cls = make_node_class(vm)
        with pytest.raises(HeapExhausted) as exc_info:
            build_chain(vm, cls, 4000)
        exc = exc_info.value
        assert isinstance(exc, OutOfMemoryError)  # the pinned contract
        assert exc.requested_bytes > 0
        assert exc.type_name == "Node"
        assert exc.census, "census must list live types"
        assert "Node" in exc.census
        triage = exc.triage()
        assert "census" in triage and "Node" in triage
        assert exc.top_retained, "top-retained triage must be populated"

    def test_no_growth_without_ceiling(self):
        vm = hardened_vm(heap_bytes=24 << 10, max_heap_bytes=None)
        cls = make_node_class(vm)
        with pytest.raises(OutOfMemoryError):
            build_chain(vm, cls, 4000)
        assert vm.collector.recovery.heap_growths == 0

    def test_injected_alloc_fail_triggers_emergency_gc(self):
        vm = hardened_vm(heap_bytes=256 << 10, max_heap_bytes=512 << 10)
        injector = FaultInjector(vm, FaultPlan()).attach()
        cls = make_node_class(vm)
        build_chain(vm, cls, 5)
        collections_before = vm.stats.collections
        # One refusal is absorbed by the slow path's retry; a burst forces
        # the ladder's first rung (the emergency collection).
        injector.apply_now("alloc-fail", 4)
        build_chain(vm, cls, 5, root_name="after")
        assert vm.stats.collections > collections_before
        assert verify_heap(vm) == []


# -- telemetry circuit breaker -----------------------------------------------------------


class TestSinkBreaker:
    def test_breaker_trips_skips_and_recovers(self):
        vm = hardened_vm(heap_bytes=64 << 10)
        # 3 consecutive failed events (each retried once) trip the breaker:
        # events 1-3 burn 6 attempts, the cooldown skips 4, and the first
        # post-cooldown event fails once more then succeeds on its retry.
        sink = ExplodingSink(fail_times=7)
        vm.telemetry.add_sink(sink)
        cls = make_node_class(vm)
        for i in range(20):
            vm.gc(f"event {i}")
        telemetry = vm.telemetry
        assert telemetry.sink_breaker_trips >= 1
        assert telemetry.sink_events_skipped >= 1
        assert telemetry.sink_retries >= 1
        assert sink.delivered >= 1, "breaker must close again after recovery"
        summary = telemetry.summary()
        assert summary["sink_breaker_trips"] == telemetry.sink_breaker_trips

    def test_degradation_events_recorded(self):
        vm = hardened_vm()
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 3)
        nodes[2].obj.set(hdr.OWNED_BIT)
        vm.gc("degrade once")
        assert vm.telemetry.degradations.get("heap", 0) >= 1
        events = vm.telemetry.degradation_events
        assert events and events[0].event == "degraded"
        assert "degraded" in vm.telemetry.render()


# -- snapshot crash consistency ----------------------------------------------------------


class TestSnapshotCrashConsistency:
    def test_abort_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "snap.jsonl")
        writer = SnapshotWriter(path, collector="test")
        writer.write_root("static 'x'", 0x1000)
        writer.abort()
        assert os.listdir(tmp_path) == []

    def test_failed_rewrite_preserves_previous_snapshot(self, tmp_path):
        path = str(tmp_path / "snap.jsonl")
        good = SnapshotWriter(path, collector="test")
        good.write_object(0x1000, "Node", 24, 0, 1, None, [])
        summary = good.finish()
        assert summary["objects"] == 1

        bad = SnapshotWriter(path, collector="test")
        bad.write_object(0x2000, "Node", 24, 0, 2, None, [])
        bad.abort()  # simulated mid-serialization failure

        reloaded = load_snapshot(path)
        assert list(reloaded.objects) == [0x1000]
        assert os.listdir(tmp_path) == ["snap.jsonl"]

    def test_injected_serialization_failure_never_publishes_partials(self, tmp_path):
        vm = hardened_vm(heap_bytes=128 << 10)
        SnapshotPolicy(str(tmp_path), every_n_gcs=1).attach(vm)
        injector = FaultInjector(vm, FaultPlan()).attach()
        injector.apply_now("raise-snapshot")
        cls = make_node_class(vm)
        build_chain(vm, cls, 5)
        vm.gc("capture blows up")
        assert vm.collector.recovery.snapshot_failures == 1
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == [], "no temp files after a contained failure"
        # The machinery recovers: the next capture publishes normally.
        vm.gc("capture recovers")
        published = [n for n in os.listdir(tmp_path) if n.endswith(".jsonl")]
        assert published
        for name in published:
            load_snapshot(str(tmp_path / name))  # parseable, not truncated

    def test_flush_aborts_on_write_error(self, tmp_path, monkeypatch):
        vm = VirtualMachine(heap_bytes=128 << 10)
        policy = SnapshotPolicy(str(tmp_path), every_n_gcs=1)
        policy.attach(vm)
        cls = make_node_class(vm)
        build_chain(vm, cls, 5)
        monkeypatch.setattr(
            SnapshotWriter,
            "write_object",
            lambda self, *a, **k: (_ for _ in ()).throw(OSError("disk full")),
        )
        vm.gc("flush fails")  # contained by the collector
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []
        assert [n for n in os.listdir(tmp_path) if n.endswith(".jsonl")] == []


# -- typed exception hierarchy -----------------------------------------------------------


class TestTypedExceptions:
    def test_hierarchy(self):
        from repro.errors import HeapError

        assert issubclass(HeapCorruption, HeapError)
        assert issubclass(HeapExhausted, OutOfMemoryError)
        assert issubclass(EngineDegraded, ReproError)
        assert issubclass(ConfigurationError, ReproError)
        assert issubclass(ConfigurationError, ValueError)

    def test_heap_corruption_carries_problems(self):
        exc = HeapCorruption("bad heap", problems=["a", "b"], fenced={0x10})
        assert exc.problems == ["a", "b"]
        assert exc.fenced == {0x10}

    def test_verification_error_is_heap_corruption(self, vm):
        from repro.gc.verify import HeapVerificationError

        vm.statics.set_ref("bad", 0xBAD0)
        with pytest.raises(HeapCorruption) as exc_info:
            verify_heap(vm)
        assert isinstance(exc_info.value, HeapVerificationError)
        assert exc_info.value.problems


# -- the fuzzer vs the oracle ------------------------------------------------------------


class TestFuzzerVsOracle:
    @pytest.mark.parametrize("collector,sweep_mode", SWEEP_CELLS)
    def test_randomized_faults_never_lose_live_objects(self, collector, sweep_mode):
        seed = 1234
        rng = random.Random(seed)
        vm = hardened_vm(
            collector, sweep_mode, heap_bytes=192 << 10, max_heap_bytes=384 << 10
        )
        injector = FaultInjector(vm, FaultPlan.generate(seed, count=6)).attach()
        cls = vm.define_class(
            "Fuzz", [("a", FieldKind.REF), ("b", FieldKind.REF), ("v", FieldKind.INT)]
        )
        roots: list = []
        for round_no in range(5):
            for i in range(60):
                handle = vm.new(cls, v=i)
                if roots and rng.random() < 0.6:
                    target = rng.choice(roots)
                    slot = rng.choice(["a", "b"])
                    handle[slot] = target
                if rng.random() < 0.3:
                    vm.statics.set_ref(f"fuzz_{round_no}_{i}", handle.address)
                    roots.append(handle)
            if rng.random() < 0.5 and roots:
                victim = roots.pop(rng.randrange(len(roots)))
                vm.statics.set_ref(victim_name(vm, victim), NULL)
            vm.gc(f"fuzz round {round_no}")

        vm.gc("fuzz recovery")
        vm.collector.sweep_all()
        assert verify_heap(vm) == []
        survivors = set(vm.heap.address_table())
        reachable = oracle_reachable(vm.heap, [a for _desc, a in vm.root_entries()])
        # Every oracle-reachable object must have survived collection.
        assert reachable <= survivors
        injector.detach()


def victim_name(vm, handle) -> str:
    """Find the static root name holding ``handle`` (fuzzer helper)."""
    for name, address in vm.statics.root_entries():
        if address == handle.address:
            return name.split("'")[1] if "'" in name else name
    return "fuzz_miss"


# -- the chaos harness itself ------------------------------------------------------------


class TestChaosHarness:
    def test_single_cell_passes(self):
        from repro.workloads.swapleak import SwapLeakConfig, run_swapleak

        result = run_cell(
            "marksweep",
            "eager",
            "swapleak",
            lambda vm: run_swapleak(vm, SwapLeakConfig(swaps=32, gc_every_swaps=8)),
            heap_bytes=96 << 10,
            seed=13,
        )
        assert result.ok, result.render()
        assert result.kinds_applied == FaultPlan.one_of_each(13).kinds()
        assert result.injected_dead_violations >= 1
        assert result.degradations

    def test_cli_quick_exits_zero(self):
        from repro.__main__ import main

        assert main(["chaos", "--quick", "--seed", "5"]) == 0
