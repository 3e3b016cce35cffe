"""Heap-integrity verifier tests."""

import pytest

from repro.gc.verify import HeapVerificationError, verify_heap
from repro.heap import header as hdr
from repro.heap.layout import NULL
from tests.conftest import build_chain, make_node_class


class TestCleanHeaps:
    def test_empty_vm_verifies(self, vm):
        assert verify_heap(vm) == []

    def test_populated_vm_verifies(self, vm, node_class):
        build_chain(vm, node_class, 10)
        vm.gc()
        assert verify_heap(vm) == []

    def test_verifies_across_collectors(self, any_vm):
        cls = make_node_class(any_vm)
        nodes = build_chain(any_vm, cls, 10)
        nodes[4]["next"] = None
        any_vm.gc()
        assert verify_heap(any_vm) == []

    def test_verifies_with_assertions_registered(self, vm, node_class):
        nodes = build_chain(vm, node_class, 5)
        vm.assertions.assert_dead(nodes[4])
        vm.assertions.assert_unshared(nodes[3])
        vm.assertions.assert_ownedby(nodes[0], nodes[1])
        vm.gc()
        assert verify_heap(vm) == []


class TestDetection:
    def test_detects_dangling_reference(self, vm, node_class):
        nodes = build_chain(vm, node_class, 2)
        nodes[0].obj.slots[node_class.field("next").slot] = 0xDEAD0
        problems = verify_heap(vm, raise_on_error=False)
        assert any("dangling reference" in p for p in problems)
        with pytest.raises(HeapVerificationError):
            verify_heap(vm)

    def test_detects_dangling_root(self, vm):
        vm.statics.set_ref("bad", 0xBAD0)
        problems = verify_heap(vm, raise_on_error=False)
        assert any("dangling address" in p for p in problems)

    def test_detects_leftover_mark_bit(self, vm, node_class):
        nodes = build_chain(vm, node_class, 1)
        vm.heap.marks.add(nodes[0].obj.address)
        problems = verify_heap(vm, raise_on_error=False)
        assert any("mark set holds 1 address" in p for p in problems)

    def test_detects_leftover_owned_bit(self, vm, node_class):
        nodes = build_chain(vm, node_class, 1)
        nodes[0].obj.set(hdr.OWNED_BIT)
        problems = verify_heap(vm, raise_on_error=False)
        assert any("OWNED bit" in p for p in problems)

    def test_detects_stale_registry_entry(self, vm, node_class):
        nodes = build_chain(vm, node_class, 1)
        vm.engine.registry.register_dead(0xFE0, "stale", 0)
        problems = verify_heap(vm, raise_on_error=False)
        assert any("dead site" in p for p in problems)

    def test_detects_unsorted_ownee_array(self, vm, node_class):
        nodes = build_chain(vm, node_class, 3)
        vm.assertions.assert_ownedby(nodes[0], nodes[1])
        vm.assertions.assert_ownedby(nodes[0], nodes[2])
        record = vm.engine.registry.owners[nodes[0].obj.address]
        record.ownees.reverse()
        problems = verify_heap(vm, raise_on_error=False)
        assert any("unsorted" in p for p in problems)

    def test_detects_stale_region_queue_entry(self, vm):
        vm.main_thread.region_queue.append(0xFE0)
        problems = verify_heap(vm, raise_on_error=False)
        assert any("region queue" in p for p in problems)


class TestQuarantineBounds:
    def test_fence_is_idempotent_and_counted(self):
        from repro.gc.verify import Quarantine

        quarantine = Quarantine(capacity=4)
        assert quarantine.fence(0x100) is True
        assert quarantine.fence(0x100) is False  # already fenced: no-op
        assert len(quarantine) == 1
        assert 0x100 in quarantine
        assert quarantine.remaining == 3

    def test_overflow_is_a_typed_failure(self):
        from repro.errors import QuarantineOverflowError
        from repro.gc.verify import HeapVerificationError, Quarantine

        quarantine = Quarantine(capacity=2)
        quarantine.fence(0x100)
        quarantine.fence(0x200)
        with pytest.raises(QuarantineOverflowError) as excinfo:
            quarantine.fence(0x300)
        # Typed within the corruption hierarchy, carries what it held.
        assert not isinstance(excinfo.value, HeapVerificationError)
        assert excinfo.value.fenced == {0x100, 0x200}
        assert excinfo.value.problems
        # Re-fencing an already-held address stays a no-op, not an overflow.
        assert quarantine.fence(0x100) is False

    def test_sentinel_freelist_scrub_withholds_aliased_cells(self, vm, node_class):
        from repro.gc.verify import run_sentinel, verify_heap

        nodes = build_chain(vm, node_class, 4)
        space = vm.collector.space
        live = nodes[0].obj.address
        space.free_list.push(live, space.cell_size(live))
        run_sentinel(vm, scrub_freelists=True)
        assert vm.collector.recovery.cells_fenced == 1
        assert live in vm.collector.quarantine
        # The scrub repaired the heap the paranoid walker validates: the
        # aliased cell is off the free list (fenced-and-listed would be a
        # fresh paranoid problem, so the scrub must remove, not just fence).
        assert verify_heap(vm, raise_on_error=False, paranoid=True) == []


class TestContinuousVerification:
    def test_workloads_leave_heap_consistent(self, vm):
        from repro.workloads.jbb import JbbConfig, run_pseudojbb

        run_pseudojbb(
            vm,
            JbbConfig(
                iterations=1,
                transactions_per_iteration=100,
                assert_dead_orders=True,
                assert_ownedby_orders=True,
                gc_per_iteration=True,
            ),
        )
        assert verify_heap(vm) == []

    def test_semispace_moves_leave_heap_consistent(self):
        from repro.runtime.vm import VirtualMachine

        vm = VirtualMachine(heap_bytes=1 << 20, collector="semispace")
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 20)
        vm.assertions.assert_ownedby(nodes[0], nodes[5])
        vm.gc()
        vm.gc()
        assert verify_heap(vm) == []
