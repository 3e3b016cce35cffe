"""Generational collector: nursery, write barrier, promotion, assertion latency."""

import pytest

from repro.gc.generational import GenerationalCollector
from repro.gc.verify import verify_heap
from repro.heap import header as hdr
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from tests.conftest import build_chain, make_node_class
from tests.test_call_budget import python_calls


@pytest.fixture
def gen_vm():
    return VirtualMachine(heap_bytes=1 << 20, collector="generational")


@pytest.fixture
def gen_node(gen_vm):
    return make_node_class(gen_vm)


class TestMinorCollection:
    def test_minor_gc_reclaims_nursery_garbage(self, gen_vm, gen_node):
        with gen_vm.scope():
            gen_vm.new(gen_node)
        gen_vm.minor_gc()
        assert gen_vm.heap.stats.objects_live == 0
        assert gen_vm.stats.minor_collections == 1
        assert gen_vm.stats.full_collections == 0

    def test_minor_gc_promotes_rooted_survivors(self, gen_vm, gen_node):
        nodes = build_chain(gen_vm, gen_node, 3)
        gen_vm.minor_gc()
        assert all(n.is_live for n in nodes)
        assert gen_vm.stats.objects_promoted == 3
        collector = gen_vm.collector
        for n in nodes:
            assert collector.mature.contains(n.obj.address)
            assert not collector.nursery.contains(n.obj.address)

    def test_promotion_rewrites_references(self, gen_vm, gen_node):
        nodes = build_chain(gen_vm, gen_node, 5)
        gen_vm.minor_gc()
        current = nodes[0]
        values = [current["value"]]
        while current["next"] is not None:
            current = current["next"]
            values.append(current["value"])
        assert values == [0, 1, 2, 3, 4]

    def test_write_barrier_keeps_nursery_object_alive(self, gen_vm, gen_node):
        # Promote a holder into the mature space first.
        with gen_vm.scope():
            holder = gen_vm.new(gen_node, value=100)
            gen_vm.statics.set_ref("holder", holder.address)
        gen_vm.minor_gc()
        assert gen_vm.collector.mature.contains(holder.obj.address)
        # Store a nursery object into the mature holder, then drop all roots
        # to it: only the remembered set keeps it alive at the next minor GC.
        with gen_vm.scope():
            young = gen_vm.new(gen_node, value=7)
            holder["next"] = young
        gen_vm.minor_gc()
        assert young.is_live
        assert holder["next"]["value"] == 7

    def test_array_element_store_into_promoted_array_keeps_young_alive(
        self, gen_vm, gen_node
    ):
        with gen_vm.scope():
            table = gen_vm.new_array(gen_node, 4)
            gen_vm.statics.set_ref("table", table.address)
        gen_vm.minor_gc()
        assert gen_vm.collector.mature.contains(table.obj.address)
        with gen_vm.scope():
            young = gen_vm.new(gen_node, value=9)
            table[2] = young
        gen_vm.minor_gc()
        assert young.is_live
        assert table[2]["value"] == 9

    def test_prebuilt_collector_keeps_its_barrier(self):
        # The VM binds the barrier once, after attach: a collector built
        # outside the VM must keep it too.
        collector = GenerationalCollector(1 << 20)
        vm = VirtualMachine(collector=collector)
        node = make_node_class(vm)
        with vm.scope():
            holder = vm.new(node)
            vm.statics.set_ref("holder", holder.address)
        vm.minor_gc()
        with vm.scope():
            young = vm.new(node, value=7)
            holder["next"] = young
        assert holder.address in collector.remembered
        vm.minor_gc()
        assert young.is_live

    @pytest.mark.parametrize("kind", ["marksweep", "semispace"])
    def test_store_without_a_remembered_set_enters_no_barrier(self, kind):
        vm = VirtualMachine(heap_bytes=1 << 20, collector=kind)
        assert vm.write_barrier is None
        node = make_node_class(vm)
        with vm.scope():
            holder, target, table = vm.new(node), vm.new(node), vm.new_array(node, 2)

            def stores():
                holder["next"] = target
                table[1] = target
                vm.write_ref(holder.obj, 0, target.address)

            entered = python_calls(stores)
        assert not [name for name in entered if "barrier" in name], entered

    def test_without_barrier_scan_object_would_die(self, gen_vm, gen_node):
        """Control for the barrier test: an unreferenced nursery object dies."""
        with gen_vm.scope():
            gen_vm.new(gen_node, value=7)
        before = gen_vm.heap.stats.objects_freed
        gen_vm.minor_gc()
        assert gen_vm.heap.stats.objects_freed == before + 1

    def test_nursery_full_triggers_minor_not_full(self):
        vm = VirtualMachine(heap_bytes=256 << 10, collector="generational")
        cls = make_node_class(vm)
        for _ in range(4000):
            with vm.scope():
                vm.new(cls)
        assert vm.stats.minor_collections > 0
        assert vm.stats.full_collections == 0

    def test_large_objects_allocate_directly_mature(self, gen_vm):
        threshold = gen_vm.collector._large_threshold
        big_length = threshold // 8 + 16  # comfortably past the threshold
        with gen_vm.scope():
            big = gen_vm.new_array(FieldKind.INT, big_length)
            assert gen_vm.collector.mature.contains(big.obj.address)
        with gen_vm.scope():
            small = gen_vm.new_array(FieldKind.INT, 4)
            assert gen_vm.collector.nursery.contains(small.obj.address)


class TestFullCollection:
    def test_full_gc_empties_nursery(self, gen_vm, gen_node):
        nodes = build_chain(gen_vm, gen_node, 4)
        gen_vm.gc()
        assert gen_vm.collector.nursery.bytes_in_use == 0
        assert all(n.is_live for n in nodes)

    def test_full_gc_reclaims_mature_garbage(self, gen_vm, gen_node):
        nodes = build_chain(gen_vm, gen_node, 4)
        gen_vm.minor_gc()  # promote
        gen_vm.statics.drop_ref("head")
        gen_vm.gc()
        assert all(not n.is_live for n in nodes)

    @pytest.mark.parametrize("sweep_mode", ["eager", "lazy"])
    def test_a_dead_mature_owner_does_not_hide_its_dead_nursery_ownee(self, sweep_mode):
        # The mature sweep and the nursery evacuation purge as one set: an
        # owner purged first would drop the ownee's entry before the
        # ownee's own purge counted it.
        vm = VirtualMachine(heap_bytes=1 << 20, collector="generational", sweep_mode=sweep_mode)
        owner_class = vm.define_class("Owner", [("item", FieldKind.REF)])
        element = vm.define_class("Element", [("id", FieldKind.INT)])
        with vm.scope():
            vm.statics.set_ref("owner", vm.new(owner_class).address)
        vm.minor_gc()  # the owner is mature now
        owner = vm.handle(vm.heap.get(vm.statics.get_ref("owner")))
        with vm.scope():
            ownee = vm.new(element, id=1)
            vm.assertions.assert_ownedby(owner, ownee)
        vm.statics.drop_ref("owner")
        vm.gc()
        vm.collector.sweep_all()
        assert vm.engine.registry.ownees_reclaimed == 1
        assert not vm.engine.registry.owners

    def test_promotion_that_repays_lazy_debt_clears_a_dead_owners_ownee_bit(self):
        # A mature owner dies while its nursery ownee survives (a static
        # holds it).  Promotion finds no free mature cell and sweeps the
        # owner's chunk on the allocation ladder; that chunk's purge must
        # still find the ownee where the registry says it is.
        vm = VirtualMachine(heap_bytes=64 << 10, collector="generational", sweep_mode="lazy")
        gc = vm.collector
        owner_class = vm.define_class("Owner", [("item", FieldKind.REF)])
        element = vm.define_class("Element", [("id", FieldKind.INT)])
        filler = vm.define_class("Filler", [(f"r{i}", FieldKind.REF) for i in range(4)])
        with vm.scope():
            vm.statics.set_ref("owner", vm.new(owner_class).address)
        count = 0
        while gc.mature.bytes_free > 3000:  # garbage-to-be fills the mature space
            with vm.scope():
                vm.statics.set_ref(f"f{count}", vm.new(filler).address)
            count += 1
            if gc.nursery.bytes_in_use > gc.nursery.capacity_bytes // 2:
                vm.minor_gc()
        vm.minor_gc()
        owner = vm.handle(vm.heap.get(vm.statics.get_ref("owner")))
        with vm.scope():
            kept = vm.new(element, id=1)
            vm.statics.set_ref("keep", kept.address)
            owner["item"] = kept
            vm.assertions.assert_ownedby(owner, kept)
            for i in range(60):  # survivors that need the owner's chunk
                vm.statics.set_ref(f"s{i}", vm.new(filler).address)
        vm.statics.drop_ref("owner")
        for i in range(count):
            vm.statics.drop_ref(f"f{i}")
        vm.gc()
        assert gc.sweep_debt() == 0, "promotion must have repaid the mature debt"
        assert not kept.obj.test(hdr.OWNEE_BIT)
        assert verify_heap(vm, raise_on_error=False) == []
        vm.gc()
        assert vm.violation_lines() == []


class TestAssertionLatency:
    """§2.2: 'A generational collector ... performs full-heap collections
    infrequently, allowing some assertions to go unchecked for long periods
    of time.'"""

    def test_minor_gc_does_not_check_assertions(self, gen_vm, gen_node):
        nodes = build_chain(gen_vm, gen_node, 3)
        gen_vm.assertions.assert_dead(nodes[0], site="latency-test")
        gen_vm.minor_gc()
        # Still reachable, but minor GCs check nothing.
        assert len(gen_vm.engine.log) == 0

    def test_full_gc_detects_what_minor_missed(self, gen_vm, gen_node):
        nodes = build_chain(gen_vm, gen_node, 3)
        gen_vm.assertions.assert_dead(nodes[0], site="latency-test")
        gen_vm.minor_gc()
        gen_vm.gc()
        assert len(gen_vm.engine.log) == 1

    def test_minor_gc_still_purges_metadata(self, gen_vm, gen_node):
        with gen_vm.scope():
            doomed = gen_vm.new(gen_node)
            gen_vm.assertions.assert_dead(doomed, site="purge-test")
        gen_vm.minor_gc()
        # The object died as asserted; its registry entry must be gone.
        assert gen_vm.assertions.pending_dead() == 0
        assert gen_vm.engine.registry.dead_satisfied == 1

    def test_dead_bit_follows_promotion(self, gen_vm, gen_node):
        nodes = build_chain(gen_vm, gen_node, 2)
        gen_vm.assertions.assert_dead(nodes[1], site="promo-test")
        gen_vm.minor_gc()  # promotes; registry keys must be forwarded
        gen_vm.gc()
        assert len(gen_vm.engine.log) == 1
        violation = gen_vm.engine.log.violations[0]
        assert violation.site == "promo-test"
