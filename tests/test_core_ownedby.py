"""assert-ownedby (§2.5.2): the two-phase ownership scan."""

import pytest

from repro.core.reporting import AssertionKind
from repro.errors import AssertionUsageError
from repro.gc.verify import verify_heap
from repro.heap import header as hdr
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine


@pytest.fixture
def container_classes(vm):
    container = vm.define_class(
        "Container", [("items", FieldKind.REF), ("name", FieldKind.STR)]
    )
    element = vm.define_class("Element", [("id", FieldKind.INT)])
    return container, element


def build_container(vm, container, element, count, root="db"):
    with vm.scope():
        cont = vm.new(container)
        arr = vm.new_array(element, count)
        cont["items"] = arr
        vm.statics.set_ref(root, cont.address)
        elements = []
        for i in range(count):
            e = vm.new(element, id=i)
            arr[i] = e
            elements.append(e)
    return vm.handle(cont.obj), elements


class TestOwnedBy:
    def test_owned_elements_pass(self, vm, container_classes):
        container, element = container_classes
        cont, elements = build_container(vm, container, element, 4)
        for e in elements:
            vm.assertions.assert_ownedby(cont, e)
        vm.gc()
        assert len(vm.engine.log) == 0

    def test_extra_reference_is_allowed_while_owner_path_exists(self, vm, container_classes):
        """'An ownee may be referenced by other objects' — only losing the
        owner path is an error."""
        container, element = container_classes
        cont, elements = build_container(vm, container, element, 2)
        vm.statics.set_ref("cache", elements[0].address)
        vm.assertions.assert_ownedby(cont, elements[0])
        vm.gc()
        assert len(vm.engine.log) == 0

    def test_element_only_in_cache_triggers(self, vm, container_classes):
        container, element = container_classes
        cont, elements = build_container(vm, container, element, 3)
        vm.statics.set_ref("cache", elements[1].address)
        for e in elements:
            vm.assertions.assert_ownedby(cont, e)
        cont["items"][1] = None  # removed from container, still cached
        vm.gc()
        violations = vm.engine.log.of_kind(AssertionKind.OWNED_BY)
        assert len(violations) == 1
        assert violations[0].address == elements[1].obj.address
        assert "cache" in violations[0].path.root_description

    def test_element_reclaimed_with_owner_path_is_fine(self, vm, container_classes):
        container, element = container_classes
        cont, elements = build_container(vm, container, element, 2)
        for e in elements:
            vm.assertions.assert_ownedby(cont, e)
        cont["items"][0] = None  # removed and unreferenced: dies quietly
        vm.gc()
        assert len(vm.engine.log) == 0
        assert vm.assertions.live_ownees() == 1

    def test_owner_and_ownee_header_bits(self, vm, container_classes):
        container, element = container_classes
        cont, elements = build_container(vm, container, element, 1)
        vm.assertions.assert_ownedby(cont, elements[0])
        assert cont.obj.test(hdr.OWNER_BIT)
        assert elements[0].obj.test(hdr.OWNEE_BIT)

    def test_self_ownership_rejected(self, vm, container_classes):
        container, element = container_classes
        cont, _ = build_container(vm, container, element, 1)
        with pytest.raises(AssertionUsageError):
            vm.assertions.assert_ownedby(cont, cont)

    def test_two_owners_for_same_ownee_rejected(self, vm, container_classes):
        container, element = container_classes
        cont_a, elements = build_container(vm, container, element, 1, root="a")
        cont_b, _ = build_container(vm, container, element, 1, root="b")
        vm.assertions.assert_ownedby(cont_a, elements[0])
        with pytest.raises(AssertionUsageError):
            vm.assertions.assert_ownedby(cont_b, elements[0])

    def test_reassert_same_pair_idempotent(self, vm, container_classes):
        container, element = container_classes
        cont, elements = build_container(vm, container, element, 1)
        vm.assertions.assert_ownedby(cont, elements[0])
        vm.assertions.assert_ownedby(cont, elements[0])
        record = vm.engine.registry.owners[cont.obj.address]
        assert len(record) == 1

    def test_multiple_owners_with_disjoint_regions(self, vm, container_classes):
        container, element = container_classes
        cont_a, elements_a = build_container(vm, container, element, 2, root="a")
        cont_b, elements_b = build_container(vm, container, element, 2, root="b")
        for e in elements_a:
            vm.assertions.assert_ownedby(cont_a, e)
        for e in elements_b:
            vm.assertions.assert_ownedby(cont_b, e)
        vm.gc()
        assert len(vm.engine.log) == 0

    def test_reclaimed_ownee_purged_from_registry(self, vm, container_classes):
        """'We must remove each unreachable ownee after a GC.'"""
        container, element = container_classes
        cont, elements = build_container(vm, container, element, 3)
        for e in elements:
            vm.assertions.assert_ownedby(cont, e)
        cont["items"][0] = None
        cont["items"][2] = None
        vm.gc()
        assert vm.assertions.live_ownees() == 1
        assert vm.engine.registry.ownees_reclaimed == 2

    def test_dead_owner_record_dropped_without_spurious_reports(
        self, vm, container_classes
    ):
        container, element = container_classes
        cont, elements = build_container(vm, container, element, 2)
        for e in elements:
            vm.assertions.assert_ownedby(cont, e)
        vm.statics.drop_ref("db")
        vm.gc()  # owner dies; ownees float for one GC
        assert len(vm.engine.log) == 0
        assert len(vm.engine.registry.owners) == 0
        vm.gc()  # floating ownees die quietly
        assert len(vm.engine.log) == 0
        assert vm.heap.stats.objects_live == 0

        # Under a moving collector a static keeps one ownee, which moves
        # while its owner dies: the purge must still find it to drop its
        # OWNEE bit, or the next GC reports it as unowned.
        legs = {
            "semispace": (dict(collector="semispace"), VirtualMachine.gc),
            "generational-eager": (dict(collector="generational"), VirtualMachine.gc),
            "generational-lazy": (
                dict(collector="generational", sweep_mode="lazy"), VirtualMachine.gc
            ),
            "generational-minor": (dict(collector="generational"), VirtualMachine.minor_gc),
        }
        for leg, (options, collect) in legs.items():
            moving = VirtualMachine(heap_bytes=4 << 20, **options)
            container = moving.define_class(
                "Container", [("items", FieldKind.REF), ("name", FieldKind.STR)]
            )
            element = moving.define_class("Element", [("id", FieldKind.INT)])
            cont, elements = build_container(moving, container, element, 2)
            for e in elements:
                moving.assertions.assert_ownedby(cont, e)
            kept = elements[0].obj
            moving.statics.set_ref("keep", kept.address)
            moving.statics.drop_ref("db")
            before = kept.address
            collect(moving)
            assert kept.address != before, leg
            assert not kept.test(hdr.OWNEE_BIT), leg
            registry = moving.engine.registry
            assert not registry.owners and not registry.ownee_owner, leg
            assert verify_heap(moving, raise_on_error=False) == [], leg
            moving.gc()
            assert len(moving.engine.log) == 0, leg

    def test_retract_ownedby(self, vm, container_classes):
        container, element = container_classes
        cont, elements = build_container(vm, container, element, 1)
        vm.assertions.assert_ownedby(cont, elements[0])
        vm.statics.set_ref("cache", elements[0].address)
        cont["items"][0] = None
        assert vm.assertions.retract_ownedby(elements[0])
        vm.gc()
        assert len(vm.engine.log) == 0
        assert not elements[0].obj.test(hdr.OWNEE_BIT)


class TestOwnershipPhaseMechanics:
    def test_no_retrace_of_owner_subgraph(self, vm, container_classes):
        """Owner-reachable objects are marked in phase 1 and not traced again."""
        container, element = container_classes
        cont, elements = build_container(vm, container, element, 5)
        for e in elements:
            vm.assertions.assert_ownedby(cont, e)
        vm.gc()
        live = vm.heap.stats.objects_live
        # Every live object is traced exactly once across both phases.
        assert vm.stats.objects_traced == live

    def test_floating_garbage_from_dead_owner(self, vm, container_classes):
        """§2.5.2: objects reachable only from a dead owner survive one GC."""
        container, element = container_classes
        cont, elements = build_container(vm, container, element, 3)
        for e in elements:
            vm.assertions.assert_ownedby(cont, e)
        vm.statics.drop_ref("db")
        vm.gc()
        # The owner itself died, but its phase-1-marked subgraph floats.
        assert not cont.is_live
        assert all(e.is_live for e in elements)
        vm.gc()
        assert all(not e.is_live for e in elements)

    def test_back_edges_tolerated(self, vm):
        """Ownees with back edges to the owner's structure must not loop."""
        container = vm.define_class("C2", [("items", FieldKind.REF)])
        element = vm.define_class("E2", [("parent", FieldKind.REF), ("peer", FieldKind.REF)])
        with vm.scope():
            cont = vm.new(container)
            arr = vm.new_array(element, 2)
            cont["items"] = arr
            vm.statics.set_ref("c2", cont.address)
            a = vm.new(element)
            b = vm.new(element)
            arr[0] = a
            arr[1] = b
            a["parent"] = cont  # back edge to the owner
            a["peer"] = b       # ownee -> ownee edge
            b["peer"] = a
            vm.assertions.assert_ownedby(cont, a)
            vm.assertions.assert_ownedby(cont, b)
        vm.gc()
        assert len(vm.engine.log) == 0

    def test_ownee_search_probes_counted(self, vm, container_classes):
        container, element = container_classes
        cont, elements = build_container(vm, container, element, 8)
        for e in elements:
            vm.assertions.assert_ownedby(cont, e)
        vm.gc()
        assert vm.stats.ownee_lookups >= 8
        assert vm.stats.ownee_search_probes >= vm.stats.ownee_lookups

    def test_ownees_checked_counter(self, vm, container_classes):
        container, element = container_classes
        cont, elements = build_container(vm, container, element, 6)
        for e in elements:
            vm.assertions.assert_ownedby(cont, e)
        vm.gc()
        assert vm.stats.ownees_checked == 6


class TestNaiveAblation:
    def test_naive_mode_detects_same_violations(self, container_classes):
        for mode in ("two-phase", "naive"):
            vm = VirtualMachine(heap_bytes=4 << 20, ownership_mode=mode)
            container = vm.define_class("C", [("items", FieldKind.REF)])
            element = vm.define_class("E", [("id", FieldKind.INT)])
            cont, elements = build_container(vm, container, element, 3)
            vm.statics.set_ref("cache", elements[1].address)
            for e in elements:
                vm.assertions.assert_ownedby(cont, e)
            cont["items"][1] = None
            vm.gc()
            violations = vm.engine.log.of_kind(AssertionKind.OWNED_BY)
            assert len(violations) == 1, mode

    def test_naive_mode_does_more_work(self, container_classes):
        def visits(mode):
            vm = VirtualMachine(heap_bytes=4 << 20, ownership_mode=mode)
            container = vm.define_class("C", [("items", FieldKind.REF)])
            element = vm.define_class("E", [("id", FieldKind.INT)])
            cont, elements = build_container(vm, container, element, 20)
            for e in elements:
                vm.assertions.assert_ownedby(cont, e)
            vm.gc()
            return vm.stats.naive_ownership_visits, vm.stats.objects_traced

        naive_visits, _ = visits("naive")
        zero_visits, traced = visits("two-phase")
        assert zero_visits == 0
        assert naive_visits > traced  # per-pair re-tracing blows up


class TestSelfSustainingOwner:
    """Root-less owner regions with a back edge to the owner (the leak the
    small-scope model checker found: phase 1 marks the owner from its own
    registry entry every GC, so without the post-mark re-judging the whole
    region floats forever)."""

    def _cycle_vm(self, rooted: bool):
        vm = VirtualMachine(heap_bytes=1 << 20)
        node = vm.define_class("ONode", [("next", FieldKind.REF)])
        with vm.scope("cycle"):
            owner = vm.new(node)
            ownee = vm.new(node)
            owner["next"] = ownee
            ownee["next"] = owner  # back edge: owner reachable from its region
            vm.assertions.assert_ownedby(owner, ownee)
            if rooted:
                vm.statics.set_ref("keep", owner.address)
        return vm, owner.obj.address, ownee.obj.address

    def test_rootless_owner_cycle_is_reclaimed(self):
        vm, owner_address, ownee_address = self._cycle_vm(rooted=False)
        vm.gc()
        vm.gc()  # a self-sustaining region would re-mark itself here forever
        assert not vm.heap.contains(owner_address)
        assert not vm.heap.contains(ownee_address)

    def test_rooted_owner_cycle_survives(self):
        vm, owner_address, ownee_address = self._cycle_vm(rooted=True)
        vm.gc()
        vm.gc()
        assert vm.heap.contains(owner_address)
        assert vm.heap.contains(ownee_address)
