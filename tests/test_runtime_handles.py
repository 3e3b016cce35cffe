"""Handles: typed field access, arrays, rooting, use-after-free."""

import pytest

from repro.errors import InvalidAddressError, TypeFault, UseAfterFreeError
from repro.heap import header as hdr
from repro.heap.layout import NULL
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine


@pytest.fixture
def pair_class(vm):
    return vm.define_class(
        "Pair",
        [("left", FieldKind.REF), ("right", FieldKind.REF), ("tag", FieldKind.STR)],
    )


class TestFieldAccess:
    def test_scalar_roundtrip(self, vm, pair_class):
        with vm.scope():
            p = vm.new(pair_class)
            p["tag"] = "hello"
            assert p["tag"] == "hello"

    def test_ref_roundtrip_returns_handle(self, vm, pair_class):
        with vm.scope():
            a = vm.new(pair_class)
            b = vm.new(pair_class)
            a["left"] = b
            assert a["left"] == b

    def test_null_ref_reads_as_none(self, vm, pair_class):
        with vm.scope():
            p = vm.new(pair_class)
            assert p["left"] is None

    def test_assign_none_clears(self, vm, pair_class):
        with vm.scope():
            a = vm.new(pair_class)
            b = vm.new(pair_class)
            a["left"] = b
            a["left"] = None
            assert a["left"] is None

    def test_kwargs_initialization(self, vm, pair_class):
        with vm.scope():
            p = vm.new(pair_class, tag="init")
            assert p["tag"] == "init"

    def test_scalar_into_ref_slot_rejected(self, vm, pair_class):
        with vm.scope():
            p = vm.new(pair_class)
            with pytest.raises(TypeFault):
                p["left"] = 42

    def test_handle_into_scalar_slot_rejected(self, vm, pair_class):
        with vm.scope():
            p = vm.new(pair_class)
            q = vm.new(pair_class)
            with pytest.raises(TypeFault):
                p["tag"] = q

    def test_unknown_field_raises(self, vm, pair_class):
        with vm.scope():
            p = vm.new(pair_class)
            with pytest.raises(Exception):
                p["nope"]


class TestArrays:
    def test_ref_array_indexing(self, vm, pair_class):
        with vm.scope():
            arr = vm.new_array(pair_class, 3)
            p = vm.new(pair_class)
            arr[0] = p
            assert arr[0] == p
            assert arr[1] is None
            assert len(arr) == 3

    def test_scalar_array(self, vm):
        with vm.scope():
            arr = vm.new_array(FieldKind.INT, 4)
            arr[2] = 42
            assert arr[2] == 42
            assert arr[0] == 0

    def test_out_of_bounds_rejected(self, vm):
        with vm.scope():
            arr = vm.new_array(FieldKind.INT, 2)
            with pytest.raises(TypeFault):
                arr[2]
            with pytest.raises(TypeFault):
                arr[-1] = 0

    def test_indexing_non_array_rejected(self, vm, pair_class):
        with vm.scope():
            p = vm.new(pair_class)
            with pytest.raises(TypeFault):
                p[0]

    def test_len_of_non_array_rejected(self, vm, pair_class):
        with vm.scope():
            p = vm.new(pair_class)
            with pytest.raises(TypeFault):
                len(p)

    def test_refs_iterator(self, vm, pair_class):
        with vm.scope():
            arr = vm.new_array(pair_class, 2)
            p = vm.new(pair_class)
            arr[1] = p
            items = list(arr.refs())
            assert items[0] is None
            assert items[1] == p


class TestRootingAndLifetime:
    def test_handle_is_not_a_root(self, vm, pair_class):
        with vm.scope():
            p = vm.new(pair_class)
        vm.gc()
        assert not p.is_live

    def test_keep_requires_scope(self, vm, pair_class):
        with vm.scope():
            p = vm.new(pair_class)
        with pytest.raises(TypeFault):
            p.keep()

    def test_keep_roots_in_scope(self, vm, pair_class):
        with vm.scope():
            p = vm.new(pair_class)
            vm.statics.set_ref("tmp", p.address)
        vm.statics.drop_ref("tmp")
        with vm.scope():
            handle = vm.handle(p.obj)
            handle.keep()
            vm.gc()
            assert handle.is_live
        vm.gc()
        assert not handle.is_live

    def test_use_after_free_raises(self, vm, pair_class):
        with vm.scope():
            p = vm.new(pair_class)
        vm.gc()
        with pytest.raises(UseAfterFreeError):
            p["tag"]
        with pytest.raises(UseAfterFreeError):
            p["tag"] = "x"

    def test_storing_freed_handle_rejected(self, vm, pair_class):
        with vm.scope():
            dead = vm.new(pair_class)
        vm.gc()
        with vm.scope():
            live = vm.new(pair_class)
            with pytest.raises(UseAfterFreeError):
                live["left"] = dead

    def test_storing_freed_raw_object_rejected(self):
        """A reclaimed ``HeapObject`` is refused like a reclaimed handle.
        Accepted, its address dangled, and the next collection raised
        ``InvalidAddressError`` far from the bad store."""
        vm = VirtualMachine(heap_bytes=1 << 20, sweep_mode="eager")
        cls = vm.define_class("Pair", [("left", FieldKind.REF)])
        with vm.scope():
            holder = vm.new(cls)
            vm.statics.set_ref("holder", holder.address)
        with vm.scope():
            dead = vm.new(cls)
        vm.gc()
        assert dead.obj.is_freed
        with pytest.raises(UseAfterFreeError):
            holder["left"] = dead.obj
        assert holder.ref_address("left") == NULL
        vm.gc()  # no dangling edge to trace
        assert holder.is_live


class TestEquality:
    def test_handles_equal_by_object_identity(self, vm, pair_class):
        with vm.scope():
            p = vm.new(pair_class)
            other = vm.handle(p.obj)
            assert p == other
            assert hash(p) == hash(other)

    def test_distinct_objects_unequal(self, vm, pair_class):
        with vm.scope():
            assert vm.new(pair_class) != vm.new(pair_class)

    def test_repr_shows_state(self, vm, pair_class):
        with vm.scope():
            p = vm.new(pair_class)
            assert "Pair" in repr(p)
        vm.gc()
        assert "freed" in repr(p)


@pytest.mark.parametrize(
    "build",
    [
        dict(collector="marksweep", sweep_mode="eager"),
        dict(collector="marksweep", sweep_mode="lazy"),
        dict(collector="semispace"),
        dict(collector="generational"),
    ],
    ids=["marksweep-eager", "marksweep-lazy", "semispace", "generational"],
)
def test_inline_reference_load_fails_as_heap_get_does(build):
    """A reference load probes the address table inline; on a miss or a
    freed target it raises what ``heap.get`` raises, message and all."""
    vm = VirtualMachine(heap_bytes=1 << 20, **build)
    cls = vm.define_class("Pair", [("left", FieldKind.REF), ("right", FieldKind.REF)])
    with vm.scope():
        holder, target, table = vm.new(cls), vm.new(cls), vm.new_array(cls, 2)
        for at, key, slot in ((holder, "left", cls.field("left").slot), (table, 0, 0)):
            assert at[key] is None
            at[key] = target
            assert at[key] == target
            dangling = max(vm.heap.address_table()) + 0x1000
            at.obj.slots[slot] = dangling
            with pytest.raises(InvalidAddressError) as expected:
                vm.heap.get(dangling)
            with pytest.raises(InvalidAddressError) as got:
                at[key]
            assert str(got.value) == str(expected.value)
            at[key] = target
            target.obj.status |= hdr.FREED_BIT  # as the sweep leaves it
            with pytest.raises(UseAfterFreeError) as expected:
                vm.heap.get(target.obj.address)
            with pytest.raises(UseAfterFreeError) as got:
                at[key]
            assert str(got.value) == str(expected.value)
            target.obj.status &= ~hdr.FREED_BIT
