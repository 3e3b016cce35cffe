"""What a class descriptor precomputes, against the plain derivation.

``ClassDescriptor`` and ``FieldDescriptor`` work out, once at definition,
what the allocator, the sweep and the handles used to ask an enum property
per object: the slot-default template, the instance size, ``has_weak``,
``ref_array``, and each field's ``holds_address`` / ``is_weak``.  Every
test here draws random class layouts and demands that each precomputed
quantity equals the per-call derivation kept in ``tests/reference_heap.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heap.heap import ObjectHeap
from repro.heap.object_model import ClassDescriptor, FieldKind, HeapObject
from repro.runtime.classes import ClassRegistry
from repro.runtime.vm import VirtualMachine

from tests.reference_heap import reference_has_weak_slots, reference_size, reference_slots

KINDS = list(FieldKind)


@st.composite
def hierarchies(draw):
    """Up to five classes, each a subclass of Object or of an earlier one,
    with up to five fields of any kind; plus array elements to intern."""
    count = draw(st.integers(1, 5))
    classes = []
    for index in range(count):
        parent = draw(st.one_of(st.none(), st.integers(0, index - 1))) if index else None
        kinds = draw(st.lists(st.sampled_from(KINDS), max_size=5))
        classes.append((parent, kinds))
    scalar_arrays = draw(st.lists(st.sampled_from(KINDS), max_size=6, unique=True))
    class_arrays = draw(st.sets(st.integers(0, count - 1)))
    lengths = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3))
    return classes, scalar_arrays, sorted(class_arrays), lengths


def define(registry: ClassRegistry, spec) -> tuple[list[ClassDescriptor], list[ClassDescriptor]]:
    classes, scalar_arrays, class_arrays, _lengths = spec
    defined: list[ClassDescriptor] = []
    for index, (parent, kinds) in enumerate(classes):
        fields = [(f"f{index}_{slot}", kind) for slot, kind in enumerate(kinds)]
        superclass = defined[parent] if parent is not None else None
        defined.append(registry.define(f"C{index}", fields, superclass))
    arrays = [registry.array_of(kind) for kind in scalar_arrays]
    arrays += [registry.array_of(defined[index]) for index in class_arrays]
    return defined, arrays


def same_values(left: list, right: list) -> bool:
    """Equal element by element, types included (``False == 0 == 0.0``)."""
    return left == right and [type(v) for v in left] == [type(v) for v in right]


@settings(max_examples=150, deadline=None)
@given(hierarchies())
def test_precomputed_layout_equals_the_enum_properties(spec):
    defined, arrays = define(ClassRegistry(), spec)
    for cls in defined + arrays:
        for field in cls.all_fields:
            assert field.holds_address is field.kind.holds_address
            assert field.is_weak is field.kind.is_weak
        assert same_values(list(cls.slot_template), reference_slots(cls) if not cls.is_array else [])
        assert cls.ref_array is (cls.is_array and cls.element_kind.is_reference)
        if cls.is_array:
            assert cls.has_weak is cls.element_kind.is_weak
            assert same_values([cls.element_default], [cls.element_kind.default()])
        else:
            assert cls.has_weak is bool(cls.weak_slots)
            assert cls.element_default is None
            assert cls.size_of() == cls.instance_size == reference_size(cls)
            # Inherited fields come first and keep their slots.
            if cls.superclass is not None:
                assert cls.all_fields[: len(cls.superclass.all_fields)] == cls.superclass.all_fields
        for length in spec[3]:
            assert cls.size_of(length) == reference_size(cls, length)
            assert cls.array_size(length) == cls.size_of(length)


@settings(max_examples=150, deadline=None)
@given(hierarchies())
def test_templated_object_equals_the_per_field_object(spec):
    defined, arrays = define(ClassRegistry(), spec)
    heap = ObjectHeap()
    address = 0x1000
    for cls in defined + arrays:
        for length in spec[3] if cls.is_array else [0]:
            bare = HeapObject(address, cls, length)
            installed = heap.install(address, cls, length)
            twin = heap.install(address + 0x400, cls, length)
            address += 0x800
            for obj in (bare, installed, twin):
                assert same_values(obj.slots, reference_slots(cls, length))
                assert obj.size_bytes == cls.size_of(length) == reference_size(cls, length)
                assert obj.has_weak_slots is reference_has_weak_slots(obj)
                assert obj.length == (length if cls.is_array else 0)
            # A fresh list per instance: writing one leaves the others, and
            # the class's template, as they were.
            assert installed.slots is not twin.slots
            if installed.slots:
                installed.slots[0] = "scribble"
                assert same_values(twin.slots, reference_slots(cls, length))
                assert same_values(HeapObject(0, cls, length).slots, reference_slots(cls, length))
            assert (installed in heap.weak_holders) is reference_has_weak_slots(installed)
    sizes = [obj.size_bytes for obj in heap]
    assert heap.live_bytes() == heap.live_bytes_slow() == sum(sizes)
    assert heap.stats.bytes_allocated == sum(sizes)
    assert heap.live_by_class() == heap.live_by_class_slow()


@settings(max_examples=60, deadline=None)
@given(hierarchies())
def test_array_classes_are_interned_by_element(spec):
    registry = ClassRegistry()
    defined, arrays = define(registry, spec)
    _classes, scalar_arrays, class_arrays, _lengths = spec
    again = [registry.array_of(kind) for kind in scalar_arrays]
    again += [registry.array_of(defined[index]) for index in class_arrays]
    assert all(a is b for a, b in zip(arrays, again))
    for kind, cls in zip(scalar_arrays, arrays):
        assert cls.name == f"{kind.value}[]" and cls.element_kind is kind
        assert registry.get(cls.name) is cls
    for index, cls in zip(class_arrays, arrays[len(scalar_arrays):]):
        assert cls.name == f"C{index}[]" and cls.element_kind is FieldKind.REF
        assert registry.get(cls.name) is cls
    assert len({cls.class_id for cls in registry}) == len(registry)


def test_array_class_is_one_class_by_name_kind_or_descriptor():
    vm = VirtualMachine(heap_bytes=1 << 20)
    node = vm.define_class("Node", [("next", FieldKind.REF)])
    by_string = vm.array_class("Node")
    assert vm.array_class(node) is by_string
    assert vm.array_class("int") is vm.array_class(FieldKind.INT)


def test_handle_access_reads_the_precomputed_flags(vm):
    holder = vm.define_class(
        "Holder", [("strong", FieldKind.REF), ("weak", FieldKind.WEAK), ("n", FieldKind.INT)]
    )
    with vm.scope("flags"):
        a, b = vm.new(holder, n=1), vm.new(holder, n=2)
        a["strong"] = b
        a["weak"] = b
        assert a["strong"] == b and a["weak"] == b and a["n"] == 1
        assert a.ref_address("weak") == b.address
        weak_array = vm.new_array(FieldKind.WEAK, 2)
        weak_array[1] = b
        assert weak_array[1] == b and weak_array[0] is None
        assert weak_array.obj in vm.heap.weak_holders
        ints = vm.new_array(FieldKind.INT, 2)
        ints[0] = 5
        assert ints[0] == 5
