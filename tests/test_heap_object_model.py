"""Unit tests for class descriptors, field layout, and heap objects."""

import pytest

from repro.errors import LayoutError
from repro.heap import header as hdr
from repro.heap.layout import HEADER_BYTES, NULL, WORD_BYTES
from repro.heap.object_model import ClassDescriptor, FieldKind, HeapObject


def make_class(name="C", fields=(), superclass=None, class_id=0, **kw):
    return ClassDescriptor(class_id, name, fields, superclass, **kw)


class TestFieldKind:
    def test_ref_is_reference(self):
        assert FieldKind.REF.is_reference
        assert not FieldKind.INT.is_reference

    @pytest.mark.parametrize(
        "kind,expected",
        [
            (FieldKind.REF, NULL),
            (FieldKind.INT, 0),
            (FieldKind.FLOAT, 0.0),
            (FieldKind.BOOL, False),
            (FieldKind.STR, ""),
        ],
    )
    def test_defaults(self, kind, expected):
        assert kind.default() == expected


class TestClassDescriptor:
    def test_field_slots_in_declaration_order(self):
        cls = make_class(fields=[("a", FieldKind.INT), ("b", FieldKind.REF)])
        assert cls.field("a").slot == 0
        assert cls.field("b").slot == 1

    def test_field_offsets_after_header(self):
        cls = make_class(fields=[("a", FieldKind.INT), ("b", FieldKind.REF)])
        assert cls.field("a").offset == HEADER_BYTES
        assert cls.field("b").offset == HEADER_BYTES + WORD_BYTES

    def test_ref_slots_only_references(self):
        cls = make_class(
            fields=[("a", FieldKind.INT), ("b", FieldKind.REF), ("c", FieldKind.REF)]
        )
        assert cls.ref_slots == (1, 2)

    def test_instance_size_includes_header(self):
        cls = make_class(fields=[("a", FieldKind.INT)])
        assert cls.instance_size == HEADER_BYTES + WORD_BYTES

    def test_inherited_fields_come_first(self):
        parent = make_class("P", [("p", FieldKind.INT)])
        child = make_class("C", [("c", FieldKind.REF)], superclass=parent, class_id=1)
        assert child.field("p").slot == 0
        assert child.field("c").slot == 1
        assert child.ref_slots == (1,)

    def test_redeclared_field_rejected(self):
        parent = make_class("P", [("x", FieldKind.INT)])
        with pytest.raises(LayoutError):
            make_class("C", [("x", FieldKind.REF)], superclass=parent, class_id=1)

    def test_unknown_field_raises(self):
        cls = make_class()
        with pytest.raises(LayoutError):
            cls.field("nope")

    def test_is_subclass_of(self):
        parent = make_class("P")
        child = make_class("C", superclass=parent, class_id=1)
        assert child.is_subclass_of(parent)
        assert child.is_subclass_of(child)
        assert not parent.is_subclass_of(child)

    def test_array_class_requires_element_kind(self):
        with pytest.raises(LayoutError):
            make_class("A[]", is_array=True)

    def test_non_array_rejects_element_kind(self):
        with pytest.raises(LayoutError):
            make_class("C", element_kind=FieldKind.INT)

    def test_array_size_scales_with_length(self):
        arr = make_class("O[]", is_array=True, element_kind=FieldKind.REF)
        assert arr.array_size(0) < arr.array_size(4)
        assert arr.array_size(4) - arr.array_size(3) == WORD_BYTES

    def test_instance_tracking_words_default_unset(self):
        cls = make_class()
        assert cls.instance_limit is None
        assert cls.instance_count == 0


class TestHeapObject:
    def test_scalar_fields_default_initialized(self):
        cls = make_class(fields=[("n", FieldKind.INT), ("s", FieldKind.STR)])
        obj = HeapObject(0x1000, cls)
        assert obj.slots == [0, ""]

    def test_ref_fields_default_null(self):
        cls = make_class(fields=[("r", FieldKind.REF)])
        obj = HeapObject(0x1000, cls)
        assert obj.slots == [NULL]

    def test_array_elements_default(self):
        arr = make_class("int[]", is_array=True, element_kind=FieldKind.INT)
        obj = HeapObject(0x1000, arr, length=3)
        assert obj.slots == [0, 0, 0]
        assert obj.length == 3

    def test_header_bit_helpers(self):
        cls = make_class()
        obj = HeapObject(0x1000, cls)
        assert not obj.test(hdr.DEAD_BIT)
        obj.set(hdr.DEAD_BIT)
        assert obj.test(hdr.DEAD_BIT)
        obj.clear(hdr.DEAD_BIT)
        assert not obj.test(hdr.DEAD_BIT)
        assert not hasattr(obj, "is_marked")  # the mark is not header state

    def test_reference_slots_iterates_refs_only(self):
        cls = make_class(fields=[("n", FieldKind.INT), ("a", FieldKind.REF), ("b", FieldKind.REF)])
        obj = HeapObject(0x1000, cls)
        obj.slots[1] = 0x2000
        assert list(obj.reference_slots()) == [0x2000, NULL]

    def test_reference_slots_for_ref_array(self):
        arr = make_class("O[]", is_array=True, element_kind=FieldKind.REF)
        obj = HeapObject(0x1000, arr, length=2)
        obj.slots[0] = 0x3000
        assert list(obj.reference_slots()) == [0x3000, NULL]

    def test_scalar_array_has_no_reference_slots(self):
        arr = make_class("int[]", is_array=True, element_kind=FieldKind.INT)
        obj = HeapObject(0x1000, arr, length=5)
        assert list(obj.reference_slots()) == []
        assert list(obj.reference_slot_indices()) == []

    def test_size_bytes_for_scalar_object(self):
        cls = make_class(fields=[("a", FieldKind.INT)])
        obj = HeapObject(0x1000, cls)
        assert obj.size_bytes == cls.instance_size
