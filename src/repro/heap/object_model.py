"""Class descriptors, field layout, and heap objects.

This module plays the role of Jikes RVM's ``RVMClass``/``RVMArray`` and
object model.  A :class:`ClassDescriptor` records the field layout of a
class (including inherited fields), the byte size of its instances, and —
following §2.4.1 of the paper — two extra words used by the
``assert-instances`` machinery: the *instance limit* and the *instance
count* for the class.

A :class:`HeapObject` is one allocated object: a status word (see
:mod:`repro.heap.header`), a class descriptor (the "type word" of the
two-word header), and a slot array.  Reference slots hold integer heap
addresses (``0`` is null); scalar slots hold Python values.  Arrays are heap
objects whose descriptor has ``is_array`` set; their slot array holds the
elements and their length is explicit in the object size.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Optional, Sequence

from repro.errors import LayoutError
from repro.heap import header as hdr
from repro.heap.layout import (
    ARRAY_LENGTH_BYTES,
    HEADER_BYTES,
    NULL,
    WORD_BYTES,
    align_up,
)


class FieldKind(enum.Enum):
    """The kind of a field or array element.

    ``REF`` slots hold heap addresses and are traced by the collector.
    ``WEAK`` slots also hold heap addresses but are *not* traced: they do
    not keep their target alive; the collector clears them when the target
    is reclaimed and forwards them when the target moves.  The scalar kinds
    hold immediate values and are skipped by tracing.
    """

    REF = "ref"
    WEAK = "weak"
    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    STR = "str"

    @property
    def is_reference(self) -> bool:
        """True for strongly-traced reference slots."""
        return self is FieldKind.REF

    @property
    def is_weak(self) -> bool:
        return self is FieldKind.WEAK

    @property
    def holds_address(self) -> bool:
        """True for any slot that stores a heap address (strong or weak)."""
        return self is FieldKind.REF or self is FieldKind.WEAK

    def default(self):
        """The zero value stored in a freshly allocated slot of this kind."""
        if self is FieldKind.REF or self is FieldKind.WEAK:
            return NULL
        if self is FieldKind.INT:
            return 0
        if self is FieldKind.FLOAT:
            return 0.0
        if self is FieldKind.BOOL:
            return False
        return ""


class FieldDescriptor:
    """One declared field: a name, a kind, and its slot index in instances.

    ``holds_address`` and ``is_weak`` are the kind's properties of the same
    name, read once here so a handle access tests an attribute instead of
    calling an enum property.
    """

    __slots__ = ("name", "kind", "slot", "declaring_class", "holds_address", "is_weak")

    def __init__(self, name: str, kind: FieldKind, slot: int, declaring_class: "ClassDescriptor"):
        self.name = name
        self.kind = kind
        self.slot = slot
        self.declaring_class = declaring_class
        self.holds_address = kind.holds_address
        self.is_weak = kind.is_weak

    @property
    def offset(self) -> int:
        """Byte offset of this field from the object start."""
        return HEADER_BYTES + self.slot * WORD_BYTES

    def __repr__(self) -> str:
        return f"<field {self.declaring_class.name}.{self.name}: {self.kind.value} @slot {self.slot}>"


class ClassDescriptor:
    """Layout and metadata for one class (or array type).

    Attributes:
        class_id: dense integer id assigned by the class registry.
        name: fully qualified class name (``"spec.jbb.Order"``).
        superclass: parent descriptor, or None for roots of the hierarchy.
        fields: fields declared by *this* class, in declaration order.
        all_fields: inherited + declared fields, slot order.
        ref_slots: slot indices of all reference fields (the trace map).
        ref_getter: ``ref_getter(obj.slots)`` is the values of those
            fields, nulls included, read by one C-level call: an
            ``itemgetter`` over one ``slice`` when the slots are contiguous,
            over the indices otherwise; None when there are none (every
            array class: a ref array's children are its ``slots``).
        instance_size: bytes occupied by an instance with no elements
            (header included): every instance of a scalar class, the empty
            array of an array class.
        element_bytes: bytes each array element adds to that (0 for
            non-array classes), so an instance occupies
            ``instance_size + element_bytes * length`` — both word
            multiples, hence aligned — whatever its class.
        is_array / element_kind: array typing.
        slot_template: the default value of every slot of a fresh instance,
            slot order (empty for array classes).
        element_default: the default value of one array element (None for
            non-array classes).
        has_weak: instances carry weak slots (a weak field, or a weak array).
        ref_array: an array class whose elements are strong references.
        instance_limit / instance_count: the two words §2.4.1 adds to
            ``RVMClass`` for ``assert-instances``.
    """

    __slots__ = (
        "class_id",
        "name",
        "superclass",
        "fields",
        "all_fields",
        "field_index",
        "ref_slots",
        "ref_getter",
        "weak_slots",
        "instance_size",
        "element_bytes",
        "is_array",
        "element_kind",
        "slot_template",
        "element_default",
        "has_weak",
        "ref_array",
        "instance_limit",
        "instance_count",
        "allocation_count",
    )

    def __init__(
        self,
        class_id: int,
        name: str,
        field_specs: Sequence[tuple[str, FieldKind]] = (),
        superclass: Optional["ClassDescriptor"] = None,
        is_array: bool = False,
        element_kind: Optional[FieldKind] = None,
    ):
        if is_array and element_kind is None:
            raise LayoutError(f"array class {name!r} needs an element kind")
        if not is_array and element_kind is not None:
            raise LayoutError(f"non-array class {name!r} must not declare an element kind")

        self.class_id = class_id
        self.name = name
        self.superclass = superclass
        self.is_array = is_array
        self.element_kind = element_kind

        inherited: list[FieldDescriptor] = list(superclass.all_fields) if superclass else []
        taken = {f.name for f in inherited}
        self.fields: list[FieldDescriptor] = []
        for fname, kind in field_specs:
            if fname in taken:
                raise LayoutError(f"class {name!r} redeclares field {fname!r}")
            taken.add(fname)
            self.fields.append(FieldDescriptor(fname, kind, len(inherited) + len(self.fields), self))
        self.all_fields: tuple[FieldDescriptor, ...] = tuple(inherited + self.fields)
        self.field_index = {f.name: f for f in self.all_fields}
        refs = self.ref_slots = tuple(f.slot for f in self.all_fields if f.kind.is_reference)
        if not refs:
            self.ref_getter = None
        elif refs[-1] - refs[0] == len(refs) - 1:  # contiguous: one slice
            self.ref_getter = itemgetter(slice(refs[0], refs[-1] + 1))
        else:
            self.ref_getter = itemgetter(*refs)
        self.weak_slots: tuple[int, ...] = tuple(
            f.slot for f in self.all_fields if f.kind.is_weak
        )
        if is_array:
            self.instance_size = align_up(HEADER_BYTES + ARRAY_LENGTH_BYTES)
            self.element_bytes = WORD_BYTES
        else:
            self.instance_size = align_up(HEADER_BYTES + len(self.all_fields) * WORD_BYTES)
            self.element_bytes = 0
        # Everything below is a pure function of the layout above, computed
        # once so the allocator, the sweep and the handles read an attribute
        # where they would otherwise call an enum property per object.
        self.slot_template: tuple = tuple(f.kind.default() for f in self.all_fields)
        self.element_default = element_kind.default() if is_array else None
        self.has_weak: bool = element_kind.is_weak if is_array else bool(self.weak_slots)
        self.ref_array: bool = is_array and element_kind.is_reference

        # assert-instances metadata (two words per loaded class, §2.4.1).
        self.instance_limit: Optional[int] = None
        self.instance_count: int = 0
        # Cumulative allocations, used by heap statistics and workloads.
        self.allocation_count: int = 0

    def field(self, name: str) -> FieldDescriptor:
        try:
            return self.field_index[name]
        except KeyError:
            raise LayoutError(f"class {self.name!r} has no field {name!r}") from None

    def has_field(self, name: str) -> bool:
        return name in self.field_index

    def size_of(self, length: int = 0) -> int:
        """Byte size of an instance (``length`` counts for array classes only)."""
        return self.instance_size + self.element_bytes * length

    #: Byte size of an array instance: ``size_of`` under its array-side name.
    array_size = size_of

    def is_subclass_of(self, other: "ClassDescriptor") -> bool:
        cls: Optional[ClassDescriptor] = self
        while cls is not None:
            if cls is other:
                return True
            cls = cls.superclass
        return False

    def __repr__(self) -> str:
        tag = "array" if self.is_array else "class"
        return f"<{tag} {self.name} id={self.class_id}>"


#: Status word of a fresh object: no flags, no hash (the heap ORs one in).
_FRESH_STATUS = hdr.new_status()


class HeapObject:
    """One allocated object in the simulated heap.

    ``slots`` mixes reference slots (integer addresses) and scalar slots
    (Python values), interpreted through ``cls``.  ``address`` is the
    object's current word-aligned heap address; the copying collector
    updates it in place so Python-side handles keep working across moves.
    """

    __slots__ = ("address", "status", "cls", "slots", "alloc_seq", "alloc_site")

    def __init__(self, address: int, cls: ClassDescriptor, length: int = 0):
        self.address = address
        self.status = _FRESH_STATUS
        self.cls = cls
        #: Monotone install stamp assigned by the heap; bumped again on
        #: relocation.  Lazy sweeping uses it to tell objects that occupied
        #: a cell at mark time from ones installed into the cell afterwards.
        self.alloc_seq = 0
        #: Optional allocation-site tag stamped by the VM (see
        #: :meth:`repro.runtime.vm.VM.alloc_site`); survives relocation.
        self.alloc_site: Optional[str] = None
        # Slot defaults are immutable scalars, so a fresh list per object
        # is all the copying an instance needs.
        if cls.is_array:
            self.slots: list = [cls.element_default] * length
        else:
            self.slots = list(cls.slot_template)

    # -- header convenience -------------------------------------------------

    def test(self, bit: int) -> bool:
        return (self.status & bit) != 0

    def set(self, bit: int) -> None:
        self.status |= bit

    def clear(self, bit: int) -> None:
        self.status &= ~bit

    @property
    def is_freed(self) -> bool:
        return (self.status & hdr.FREED_BIT) != 0

    # -- layout --------------------------------------------------------------

    @property
    def length(self) -> int:
        """Array length (0 for scalars objects)."""
        return len(self.slots) if self.cls.is_array else 0

    @property
    def size_bytes(self) -> int:
        cls = self.cls
        return cls.instance_size + cls.element_bytes * len(self.slots)

    def reference_slots(self) -> Sequence[int]:
        """The *values* of all strong reference slots, nulls included: a ref
        array's own slot list (do not mutate it), else a fresh sequence."""
        cls = self.cls
        refs = cls.ref_getter
        if refs is not None:
            return refs(self.slots)
        return self.slots if cls.ref_array else ()

    def reference_slot_indices(self) -> Sequence[int]:
        """Slot indices that hold strong references."""
        cls = self.cls
        return range(len(self.slots)) if cls.ref_array else cls.ref_slots

    @property
    def has_weak_slots(self) -> bool:
        return self.cls.has_weak

    def weak_slot_indices(self) -> Sequence[int]:
        """Slot indices that hold weak references."""
        cls = self.cls
        return range(len(self.slots)) if cls.is_array and cls.has_weak else cls.weak_slots

    def __repr__(self) -> str:
        return (
            f"<obj {self.cls.name}@{self.address:#x} "
            f"[{hdr.describe(self.status)}]>"
        )
