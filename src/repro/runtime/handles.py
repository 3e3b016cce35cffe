"""Handles: ergonomic, identity-stable references for Python driver code.

A :class:`Handle` wraps a :class:`~repro.heap.object_model.HeapObject` so
workload code can read and write fields with ``obj["field"]`` syntax.  Two
properties make handles safe against the simulated collector:

* **Identity stability** — a handle references the ``HeapObject`` Python
  identity, not its address, so it stays valid across copying collections
  (the collector updates ``obj.address`` in place).
* **Explicit rooting** — a handle is *not* a GC root.  Objects are kept
  alive only by heap references, frame locals, statics, and
  :class:`HandleScope` entries.  Use ``vm.scope()`` around construction
  code, or ``handle.keep()`` to register an object in the current scope,
  mirroring JNI local references.  Dereferencing a handle whose object was
  reclaimed raises :class:`~repro.errors.UseAfterFreeError` — the simulated
  analog of the dangling pointer a real VM would silently follow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Union

from repro.errors import TypeFault, UseAfterFreeError
from repro.heap import header as hdr
from repro.heap.layout import NULL
from repro.heap.object_model import HeapObject
from repro.runtime.threads import RootTable

if TYPE_CHECKING:
    from repro.runtime.threads import MutatorThread
    from repro.runtime.vm import VirtualMachine

FieldValue = Union["Handle", None, int, float, bool, str]


class HandleScope(RootTable):
    """A root source holding the addresses of actively-used objects, in
    registration order."""

    __slots__ = ("label",)

    def __init__(self, label: str = "scope"):
        self.label = label
        self.refs: list[int] = []

    def describe(self, key: int) -> str:
        return f"handle scope '{self.label}'"

    def _slots(self):
        return enumerate(self.refs)

    def register(self, address: int) -> None:
        self.refs.append(address)

    def __len__(self) -> int:
        return len(self.refs)


class Handle:
    """A typed wrapper around one heap object."""

    __slots__ = ("vm", "obj")

    def __init__(self, vm: "VirtualMachine", obj: HeapObject):
        self.vm = vm
        self.obj = obj

    # -- basic properties ------------------------------------------------------------

    def _check(self) -> HeapObject:
        obj = self.obj
        if obj.status & hdr.FREED_BIT:
            raise UseAfterFreeError(
                f"handle to {obj.cls.name} used after the object was reclaimed"
            )
        return obj

    @property
    def address(self) -> int:
        return self._check().address

    @property
    def type_name(self) -> str:
        return self.obj.cls.name

    @property
    def is_array(self) -> bool:
        return self.obj.cls.is_array

    @property
    def is_live(self) -> bool:
        return self.vm.heap.is_live(self.obj)

    def __len__(self) -> int:
        obj = self._check()
        if not obj.cls.is_array:
            raise TypeFault(f"{obj.cls.name} is not an array")
        return len(obj.slots)

    # -- field / element access --------------------------------------------------------

    def _slot_for(self, key: Union[str, int]) -> tuple[HeapObject, int, bool, bool]:
        """Resolve ``key`` on a live object: ``(object, slot index, slot holds
        an address, slot is weak)`` — the flags as the class laid them out."""
        obj = self.obj
        if obj.status & hdr.FREED_BIT:
            self._check()  # raises
        cls = obj.cls
        if isinstance(key, int):
            if not cls.is_array:
                raise TypeFault(f"{cls.name} is not an array; cannot index by {key}")
            if not 0 <= key < len(obj.slots):
                raise TypeFault(
                    f"index {key} out of bounds for {cls.name} of length {len(obj.slots)}"
                )
            weak = cls.has_weak
            return obj, key, cls.ref_array or weak, weak
        field = cls.field_index.get(key)
        if field is None:
            field = cls.field(key)  # raises
        return obj, field.slot, field.holds_address, field.is_weak

    def __getitem__(self, key: Union[str, int]) -> FieldValue:
        obj, slot, holds_address, _weak = self._slot_for(key)
        vm = self.vm
        if vm.access_hook is not None:
            vm.access_hook(obj)
        value = obj.slots[slot]
        if holds_address:
            if value == NULL:
                return None
            target = vm.address_table.get(value)
            if target is None or target.status & hdr.FREED_BIT:
                target = vm.heap.get(value)  # raises: dangling or reclaimed
            return Handle(vm, target)
        return value

    def __setitem__(self, key: Union[str, int], value: FieldValue) -> None:
        obj, slot, holds_address, weak = self._slot_for(key)
        if holds_address:
            if value is None:
                address = NULL
            else:
                if isinstance(value, Handle):
                    value = value.obj
                elif not isinstance(value, HeapObject):
                    raise TypeFault(
                        f"reference slot {key!r} of {obj.cls.name} cannot hold {value!r}"
                    )
                if value.status & hdr.FREED_BIT:
                    raise UseAfterFreeError(
                        f"{value.cls.name} stored into {obj.cls.name} after the "
                        "object was reclaimed"
                    )
                address = value.address
            # Weak stores create no strong edge: no write barrier.
            if not weak:
                barrier = self.vm.write_barrier
                if barrier is not None:
                    barrier(obj, address)
            obj.slots[slot] = address
        else:
            if isinstance(value, (Handle, HeapObject)):
                raise TypeFault(
                    f"scalar slot {key!r} of {obj.cls.name} cannot hold a reference"
                )
            obj.slots[slot] = value

    def ref_address(self, key: Union[str, int]) -> int:
        """Raw address stored in a (strong or weak) reference slot."""
        obj, slot, holds_address, _weak = self._slot_for(key)
        if not holds_address:
            raise TypeFault(f"slot {key!r} of {obj.cls.name} is not a reference")
        return obj.slots[slot]

    def refs(self) -> Iterator[Optional["Handle"]]:
        """Iterate reference-array elements as handles."""
        obj = self._check()
        for value in obj.reference_slots():
            yield None if value == NULL else Handle(self.vm, self.vm.heap.get(value))

    # -- rooting -----------------------------------------------------------------------

    def keep(self, thread: Optional["MutatorThread"] = None) -> "Handle":
        """Register this object in the current handle scope (a GC root)."""
        thread = thread or self.vm.current_thread
        if not thread.scopes:
            raise TypeFault(
                f"thread {thread.name!r} has no active handle scope; "
                "wrap driver code in `with vm.scope(): ...`"
            )
        thread.scopes[-1].register(self._check().address)
        return self

    # -- comparisons ---------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Handle) and other.obj is self.obj

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return id(self.obj)

    def __repr__(self) -> str:
        state = "freed" if self.obj.is_freed else f"@{self.obj.address:#x}"
        return f"<handle {self.obj.cls.name} {state}>"
