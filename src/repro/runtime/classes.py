"""Class registry: the VM's analog of Jikes RVM's loaded-class table.

The registry assigns dense class ids, interns array classes on demand, and
is the natural home for the per-class words that §2.4.1 of the paper adds to
``RVMClass`` (instance limit and instance count for ``assert-instances``) —
those words live on :class:`~repro.heap.object_model.ClassDescriptor`; the
registry additionally keeps the list of *tracked* types so the collector can
iterate "our list of tracked types, checking whether the instance limit has
been violated" at the end of each GC.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.errors import LayoutError
from repro.heap.object_model import ClassDescriptor, FieldKind

#: Name of the implicit root of the class hierarchy.
OBJECT_CLASS_NAME = "Object"


class ClassRegistry:
    """All classes loaded into one VM instance."""

    def __init__(self) -> None:
        self._by_name: dict[str, ClassDescriptor] = {}
        self._by_id: list[ClassDescriptor] = []
        #: element class or scalar kind -> its interned array class.
        self._arrays: dict[ClassDescriptor | FieldKind, ClassDescriptor] = {}
        #: Types with an ``assert-instances`` limit ("the array of tracked
        #: types", §2.4.1) — one word per tracked type, as the paper costs it.
        self.tracked_types: list[ClassDescriptor] = []
        self.object_class = self.define(OBJECT_CLASS_NAME)

    # -- definition -------------------------------------------------------------

    def define(
        self,
        name: str,
        fields: Sequence[tuple[str, FieldKind]] = (),
        superclass: Optional[ClassDescriptor | str] = None,
    ) -> ClassDescriptor:
        """Define a new class; field specs are ``(name, FieldKind)`` pairs."""
        if name in self._by_name:
            raise LayoutError(f"class {name!r} is already defined")
        if isinstance(superclass, str):
            superclass = self.get(superclass)
        if superclass is None and name != OBJECT_CLASS_NAME:
            superclass = self._by_name.get(OBJECT_CLASS_NAME)
        cls = ClassDescriptor(
            class_id=len(self._by_id),
            name=name,
            field_specs=fields,
            superclass=superclass,
        )
        self._by_name[name] = cls
        self._by_id.append(cls)
        return cls

    def array_of(self, element: ClassDescriptor | FieldKind) -> ClassDescriptor:
        """Intern the array class for the given element class or scalar kind.

        Reference arrays are named ``"T[]"`` after their element class;
        scalar arrays are named ``"int[]"`` etc.  All reference arrays trace
        their elements; the element class is used only for naming and
        diagnostics (the simulator's arrays are covariant, like Java's).
        """
        cls = self._arrays.get(element)
        if cls is not None:
            return cls
        if isinstance(element, ClassDescriptor):
            name = f"{element.name}[]"
            kind = FieldKind.REF
        else:
            name = f"{element.value}[]"
            kind = element
        cls = self._by_name.get(name)
        if cls is None:
            cls = ClassDescriptor(
                class_id=len(self._by_id),
                name=name,
                is_array=True,
                element_kind=kind,
            )
            self._by_name[name] = cls
            self._by_id.append(cls)
        self._arrays[element] = cls
        return cls

    # -- lookup -------------------------------------------------------------------

    def get(self, name: str) -> ClassDescriptor:
        try:
            return self._by_name[name]
        except KeyError:
            raise LayoutError(f"class {name!r} is not defined") from None

    def maybe(self, name: str) -> Optional[ClassDescriptor]:
        return self._by_name.get(name)

    def by_id(self, class_id: int) -> ClassDescriptor:
        return self._by_id[class_id]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterable[ClassDescriptor]:
        return iter(self._by_id)

    def __len__(self) -> int:
        return len(self._by_id)

    # -- assert-instances support -------------------------------------------------

    def track_instances(self, cls: ClassDescriptor, limit: int) -> None:
        """Set the instance limit for a class and add it to the tracked list."""
        if limit < 0:
            raise LayoutError(f"instance limit must be >= 0, got {limit}")
        cls.instance_limit = limit
        if cls not in self.tracked_types:
            self.tracked_types.append(cls)

    def untrack_instances(self, cls: ClassDescriptor) -> None:
        cls.instance_limit = None
        if cls in self.tracked_types:
            self.tracked_types.remove(cls)

    def reset_instance_counts(self) -> None:
        """Zero the per-GC live-instance counters (start of each collection)."""
        for cls in self.tracked_types:
            cls.instance_count = 0
