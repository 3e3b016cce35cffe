"""Violation records and Figure-1-style path reporting.

When an assertion is triggered, "displaying that path for the user would be
the best way to help pinpoint the error.  Our reporting strategy is to
provide the full path through the object graph, from root to the dead
object." (§2.7)  The path itself comes from the tracer's tagged worklist
(:meth:`repro.gc.tracer.Tracer.current_path`); this module turns it into the
report format shown in Figure 1 of the paper:

    Warning: an object that was asserted dead is reachable.
    Type: spec.jbb.Order
    Path to object:
    spec.jbb.Company ->
    Object[] ->
    ...

Unlike Cork, "our path consists of object instances, not just types" — each
:class:`PathEntry` carries the concrete object's address and identity hash,
although (also like the paper) the default rendering displays types.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Optional, Sequence

from repro.heap import header as hdr
from repro.heap.object_model import HeapObject


class AssertionKind(enum.Enum):
    """The assertion families of §2.3–§2.5."""

    DEAD = "assert-dead"
    ALLDEAD = "assert-alldead"
    INSTANCES = "assert-instances"
    UNSHARED = "assert-unshared"
    OWNED_BY = "assert-ownedby"
    #: Improper use of assert-ownedby detected at scan time (overlap, §2.5.2).
    OWNERSHIP_MISUSE = "assert-ownedby-misuse"
    #: Identity hash (members are singletons): ``Enum.__hash__`` is a Python call.
    __hash__ = object.__hash__


class PathEntry:
    """One step of a heap path: a concrete object instance."""

    __slots__ = ("type_name", "address", "identity_hash")

    def __init__(self, obj: HeapObject):
        self.type_name = obj.cls.name
        self.address = obj.address
        self.identity_hash = hdr.hash_of(obj.status)

    @classmethod
    def from_parts(
        cls, type_name: str, address: int, identity_hash: int = 0
    ) -> "PathEntry":
        """Build an entry without a live :class:`HeapObject` (e.g. from a
        snapshot record loaded long after the VM is gone)."""
        entry = cls.__new__(cls)
        entry.type_name = type_name
        entry.address = address
        entry.identity_hash = identity_hash
        return entry

    def render(self, show_addresses: bool = False) -> str:
        if show_addresses:
            return f"{self.type_name}@{self.address:#x}"
        return self.type_name

    def __repr__(self) -> str:
        return f"<path {self.render(show_addresses=True)}>"


class HeapPath:
    """A root-to-object path, root first."""

    __slots__ = ("root_description", "entries")

    def __init__(self, root_description: Optional[str], objects: Sequence[HeapObject]):
        self.root_description = root_description
        self.entries = [PathEntry(o) for o in objects]

    @classmethod
    def from_tracer(cls, tracer, tip: HeapObject) -> "HeapPath":
        """The tracer's current root-to-``tip`` path.  One collection's
        violations share most of their steps (``tracer.path_entries``): a
        step costs a checked ``heap.get`` and a :class:`PathEntry` once."""
        known, get = tracer.path_entries, tracer.heap.get
        if tip.address not in known:
            known[tip.address] = PathEntry(tip)  # the object in hand, not a lookup
        addresses = tracer.current_path_addresses(tip.address)
        entries = [known.get(a) or known.setdefault(a, PathEntry(get(a))) for a in addresses]
        return cls.from_entries(tracer.root_descriptions.get(addresses[0]), entries)

    @classmethod
    def from_entries(
        cls, root_description: Optional[str], entries: Sequence[PathEntry]
    ) -> "HeapPath":
        """Build a path from pre-made entries (a tracer's shared steps, a
        snapshot's dominator chain) instead of live heap objects."""
        path = cls.__new__(cls)
        path.root_description = root_description
        path.entries = list(entries)
        return path

    @classmethod
    def unavailable(cls, note: str) -> "HeapPath":
        path = cls(note, [])
        return path

    def __len__(self) -> int:
        return len(self.entries)

    def type_names(self) -> list[str]:
        return [e.type_name for e in self.entries]

    def render(self, show_addresses: bool = False) -> str:
        lines = []
        if self.root_description:
            lines.append(self.root_description)
        lines.extend(e.render(show_addresses) for e in self.entries)
        return " ->\n".join(lines) if lines else "(no path available)"


class Violation:
    """One triggered GC assertion."""

    __slots__ = (
        "kind",
        "message",
        "type_name",
        "address",
        "alloc_seq",
        "alloc_site",
        "site",
        "path",
        "gc_number",
        "reaction",
        "details",
    )

    def __init__(
        self,
        kind: AssertionKind,
        message: str,
        obj: Optional[HeapObject] = None,
        site: Optional[str] = None,
        path: Optional[HeapPath] = None,
        gc_number: int = 0,
        details: Optional[dict] = None,
    ):
        self.kind = kind
        self.message = message
        self.type_name = obj.cls.name if obj is not None else None
        self.address = obj.address if obj is not None else None
        self.alloc_seq = obj.alloc_seq if obj is not None else None
        self.alloc_site = obj.alloc_site if obj is not None else None
        self.site = site
        self.path = path
        self.gc_number = gc_number
        self.reaction: Optional[str] = None
        self.details = details or {}

    def render(self, show_addresses: bool = False) -> str:
        """Figure-1 format."""
        lines = [f"Warning: {self.message}"]
        if self.type_name is not None:
            lines.append(f"Type: {self.type_name}")
        if self.alloc_seq is not None:
            alloc = f"Allocated: epoch {self.alloc_seq}"
            if self.alloc_site is not None:
                alloc += f" at {self.alloc_site}"
            lines.append(alloc)
        if self.site is not None:
            lines.append(f"Asserted at: {self.site}")
        if self.path is not None and len(self.path) > 0:
            lines.append("Path to object:")
            lines.append(self.path.render(show_addresses))
        elif self.path is not None and self.path.root_description:
            lines.append(f"Path to object: {self.path.root_description}")
        retained = self.details.get("retained_bytes")
        if retained is not None:
            lines.append(f"Retained size: {retained} bytes")
        chain = self.details.get("dominator_chain")
        if chain:
            lines.append("Dominator chain:")
            lines.append(" ->\n".join(chain))
        snapshot_path = self.details.get("snapshot")
        if snapshot_path:
            lines.append(f"Snapshot: {snapshot_path}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<violation {self.kind.value}: {self.message!r} gc={self.gc_number}>"


class ViolationLog:
    """Collected violations, per VM; their warning text is rendered on read."""

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        self.sinks: list[Callable[[Violation], None]] = []
        #: Called once per collection that reported anything, with its list.
        self.batch_sinks: list[Callable[[list[Violation]], None]] = []

    @property
    def lines(self) -> list[str]:
        """Figure-1 text, rendered now: later annotations (retained size) show."""
        return [violation.render() for violation in self.violations]

    def record(self, violation: Violation) -> None:
        self.record_batch([violation])

    def record_batch(self, violations: list[Violation]) -> None:
        """One collection's violations, in detection order."""
        self.violations.extend(violations)
        for sink in self.sinks:
            for violation in violations:
                sink(violation)
        for sink in self.batch_sinks:
            sink(violations)

    def of_kind(self, kind: AssertionKind) -> list[Violation]:
        return [v for v in self.violations if v.kind is kind]

    def clear(self) -> None:
        self.violations.clear()

    def __len__(self) -> int:
        return len(self.violations)

    def __iter__(self) -> Iterable[Violation]:
        return iter(self.violations)
