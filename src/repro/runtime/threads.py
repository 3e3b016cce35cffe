"""Mutator threads, stack frames, and static roots.

The collector's roots are exactly what these classes expose: every reference
local in every frame of every thread, plus the static reference table.  Each
root source implements two operations the collectors need:

* ``root_entries()`` — yield ``(description, address)`` pairs for tracing,
  where the description feeds the Figure-1-style path report ("where does
  the leak path *start*?").
* ``apply_forwarding(fwd)`` — rewrite root slots after a copying collection.

Threads also carry the per-thread region state from §2.3.2 of the paper:
"Each thread in Jikes RVM has a boolean flag to indicate whether it is
currently in an alldead region, and a queue to store a list of objects that
have been allocated while in the region."  The queue holds addresses weakly:
it must never keep its objects alive, so it is *not* a root source; the
collectors purge it on sweep and forward it on copy instead.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.errors import RegionError
from repro.heap.layout import NULL


class RootTable:
    """Reference slots that are GC roots, and the three things a collector
    asks of them, written once.  ``refs`` maps a slot's key to the address
    it holds: a dict of named slots (:class:`NamedRoots`, under
    :class:`Frame` and :class:`StaticRoots`) or a list of registered ones
    (:class:`~repro.runtime.handles.HandleScope`).  A subclass says how a
    slot reads in a Figure-1 path (:meth:`describe`)."""

    __slots__ = ("refs",)

    def describe(self, key) -> str:
        raise NotImplementedError

    def _slots(self) -> Iterable[tuple[object, int]]:
        """``(key, address)`` per slot; assigning ``refs[key]`` while
        iterating is safe for both representations."""
        raise NotImplementedError

    def root_entries(self) -> Iterator[tuple[str, int]]:
        for key, address in self._slots():
            if address != NULL:
                yield self.describe(key), address

    def apply_forwarding(self, fwd: dict[int, int]) -> None:
        refs = self.refs
        for key, address in self._slots():
            new = fwd.get(address)
            if new is not None:
                refs[key] = new

    def null_out(self, victims: set[int]) -> None:
        refs = self.refs
        for key, address in self._slots():
            if address in victims:
                refs[key] = NULL


class NamedRoots(RootTable):
    """A root table whose slots have names: locals, statics."""

    __slots__ = ()

    def __init__(self) -> None:
        self.refs: dict[str, int] = {}

    def _slots(self):
        return self.refs.items()

    def set_ref(self, name: str, address: int) -> None:
        """Store a reference (``NULL`` is allowed and stays a root slot)."""
        self.refs[name] = address

    def get_ref(self, name: str) -> int:
        return self.refs.get(name, NULL)

    def clear_ref(self, name: str) -> None:
        """The Java ``x = null`` idiom: keep the slot, null the reference."""
        if name in self.refs:
            self.refs[name] = NULL

    def drop_ref(self, name: str) -> None:
        """Remove the slot entirely (local goes out of scope)."""
        self.refs.pop(name, None)


class Frame(NamedRoots):
    """One stack frame: named reference locals (roots) and scalar locals."""

    __slots__ = ("method", "scalars", "thread")

    def __init__(self, method: str, thread: "MutatorThread"):
        super().__init__()
        self.method = method
        self.thread = thread
        self.scalars: dict[str, object] = {}

    def describe(self, name: str) -> str:
        return f"local '{name}' in {self.method}"

    def set_scalar(self, name: str, value: object) -> None:
        self.scalars[name] = value

    def get_scalar(self, name: str) -> object:
        return self.scalars[name]

    def __repr__(self) -> str:
        return f"<frame {self.method} ({len(self.refs)} refs)>"


class StaticRoots(NamedRoots):
    """The VM's static/global reference table (class statics in Java)."""

    __slots__ = ("scalars",)

    def __init__(self) -> None:
        super().__init__()
        self.scalars: dict[str, object] = {}

    def describe(self, name: str) -> str:
        return f"static '{name}'"


class MutatorThread:
    """One mutator thread: a frame stack plus §2.3.2 region state."""

    def __init__(self, thread_id: int, name: str):
        self.thread_id = thread_id
        self.name = name
        self.frames: list[Frame] = []
        #: §2.3.2: "a boolean flag to indicate whether it is currently in an
        #: alldead region, and a queue to store a list of objects that have
        #: been allocated while in the region."
        self.in_region = False
        self.region_queue: list[int] = []
        self.region_label: Optional[str] = None
        #: JNI-style handle scopes: each is a root source registering the
        #: addresses of objects Python driver code is actively using.
        self.scopes: list = []

    # -- frames -------------------------------------------------------------------

    def push_frame(self, method: str) -> Frame:
        frame = Frame(method, self)
        self.frames.append(frame)
        return frame

    def pop_frame(self) -> Frame:
        if not self.frames:
            raise RegionError(f"thread {self.name!r} has no frame to pop")
        return self.frames.pop()

    @property
    def current_frame(self) -> Frame:
        if not self.frames:
            raise RegionError(f"thread {self.name!r} has no active frame")
        return self.frames[-1]

    # -- region state (assert-alldead) ---------------------------------------------

    def begin_region(self, label: Optional[str] = None) -> None:
        if self.in_region:
            raise RegionError(
                f"thread {self.name!r} is already in region {self.region_label!r}"
            )
        self.in_region = True
        self.region_label = label
        self.region_queue = []

    def end_region(self) -> list[int]:
        """Reset the region flag and hand back the allocation queue."""
        if not self.in_region:
            raise RegionError(f"thread {self.name!r} is not in a region")
        self.in_region = False
        queue, self.region_queue = self.region_queue, []
        return queue

    def note_allocation(self, address: int) -> None:
        """Allocation hook: record region allocations (checked on every alloc)."""
        if self.in_region:
            self.region_queue.append(address)

    # -- root enumeration -----------------------------------------------------------

    def root_entries(self) -> Iterator[tuple[str, int]]:
        for depth, frame in enumerate(self.frames):
            for desc, address in frame.root_entries():
                yield f"{self.name}#{depth} {desc}", address
        for scope in self.scopes:
            for desc, address in scope.root_entries():
                yield f"{self.name} {desc}", address

    def apply_forwarding(self, fwd: dict[int, int]) -> None:
        for frame in self.frames:
            frame.apply_forwarding(fwd)
        for scope in self.scopes:
            scope.apply_forwarding(fwd)
        # The region queue holds addresses weakly but must still follow moves.
        self.region_queue = [fwd.get(a, a) for a in self.region_queue]

    def null_out(self, victims: set[int]) -> None:
        for frame in self.frames:
            frame.null_out(victims)
        for scope in self.scopes:
            scope.null_out(victims)

    def purge_freed(self, freed: set[int]) -> None:
        """Drop reclaimed objects from the region queue (sweep hook)."""
        if self.region_queue:
            self.region_queue = [a for a in self.region_queue if a not in freed]

    def __repr__(self) -> str:
        region = f" region={self.region_label!r}" if self.in_region else ""
        return f"<thread {self.name} frames={len(self.frames)}{region}>"
