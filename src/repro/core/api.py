"""The programmer-facing GC-assertion interface.

These are the calls the paper adds to the language runtime (§2): they are
*registrations*, not immediate checks — "when GC assertions are executed
they convey their information to the garbage collector, which checks them
during the next collection cycle."  Each call does only the cheap mutator-
side work the paper describes (setting a spare header bit, appending to a
per-thread queue, updating per-class words) and returns immediately.

Targets may be :class:`~repro.runtime.handles.Handle` objects,
:class:`~repro.heap.object_model.HeapObject` instances, or raw integer
addresses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.core.reporting import AssertionKind
from repro.errors import AssertionUsageError
from repro.heap import header as hdr
from repro.heap.object_model import ClassDescriptor, HeapObject

if TYPE_CHECKING:
    from repro.runtime.handles import Handle
    from repro.runtime.threads import MutatorThread
    from repro.runtime.vm import VirtualMachine

Target = Union["Handle", HeapObject, int]


class GcAssertions:
    """Assertion API bound to one VM (``vm.assertions``)."""

    def __init__(self, vm: "VirtualMachine"):
        self._vm = vm
        if vm.engine is None:
            raise AssertionUsageError(
                "this VM was built without the assertion infrastructure "
                "(assertions=False); GC assertions are unavailable"
            )
        self._engine = vm.engine

    # -- helpers ---------------------------------------------------------------

    def _resolve(self, target: Target) -> HeapObject:
        if isinstance(target, HeapObject):
            obj = target
        elif isinstance(target, int):
            obj = self._vm.heap.get(target)
        else:  # Handle or anything exposing .obj
            obj = getattr(target, "obj", None)
            if obj is None:
                raise AssertionUsageError(f"cannot resolve assertion target {target!r}")
        if obj.is_freed:
            raise AssertionUsageError(f"assertion target {obj!r} was already reclaimed")
        return obj

    def _lifecycle(self, stage: str, kind: AssertionKind, **args) -> None:
        """Emit an assertion-lifecycle instant (``assertion_register`` /
        ``assertion_armed``) when the VM records spans; free otherwise.
        The checked/violated ends of the lifecycle are emitted by the
        engine at collection time."""
        spans = self._vm.span_tracer
        if spans is not None:
            spans.instant(f"assertion_{stage}", cat="assertion", kind=kind.value, **args)

    # -- lifetime assertions (§2.3) -----------------------------------------------

    def assert_dead(self, target: Target, site: str = "<unknown site>") -> None:
        """Trigger at the next GC if ``target`` is still reachable (§2.3.1).

        Mutator-side cost: one spare header bit plus a registry entry for
        diagnostics.
        """
        # A live Handle inline; ``_resolve`` for the other kinds and every raise.
        obj = getattr(target, "obj", None)
        if obj is None or obj.status & hdr.FREED_BIT:
            obj = self._resolve(target)
        obj.status |= hdr.DEAD_BIT
        registry = self._engine.registry
        registry.register_dead(obj.address, site, self._vm.collector.stats.collections)
        registry.calls[AssertionKind.DEAD] += 1
        if self._vm.span_tracer is not None:
            # assert-dead registers and arms in one call: the header bit is
            # set, so the very next collection will check it.
            self._lifecycle("register", AssertionKind.DEAD, site=site)
            self._lifecycle("armed", AssertionKind.DEAD, site=site)

    def start_region(
        self,
        thread: Optional["MutatorThread"] = None,
        label: Optional[str] = None,
    ) -> None:
        """Begin an alldead region on ``thread`` (§2.3.2).

        Every object the thread allocates until :meth:`assert_alldead` is
        recorded in the thread's region queue.
        """
        thread = thread or self._vm.current_thread
        thread.begin_region(label)
        # A region registers intent now but arms only at assert_alldead.
        self._lifecycle("register", AssertionKind.ALLDEAD, label=label)

    def assert_alldead(
        self,
        thread: Optional["MutatorThread"] = None,
        site: str = "<region end>",
    ) -> int:
        """End the region: every queued object must die by the next GC.

        "The region flag is reset and the queue is processed, calling
        assert-dead on each object in the queue." (§2.3.2)  Returns the
        number of objects asserted dead.
        """
        thread = thread or self._vm.current_thread
        queue = thread.end_region()
        heap = self._vm.heap
        registry = self._engine.registry
        registry.calls[AssertionKind.ALLDEAD] += 1
        gc_number = self._vm.collector.stats.collections
        asserted = 0
        for address in queue:
            obj = heap.maybe(address)
            if obj is None or obj.is_freed:
                continue  # already reclaimed: trivially satisfied
            obj.set(hdr.DEAD_BIT)
            registry.register_dead(address, site, gc_number, AssertionKind.ALLDEAD)
            registry.calls[AssertionKind.DEAD] += 1
            asserted += 1
        self._lifecycle("armed", AssertionKind.ALLDEAD, site=site, objects=asserted)
        return asserted

    # -- volume assertions (§2.4) ----------------------------------------------------

    def assert_instances(self, cls: Union[ClassDescriptor, str], limit: int) -> None:
        """Trigger when live instances of ``cls`` exceed ``limit`` at a GC.

        "Passing 0 for I checks that no instances of a particular class
        exist (at GC time)." (§2.4.1)
        """
        if isinstance(cls, str):
            cls = self._vm.classes.get(cls)
        self._vm.classes.track_instances(cls, limit)
        self._engine.registry.calls[AssertionKind.INSTANCES] += 1
        self._lifecycle("register", AssertionKind.INSTANCES, type=cls.name, limit=limit)
        self._lifecycle("armed", AssertionKind.INSTANCES, type=cls.name, limit=limit)

    # -- ownership assertions (§2.5) ----------------------------------------------------

    def assert_unshared(self, target: Target, site: str = "<unknown site>") -> None:
        """Trigger if ``target`` ever has more than one incoming pointer (§2.5.1)."""
        obj = self._resolve(target)
        obj.set(hdr.UNSHARED_BIT)
        self._engine.registry.register_unshared(obj.address, site)
        self._engine.registry.calls[AssertionKind.UNSHARED] += 1
        self._lifecycle("register", AssertionKind.UNSHARED, site=site)
        self._lifecycle("armed", AssertionKind.UNSHARED, site=site)

    def assert_ownedby(
        self,
        owner: Target,
        ownee: Target,
        site: str = "<unknown site>",
    ) -> None:
        """Trigger if ``ownee`` becomes unreachable from ``owner`` (§2.5.2).

        "Once ownership is asserted, the set of paths through the heap to
        the ownee must include at least one path that passes through the
        owner [...] an ownee may be referenced by other objects, but it
        should never outlive its owner."
        """
        owner_obj = getattr(owner, "obj", None)  # as in assert_dead
        if owner_obj is None or owner_obj.status & hdr.FREED_BIT:
            owner_obj = self._resolve(owner)
        ownee_obj = getattr(ownee, "obj", None)
        if ownee_obj is None or ownee_obj.status & hdr.FREED_BIT:
            ownee_obj = self._resolve(ownee)
        registry = self._engine.registry
        registry.register_owned_by(owner_obj.address, ownee_obj.address, site)
        owner_obj.status |= hdr.OWNER_BIT
        ownee_obj.status |= hdr.OWNEE_BIT
        registry.calls[AssertionKind.OWNED_BY] += 1
        if self._vm.span_tracer is not None:
            self._lifecycle("register", AssertionKind.OWNED_BY, site=site)
            self._lifecycle("armed", AssertionKind.OWNED_BY, site=site)

    def retract_ownedby(self, ownee: Target) -> bool:
        """Withdraw an ownership assertion (extension; not in the paper).

        Useful when an object is legitimately handed off to a new owner.
        Returns True if an assertion was retracted.
        """
        obj = self._resolve(ownee)
        registry = self._engine.registry
        owner_address = registry.owner_of(obj.address)
        if owner_address is None:
            return False
        record = registry.owners.get(owner_address)
        if record is not None:
            record.remove(obj.address)
            if not record.ownees:
                del registry.owners[owner_address]
                owner_obj = self._vm.heap.maybe(owner_address)
                if owner_obj is not None:
                    owner_obj.clear(hdr.OWNER_BIT)
        registry.ownee_owner.pop(obj.address, None)
        obj.clear(hdr.OWNEE_BIT)
        return True

    def retract_dead(self, target: Target) -> bool:
        """Withdraw an assert-dead (extension; not in the paper)."""
        obj = self._resolve(target)
        if self._engine.registry.dead_sites.pop(obj.address, None) is None:
            return False
        obj.clear(hdr.DEAD_BIT)
        return True

    # -- introspection --------------------------------------------------------------------

    @property
    def violations(self):
        """All violations recorded so far (a :class:`ViolationLog`)."""
        return self._engine.log

    def call_counts(self) -> dict[str, int]:
        return {k.value: v for k, v in self._engine.registry.calls.items()}

    def pending_dead(self) -> int:
        return len(self._engine.registry.dead_sites)

    def live_ownees(self) -> int:
        return self._engine.registry.live_ownee_count()
