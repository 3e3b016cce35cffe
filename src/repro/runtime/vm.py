"""The virtual machine facade: wiring heap, collector, threads, assertions.

A :class:`VirtualMachine` is the unit everything else composes around.  The
three configurations the paper benchmarks map directly onto its
constructor:

* **Base** — ``VirtualMachine(assertions=False)``: no assertion engine, no
  path tracking; the collector's hot loops contain no assertion code.
* **Infrastructure** — ``VirtualMachine(assertions=True)`` with no
  assertions registered: every header-bit check and the path-tracking
  worklist are active, but there is nothing to find.
* **WithAssertions** — same VM with assertions registered through
  ``vm.assertions``.

Example::

    vm = VirtualMachine(heap_bytes=1 << 20)
    node = vm.define_class("Node", [("next", FieldKind.REF), ("value", FieldKind.INT)])
    with vm.scope():
        a = vm.new(node)
        vm.statics.set_ref("head", a.address)
        vm.assertions.assert_dead(a, site="demo.py:12")
    vm.gc()                       # a is still reachable from the static
    print(vm.assertions.violations.lines[0])
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from repro.core.api import GcAssertions
from repro.core.engine import AssertionEngine
from repro.core.reactions import ReactionPolicy
from repro.errors import RuntimeFault
from repro.gc.base import Collector
from repro.gc.generational import GenerationalCollector
from repro.gc.marksweep import MarkSweepCollector
from repro.gc.semispace import SemiSpaceCollector
from repro.heap.heap import ObjectHeap
from repro.heap.layout import NULL
from repro.heap.object_model import ClassDescriptor, FieldKind, HeapObject
from repro.runtime.classes import ClassRegistry
from repro.runtime.handles import Handle, HandleScope
from repro.runtime.threads import MutatorThread, StaticRoots
from repro.telemetry import Telemetry
from repro.tracing.spans import SpanTracer

if TYPE_CHECKING:
    from repro.monitor.timeseries import MonitorHub

#: Default heap budget: generous for unit tests, overridden by benchmarks
#: (which size heaps at 2x the workload minimum, like the paper).
DEFAULT_HEAP_BYTES = 16 * 1024 * 1024

COLLECTORS = {
    "marksweep": MarkSweepCollector,
    "semispace": SemiSpaceCollector,
    "generational": GenerationalCollector,
}

FieldSpec = Sequence[tuple[str, Union[FieldKind, str]]]


class VirtualMachine:
    """A managed runtime with a tracing collector and GC assertions."""

    def __init__(
        self,
        heap_bytes: int = DEFAULT_HEAP_BYTES,
        collector: Union[str, Collector] = "marksweep",
        assertions: bool = True,
        track_paths: Optional[bool] = None,
        policy: Optional[ReactionPolicy] = None,
        ownership_mode: str = "two-phase",
        sweep_mode: Optional[str] = None,
        telemetry: Union[bool, Telemetry] = True,
        tracing: Union[bool, "SpanTracer"] = False,
        hardened: bool = False,
        max_heap_bytes: Optional[int] = None,
        monitor: Union[bool, "MonitorHub"] = False,
        gc_workers: Optional[int] = None,
        paranoid: bool = False,
    ):
        self.classes = ClassRegistry()
        self.engine: Optional[AssertionEngine] = (
            AssertionEngine(self.classes, policy, ownership_mode) if assertions else None
        )
        if isinstance(collector, Collector):
            # A collector instance was configured when it was built; an
            # option meant for the one this VM would build has nowhere to go.
            given = {
                "hardened": hardened,
                "max_heap_bytes": max_heap_bytes is not None,
                "sweep_mode": sweep_mode is not None,
                "gc_workers": gc_workers is not None,
            }
            dropped = [name for name, is_given in given.items() if is_given]
            if dropped:
                raise RuntimeFault(
                    f"{', '.join(dropped)}: options of the collector the VM "
                    f"builds; pass them to the {type(collector).__name__} instead"
                )
            self.collector = collector
            if self.engine is not None and collector.engine is None:
                # A pre-built collector adopts this VM's assertion engine.
                collector.engine = self.engine
                collector.track_paths = True if track_paths is None else track_paths
        else:
            try:
                factory = COLLECTORS[collector]
            except KeyError:
                raise RuntimeFault(
                    f"unknown collector {collector!r}; pick from {sorted(COLLECTORS)}"
                ) from None
            kwargs = {}
            if hardened:
                # Fault tolerance opt-in: integrity sentinel, quarantine,
                # engine degradation, OOM recovery (see DESIGN.md).
                kwargs["hardened"] = True
            if max_heap_bytes is not None:
                kwargs["max_heap_bytes"] = max_heap_bytes
            if sweep_mode is not None:
                if collector != "marksweep":
                    raise RuntimeFault(
                        f"sweep_mode is a mark-sweep option; {collector!r} has none"
                    )
                kwargs["sweep_mode"] = sweep_mode
            if gc_workers is not None:
                if collector != "marksweep":
                    raise RuntimeFault(
                        f"gc_workers is a mark-sweep option; {collector!r} "
                        "marks on one thread"
                    )
                if gc_workers < 0:
                    raise RuntimeFault(f"gc_workers must be >= 0, got {gc_workers}")
                # 0 (or None) keeps the legacy sequential path; >= 1 builds
                # the zone-sharded heap and routes full-GC mark drains
                # through the parallel coordinator (workers=1 runs the same
                # coordinator inline — the counter-identity baseline).
                kwargs["gc_workers"] = gc_workers
            self.collector = factory(
                heap_bytes, engine=self.engine, track_paths=track_paths, **kwargs
            )
        self.collector.attach(self)
        #: What a reference store and load need from the collector, bound
        #: once: its barrier (None unless it keeps a remembered set) and the
        #: heap's address table, which handles probe inline.
        self.write_barrier = self.collector.write_barrier
        self.address_table = self.collector.heap.address_table()
        if paranoid:
            # Paranoid wellformedness walks around every collection (PR 10).
            # Set post-attach so it works for pre-built collector instances
            # too; off (the default) costs one falsy attribute test per GC.
            self.collector.paranoid = True
        if self.engine is not None:
            self.engine.vm = self

        #: Telemetry hub (``None`` when built with ``telemetry=False`` — the
        #: zero-overhead disabled mode; the collector emit path then reduces
        #: to one ``is None`` test).
        if isinstance(telemetry, Telemetry):
            self.telemetry: Optional[Telemetry] = telemetry
        else:
            self.telemetry = Telemetry() if telemetry else None
        self.collector.telemetry = self.telemetry

        #: Span recorder (``None`` when built with ``tracing=False``, the
        #: default — then no span object is ever allocated anywhere; see
        #: :mod:`repro.tracing.spans` for the zero-overhead contract).
        if isinstance(tracing, SpanTracer):
            self.span_tracer: Optional[SpanTracer] = tracing
        else:
            self.span_tracer = SpanTracer() if tracing else None
        self.collector.span_tracer = self.span_tracer

        #: Continuous-monitoring hub (``None`` when built with
        #: ``monitor=False``, the default — then no monitor object exists
        #: anywhere and the telemetry fan-out has no extra sink; see
        #: :mod:`repro.monitor` for the zero-overhead contract).
        #: ``monitor=True`` arms a hub with the stock SLO catalog; pass a
        #: pre-built :class:`~repro.monitor.timeseries.MonitorHub` to
        #: choose objectives.  Requires telemetry (lazy import keeps the
        #: monitor package off the common construction path).
        self.monitor: Optional["MonitorHub"] = None
        if monitor:
            from repro.monitor.slo import default_slos
            from repro.monitor.timeseries import MonitorHub as _Hub

            hub = monitor if isinstance(monitor, _Hub) else _Hub(default_slos())
            hub.attach(self)

        self.statics = StaticRoots()
        self.threads: list[MutatorThread] = []
        self.main_thread = self.new_thread("main")
        self._current = self.main_thread
        self.assertions: Optional[GcAssertions] = (
            GcAssertions(self) if self.engine is not None else None
        )
        #: Callables invoked after every collection, full or minor, as
        #: ``observer(vm)``: the profiling baselines (Cork-style growth,
        #: staleness), the fault injector and the snapshot policy.
        self.gc_observers: list = []
        #: Optional read-barrier hook ``hook(HeapObject)`` invoked on handle
        #: field reads; installed by the staleness baseline, None otherwise.
        self.access_hook = None
        #: Snapshot policy (see :mod:`repro.snapshot.capture`); None means
        #: the capture machinery is completely inert.
        self.snapshot_policy = None
        #: Service attachment points, keyed by fault kind ("session-kill",
        #: "conn-drop").  A :class:`~repro.service.session.TenantSession`
        #: registers its hooks here; the fault injector's session faults
        #: look them up and stay inert on VMs with no session attached.
        self.service_hooks: dict = {}
        #: Current allocation-site tag; stamped onto objects allocated while
        #: an :meth:`alloc_site` scope is open, None otherwise.
        self._alloc_site: Optional[str] = None

    # -- properties ---------------------------------------------------------------------

    @property
    def heap(self) -> ObjectHeap:
        return self.collector.heap

    @property
    def stats(self):
        return self.collector.stats

    @property
    def current_thread(self) -> MutatorThread:
        return self._current

    # -- threads ----------------------------------------------------------------------

    def new_thread(self, name: Optional[str] = None) -> MutatorThread:
        thread = MutatorThread(len(self.threads), name or f"thread-{len(self.threads)}")
        self.threads.append(thread)
        return thread

    @contextlib.contextmanager
    def on_thread(self, thread: MutatorThread) -> Iterator[MutatorThread]:
        """Temporarily make ``thread`` the current (allocating) thread."""
        previous, self._current = self._current, thread
        try:
            yield thread
        finally:
            self._current = previous

    @contextlib.contextmanager
    def scope(
        self,
        label: str = "scope",
        thread: Optional[MutatorThread] = None,
    ) -> Iterator[HandleScope]:
        """Open a handle scope: allocations inside stay rooted until exit."""
        thread = thread or self._current
        scope = HandleScope(label)
        thread.scopes.append(scope)
        try:
            yield scope
        finally:
            thread.scopes.remove(scope)

    # -- classes -----------------------------------------------------------------------

    def define_class(
        self,
        name: str,
        fields: FieldSpec = (),
        superclass: Optional[Union[ClassDescriptor, str]] = None,
    ) -> ClassDescriptor:
        normalized = [
            (fname, kind if isinstance(kind, FieldKind) else FieldKind(kind))
            for fname, kind in fields
        ]
        return self.classes.define(name, normalized, superclass)

    def array_class(self, element: Union[ClassDescriptor, FieldKind, str]) -> ClassDescriptor:
        if isinstance(element, str):
            element = (
                FieldKind(element)
                if element in FieldKind._value2member_map_
                else self.classes.get(element)
            )
        return self.classes.array_of(element)

    # -- allocation ----------------------------------------------------------------------

    def new(
        self,
        cls: Union[ClassDescriptor, str],
        thread: Optional[MutatorThread] = None,
        **field_values,
    ) -> Handle:
        """Allocate an instance; keyword arguments initialize fields.

        The new object is registered in the allocating thread's current
        handle scope (if any) and in its region queue (if a region is
        active, per §2.3.2).
        """
        if isinstance(cls, str):
            cls = self.classes.get(cls)
        if cls.is_array:
            raise RuntimeFault(f"use new_array() to allocate array class {cls.name}")
        thread = thread or self._current
        obj = self.collector.allocate(cls)
        if self._alloc_site is not None:
            obj.alloc_site = self._alloc_site
        thread.note_allocation(obj.address)
        if thread.scopes:
            thread.scopes[-1].register(obj.address)
        handle = Handle(self, obj)
        for fname, value in field_values.items():
            handle[fname] = value
        return handle

    def new_array(
        self,
        element: Union[ClassDescriptor, FieldKind, str],
        length: int,
        thread: Optional[MutatorThread] = None,
    ) -> Handle:
        if length < 0:
            raise RuntimeFault(f"array length must be >= 0, got {length}")
        cls = self.array_class(element)
        thread = thread or self._current
        obj = self.collector.allocate(cls, length)
        if self._alloc_site is not None:
            obj.alloc_site = self._alloc_site
        thread.note_allocation(obj.address)
        if thread.scopes:
            thread.scopes[-1].register(obj.address)
        return Handle(self, obj)

    @contextlib.contextmanager
    def alloc_site(self, site: str) -> Iterator[None]:
        """Tag every allocation in this scope with ``site``.

        The tag surfaces in violation reports ("Allocated: epoch N at
        <site>") and in heap snapshots, making both actionable without a
        debugger.  Scopes nest; the innermost tag wins.
        """
        previous, self._alloc_site = self._alloc_site, site
        try:
            yield
        finally:
            self._alloc_site = previous

    def handle(self, target: Union[HeapObject, int]) -> Handle:
        if isinstance(target, HeapObject):
            return Handle(self, target)
        return Handle(self, self.heap.get(target))

    # -- reference stores (write barrier) ----------------------------------------------------

    def write_ref(self, obj: HeapObject, slot: int, address: int) -> None:
        barrier = self.write_barrier
        if barrier is not None:
            barrier(obj, address)
        obj.slots[slot] = address

    # -- collection ------------------------------------------------------------------------

    def gc(self, reason: str = "explicit") -> None:
        """Trigger a full collection (checks every registered assertion)."""
        self.collector.collect(reason)

    def minor_gc(self, reason: str = "explicit-minor") -> None:
        """Trigger a minor collection (generational collector only)."""
        minor = getattr(self.collector, "collect_minor", None)
        if minor is None:
            raise RuntimeFault(f"{self.collector.name} has no minor collections")
        minor(reason)

    # -- heap snapshots -----------------------------------------------------------------

    def install_snapshot_policy(self, policy) -> None:
        """Wire a :class:`repro.snapshot.capture.SnapshotPolicy` into this
        VM: the collector consults it when building tracers, and its
        violation trigger observes completed collections."""
        self.snapshot_policy = policy
        self.collector.snapshot_policy = policy
        policy.vm = self
        self.gc_observers.append(policy._after_gc)

    def capture_snapshot(self, path: str, trigger: str = "manual") -> dict:
        """Write a heap snapshot *now* (no collection, no policy needed)."""
        from repro.snapshot.capture import capture_snapshot

        return capture_snapshot(self, path, trigger=trigger)

    # -- collector callbacks -------------------------------------------------------------------

    def root_entries(self) -> Iterator[tuple[str, int]]:
        yield from self.statics.root_entries()
        for thread in self.threads:
            yield from thread.root_entries()

    def apply_forwarding(self, fwd: dict[int, int]) -> None:
        self.statics.apply_forwarding(fwd)
        for thread in self.threads:
            thread.apply_forwarding(fwd)

    def purge_dead_metadata(self, freed: set[int]) -> None:
        """Drop per-thread metadata (region queues) for freed addresses.

        Called by collectors *before* any freed address can be recycled.
        """
        for thread in self.threads:
            thread.purge_freed(freed)

    def null_roots(self, victims: set[int]) -> None:
        self.statics.null_out(victims)
        for thread in self.threads:
            thread.null_out(victims)

    # -- diagnostics --------------------------------------------------------------------------

    def describe(self) -> str:
        return (
            f"VM[{self.collector.describe()}, {len(self.threads)} threads, "
            f"{len(self.heap.live())} objects live]"
        )

    def violation_lines(self) -> list[str]:
        return self.engine.log.lines if self.engine is not None else []
