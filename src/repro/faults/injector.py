"""The fault injector: a seeded schedule of heap and subsystem faults.

The fault kinds (:data:`FAULT_KINDS`), spanning every layer the hardened
collectors defend.  There is no stale-*mark* or stale-``OWNED`` fault to
inject: neither is header state (the mark is a set born empty every
collection, ``OWNED`` an engine set dropped at mark end).

=================  ====================================================
``flip-dead``      set the DEAD bit on a root-reachable object — the
                   next trace reports an assert-dead violation whose
                   ``site`` is ``None`` (the injected/genuine
                   discriminator)
``flip-unshared``  set the UNSHARED bit on a reachable object and pin
                   two root references to it, guaranteeing a repeat
                   encounter in the root scan (which reads every
                   header) and an unshared violation
``dangle-ref``     point a live reference slot at an address the heap
                   does not track (sentinel nulls it)
``corrupt-freelist``  push a live cell's address back onto the free
                   list (segregated-fit spaces) or plant a phantom
                   allocation entry (bump spaces); the hardened
                   allocator fences the aliased cell on reuse
``alloc-fail``     refuse the next N allocation requests as if the
                   space were full, driving the OOM recovery ladder
``raise-reaction`` register a violation handler that raises once (the
                   engine's never-propagate rule contains it)
``raise-sink``     add a telemetry sink whose ``emit`` raises (the
                   hub's retry + circuit breaker contain it)
``raise-snapshot`` make the next snapshot serialization raise OSError
                   (the collector drops the capture and continues)
``conn-drop``      sever the outbound stream of the tenant session
                   that owns the VM (inert on a bare VM)
``session-kill``   evict the tenant session that owns the VM (inert on
                   a bare VM)
=================  ====================================================

Faults are scheduled against collection ordinals (``at_gc``) or
allocation counts (``at_alloc``); victim selection inside a fault uses a
``random.Random(seed)`` stream over *sorted* live addresses, so the same
seed over the same workload applies the same corruption.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.heap import header as hdr
from repro.heap.layout import NULL, align_up

if TYPE_CHECKING:
    from repro.runtime.vm import VirtualMachine

#: All schedulable fault kinds, in documentation order.
FAULT_KINDS = (
    "flip-dead",
    "flip-unshared",
    "dangle-ref",
    "corrupt-freelist",
    "alloc-fail",
    "raise-reaction",
    "raise-sink",
    "raise-snapshot",
    "conn-drop",
    "session-kill",
)


class InjectedFault(RuntimeError):
    """The exception injected faults raise.

    Deliberately *not* a :class:`~repro.errors.ReproError`: the hardened
    containment paths must absorb arbitrary exceptions, not just the
    runtime's own typed hierarchy.
    """


class ExplodingSink:
    """A telemetry sink whose ``emit`` raises for the first N events.

    After ``fail_times`` failures it starts succeeding, so a chaos run
    exercises the circuit breaker's trip *and* recovery arcs.
    """

    def __init__(self, fail_times: int = 8):
        self.fail_times = fail_times
        self.attempts = 0
        self.delivered = 0
        self.closed = False

    def emit(self, event) -> None:
        self.attempts += 1
        if self.attempts <= self.fail_times:
            raise InjectedFault(
                f"injected sink failure ({self.attempts}/{self.fail_times})"
            )
        self.delivered += 1

    def close(self) -> None:
        self.closed = True


class Fault:
    """One scheduled fault: a kind plus its trigger point."""

    __slots__ = ("kind", "at_gc", "at_alloc", "arg")

    def __init__(
        self,
        kind: str,
        at_gc: Optional[int] = None,
        at_alloc: Optional[int] = None,
        arg: Optional[int] = None,
    ):
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; pick from {FAULT_KINDS}")
        if (at_gc is None) == (at_alloc is None):
            raise ValueError("a fault needs exactly one of at_gc / at_alloc")
        self.kind = kind
        self.at_gc = at_gc
        self.at_alloc = at_alloc
        self.arg = arg

    def __repr__(self) -> str:
        trigger = f"gc#{self.at_gc}" if self.at_gc is not None else f"alloc#{self.at_alloc}"
        return f"<Fault {self.kind} @ {trigger}>"


class FaultPlan:
    """A seeded, ordered schedule of :class:`Fault` entries."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.faults: list[Fault] = []

    def add(
        self,
        kind: str,
        at_gc: Optional[int] = None,
        at_alloc: Optional[int] = None,
        arg: Optional[int] = None,
    ) -> "FaultPlan":
        self.faults.append(Fault(kind, at_gc=at_gc, at_alloc=at_alloc, arg=arg))
        return self

    def kinds(self) -> set[str]:
        return {fault.kind for fault in self.faults}

    @classmethod
    def one_of_each(cls, seed: int = 0) -> "FaultPlan":
        """The chaos matrix schedule: every fault kind exactly once.

        Heap corruption lands early (GCs 1–3) so later collections must
        trace over the repaired heap; ``flip-dead`` precedes
        ``raise-reaction`` because the raising handler needs a pending
        violation to fire on.  The allocation-failure fault keys on
        allocation count so it interleaves with GC-keyed faults.
        """
        plan = cls(seed)
        plan.add("flip-dead", at_gc=1)
        plan.add("raise-sink", at_gc=1)
        plan.add("raise-reaction", at_gc=1)
        plan.add("flip-unshared", at_gc=2)
        plan.add("dangle-ref", at_gc=2)
        plan.add("raise-snapshot", at_gc=2)
        plan.add("corrupt-freelist", at_gc=3)
        plan.add("alloc-fail", at_alloc=100, arg=1)
        # Service-layer kinds: inert on bare VMs (no session attached), so
        # the heap-only chaos cells keep their seeded fault sequences; the
        # tenant-isolation cell attaches sessions and makes them bite.
        plan.add("conn-drop", at_gc=3)
        plan.add("session-kill", at_gc=4)
        return plan

    @classmethod
    def generate(cls, seed: int, count: int) -> "FaultPlan":
        """A random (but seed-deterministic) schedule for fuzzing."""
        rng = random.Random(seed)
        plan = cls(seed)
        for _ in range(count):
            kind = rng.choice(FAULT_KINDS)
            if rng.random() < 0.5:
                plan.add(kind, at_gc=rng.randint(1, 5))
            else:
                plan.add(kind, at_alloc=rng.randint(20, 400))
        return plan

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        return f"<FaultPlan seed={self.seed} {len(self.faults)} fault(s)>"


class FaultInjector:
    """Applies a :class:`FaultPlan` to a live VM.

    ``attach()`` hooks the VM's post-collection observer list (for
    GC-keyed faults) and shadows the collector's ``allocate`` with a
    counting wrapper (for allocation-keyed faults).  With an empty plan
    the wrapper's cost is one increment and one length check, and nothing
    the collector counts moves (``tests/test_faults.py`` pins that).
    """

    def __init__(
        self,
        vm: "VirtualMachine",
        plan: Optional[FaultPlan] = None,
        pin_zone: Optional[int] = None,
    ):
        self.vm = vm
        self.plan = plan or FaultPlan()
        #: On a zone-sharded heap, restrict victim selection to this zone.
        #: Parallel marking drains zones concurrently, so without a pin the
        #: worker that *observes* a corruption could differ run to run even
        #: though the seeded victim is the same; pinning keeps the chaos
        #: matrix deterministic.  Ignored when the collector has no zone map
        #: or when the zone holds no eligible victims.
        self.pin_zone = pin_zone
        self.rng = random.Random(self.plan.seed)
        self.gc_count = 0
        self.alloc_count = 0
        #: ``(kind, detail)`` log of every fault applied, in order.
        self.applied: list[tuple[str, str]] = []
        self._gc_faults = sorted(
            (f for f in self.plan.faults if f.at_gc is not None),
            key=lambda f: f.at_gc,
        )
        self._alloc_faults = sorted(
            (f for f in self.plan.faults if f.at_alloc is not None),
            key=lambda f: f.at_alloc,
        )
        self._pin_counter = 0
        self._attached = False
        self._original_allocate = None

    # -- wiring -----------------------------------------------------------------------

    def attach(self) -> "FaultInjector":
        if self._attached:
            return self
        collector = self.vm.collector
        self._original_allocate = collector.allocate
        original = self._original_allocate
        alloc_faults = self._alloc_faults

        def counting_allocate(cls, length: int = 0):
            self.alloc_count += 1
            if alloc_faults and alloc_faults[0].at_alloc <= self.alloc_count:
                self._apply(alloc_faults.pop(0))
            return original(cls, length)

        collector.allocate = counting_allocate
        self.vm.gc_observers.append(self._after_gc)
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        collector = self.vm.collector
        if collector.allocate is not self._original_allocate:
            del collector.allocate  # drop the instance shadow
        self.vm.gc_observers.remove(self._after_gc)
        self._attached = False

    def _after_gc(self, vm: "VirtualMachine", freed: set[int]) -> None:
        self.gc_count = vm.stats.collections
        while self._gc_faults and self._gc_faults[0].at_gc <= self.gc_count:
            self._apply(self._gc_faults.pop(0))

    def kinds_applied(self) -> set[str]:
        return {kind for kind, _detail in self.applied}

    def apply_now(self, kind: str, arg: Optional[int] = None) -> str:
        """Apply one fault immediately (unit-test entry point)."""
        return self._apply(Fault(kind, at_gc=0, arg=arg))

    def apply_remaining(self) -> None:
        """Apply every not-yet-triggered fault immediately.

        Chaos coverage backstop: a workload that finished before a
        trigger point still exercises every fault class before the
        harness's recovery collection.
        """
        pending = self._gc_faults + self._alloc_faults
        self._gc_faults = []
        self._alloc_faults = []
        for fault in pending:
            self._apply(fault)

    # -- application ------------------------------------------------------------------

    def _apply(self, fault: Fault) -> str:
        handler = getattr(self, "_fault_" + fault.kind.replace("-", "_"))
        detail = handler(fault)
        self.applied.append((fault.kind, detail))
        return detail

    def _reachable(self) -> list[int]:
        """Sorted root-reachable addresses (deterministic victim pool)."""
        roots = [address for _desc, address in self.vm.root_entries()]
        addresses = sorted(self.vm.heap.closure(roots))
        if self.pin_zone is not None:
            zone_map = getattr(self.vm.collector, "zone_map", None)
            if zone_map is not None:
                zone_of = zone_map.zone_of
                pinned = [a for a in addresses if zone_of(a) == self.pin_zone]
                if pinned:
                    return pinned
        return addresses

    def _pick_reachable(self):
        addresses = self._reachable()
        if not addresses:
            return None
        return self.vm.heap.get(self.rng.choice(addresses))

    def _pin(self, address: int, label: str) -> str:
        """Root an address from a synthetic static so it stays reachable."""
        name = f"__fault_{label}_{self._pin_counter}"
        self._pin_counter += 1
        self.vm.statics.set_ref(name, address)
        return name

    def _primary_space(self):
        collector = self.vm.collector
        for attr in ("space", "mature"):
            space = getattr(collector, attr, None)
            if space is not None:
                return space
        return collector.from_space

    def _alloc_space(self):
        collector = self.vm.collector
        nursery = getattr(collector, "nursery", None)
        if nursery is not None:
            return nursery
        return self._primary_space()

    # -- the kinds ---------------------------------------------------------------------

    def _fault_flip_dead(self, fault: Fault) -> str:
        victim = self._pick_reachable()
        if victim is None:
            return "inert: no live objects"
        victim.status |= hdr.DEAD_BIT
        # Pin the victim so the next trace is guaranteed to encounter it —
        # the resulting violation has site=None (no registry entry), the
        # marker that discriminates injected from genuine violations.
        pin = self._pin(victim.address, "dead")
        return f"DEAD bit set on {victim.cls.name}@{victim.address:#x} (pinned as {pin})"

    def _fault_flip_unshared(self, fault: Fault) -> str:
        victim = self._pick_reachable()
        if victim is None:
            return "inert: no live objects"
        victim.status |= hdr.UNSHARED_BIT
        # Two synthetic static roots guarantee a repeat encounter where a
        # header is sure to be read: a repeat root always tests UNSHARED,
        # while a drain's repeat edge reads the header only while some
        # assert-unshared is registered — and this bit has no registration.
        pins = [self._pin(victim.address, "unshared") for _ in range(2)]
        return (
            f"UNSHARED bit set on {victim.cls.name}@{victim.address:#x} "
            f"(two references pinned as {', '.join(pins)})"
        )

    def _fault_dangle_ref(self, fault: Fault) -> str:
        heap = self.vm.heap
        addresses = self._reachable()
        self.rng.shuffle(addresses)
        bogus = align_up(max(heap.address_table(), default=0x1000) + 0x100000)
        # Only NULL strong slots and weak slots are corrupted: the sentinel
        # repairs a dangle by nulling it, and for these two slot classes a
        # NULL read is within the program's contract (a fresh field, or a
        # weak reference whose target died).  Clobbering a *live* strong
        # edge would fault the workload's own logic, not the collector.
        for address in addresses:
            obj = heap.get(address)
            null_slots = [
                idx
                for idx in obj.reference_slot_indices()
                if obj.slots[idx] == NULL
            ]
            if null_slots:
                idx = self.rng.choice(null_slots)
                obj.slots[idx] = bogus
                return (
                    f"slot {idx} of {obj.cls.name}@{obj.address:#x} "
                    f"dangled to {bogus:#x}"
                )
            if obj.has_weak_slots:
                idx = self.rng.choice(list(obj.weak_slot_indices()))
                obj.slots[idx] = bogus
                return (
                    f"weak slot {idx} of {obj.cls.name}@{obj.address:#x} "
                    f"dangled to {bogus:#x}"
                )
        return "inert: no corruptible slots"

    def _fault_corrupt_freelist(self, fault: Fault) -> str:
        space = self._primary_space()
        shards = getattr(space, "shards", None)
        if shards is not None:
            # Zone-sharded space: the facade has no free list of its own,
            # so corrupt a shard — the pinned zone's when one is set.
            pool = list(shards)
            if self.pin_zone is not None and 0 <= self.pin_zone < len(shards):
                pool = [shards[self.pin_zone]]
            victims = sorted(
                address
                for shard in pool
                for chunk in shard._chunks.values()
                for address in chunk
                if self.vm.heap.contains(address)
            )
            if not victims:
                return "inert: no allocated cells"
            address = self.rng.choice(victims)
            shard = space.shard_for(address)
            cell = shard.cell_size(address)
            shard.free_list.push(address, cell)
            return (
                f"live cell {address:#x} ({cell} bytes) duplicated onto "
                f"the {shard.name} free list"
            )
        free_list = getattr(space, "free_list", None)
        if free_list is not None:
            victims = sorted(
                address
                for chunk in space._chunks.values()
                for address in chunk
                if self.vm.heap.contains(address)
            )
            if not victims:
                return "inert: no allocated cells"
            address = self.rng.choice(victims)
            cell = space.cell_size(address)
            free_list.push(address, cell)
            return (
                f"live cell {address:#x} ({cell} bytes) duplicated onto "
                f"the {space.name} free list"
            )
        # Bump space: plant a phantom allocation record past the cursor.
        phantom = align_up(space._cursor + 0x10000)
        space._allocated[phantom] = 16
        space.bytes_in_use += 16
        return f"phantom 16-byte cell planted at {phantom:#x} in {space.name}"

    def _fault_alloc_fail(self, fault: Fault) -> str:
        count = fault.arg or 1
        space = self._alloc_space()
        space.deny_next(count)
        return f"next {count} allocation(s) in {space.name} will be refused"

    def _fault_conn_drop(self, fault: Fault) -> str:
        """Sever a tenant session's outbound stream (dead TCP peer).

        Consumes no rng, so scheduling it alongside heap faults leaves
        their seeded victim choices untouched.
        """
        hook = getattr(self.vm, "service_hooks", {}).get("conn-drop")
        if hook is None:
            return "inert: no tenant session attached to this VM"
        return str(hook())

    def _fault_session_kill(self, fault: Fault) -> str:
        """Kill the tenant session owning this VM at the current GC.

        The hook raises :class:`~repro.errors.SessionKilled` out of the
        collection, so the record is appended *before* the call — a
        raising handler would otherwise never reach ``_apply``'s append.
        Consumes no rng (see :meth:`_fault_conn_drop`).
        """
        hook = getattr(self.vm, "service_hooks", {}).get("session-kill")
        if hook is None:
            return "inert: no tenant session attached to this VM"
        detail = "session kill raised into the tenant workload"
        self.applied.append((fault.kind, detail))
        hook()
        # Contractually unreachable: the hook raises.  If a custom hook
        # returns instead, un-append so _apply records exactly once.
        self.applied.pop()
        return detail

    def _fault_raise_reaction(self, fault: Fault) -> str:
        engine = self.vm.engine
        if engine is None:
            return "inert: no assertion engine"
        state = {"armed": True}

        def exploding_handler(violation):
            if state["armed"]:
                state["armed"] = False
                raise InjectedFault("injected reaction-handler failure")
            return None

        engine.policy.add_handler(exploding_handler)
        return "violation handler armed to raise once"

    def _fault_raise_sink(self, fault: Fault) -> str:
        telemetry = self.vm.telemetry
        if telemetry is None:
            return "inert: telemetry disabled"
        sink = ExplodingSink(fail_times=fault.arg or 8)
        telemetry.add_sink(sink)
        return f"exploding sink added (fails {sink.fail_times} emit(s))"

    def _fault_raise_snapshot(self, fault: Fault) -> str:
        policy = self.vm.snapshot_policy
        if policy is None:
            return "inert: no snapshot policy installed"
        original = policy.finish_capture
        state = {"armed": True}

        def exploding_finish(collector, sink):
            if state["armed"]:
                state["armed"] = False
                policy.finish_capture = original
                raise OSError("injected snapshot serialization failure")
            return original(collector, sink)

        policy.finish_capture = exploding_finish
        policy.request_capture()
        return "next snapshot serialization will raise OSError"

    def __repr__(self) -> str:
        return (
            f"<FaultInjector seed={self.plan.seed} "
            f"{len(self.applied)}/{len(self.plan)} applied>"
        )
