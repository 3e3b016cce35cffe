"""The assertion engine: the collector-side half of GC assertions.

This is the component the paper adds to Jikes RVM's collector.  Every
collector (:class:`repro.gc.base.Collector`), its tracer and the ownership
phase call it directly, at these points, and it piggybacks all checking on
the normal tracing work:

* ``gc_begin``    — reset per-GC state (per-class instance counts).
* ``pre_mark``    — the §2.5.2 ownership phase (or the naive ablation).
* ``on_first_encounter_slow`` — the dead-bit and unowned-ownee checks, for
  a first encounter whose already-hot header word has a slow bit set.
* ``on_repeat_encounter_slow`` — the unshared-bit check ("objects that are
  encountered more than once, i.e. whose mark bits are already set").
* ``phase1_dead`` — a dead object phase 1 reached, which it has no path to.
* ``post_mark``   — the judgment of phase 1's provisional marks,
  instance-limit checks ("at the end of GC, we iterate through our list
  of tracked types") and FORCE reactions, which must null incoming
  references *before* the sweep reclaims the victims.
* ``gc_end``      — metadata purging for reclaimed objects ("we must remove
  each unreachable ownee after a GC"), violation logging, and HALT
  reactions.

The loops that meet objects count the header checks and the instances
themselves, and call the three encounter hooks only when a header bit
asks.  Violations are collected during the trace and dispatched at the end
of the collection, when the heap is consistent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core import lifetime
from repro.core.ownership import run_naive_ownership_check, run_ownership_phase
from repro.core.reactions import Reaction, ReactionPolicy
from repro.core.registry import AssertionRegistry, OwnerRecord
from repro.core.reporting import AssertionKind, HeapPath, Violation, ViolationLog
from repro.errors import (
    AssertionViolationHalt,
    ConfigurationError,
    EngineDegraded,
    UseAfterFreeError,
)
from repro.heap import header as hdr
from repro.heap.object_model import HeapObject

if TYPE_CHECKING:
    from repro.gc.base import Collector
    from repro.gc.tracer import Tracer
    from repro.runtime.classes import ClassRegistry
    from repro.runtime.vm import VirtualMachine


class AssertionEngine:
    """Checks registered GC assertions during each collection."""

    def __init__(
        self,
        classes: "ClassRegistry",
        policy: Optional[ReactionPolicy] = None,
        ownership_mode: str = "two-phase",
    ):
        if ownership_mode not in ("two-phase", "naive"):
            raise ConfigurationError(f"unknown ownership mode {ownership_mode!r}")
        self.classes = classes
        self.registry = AssertionRegistry()
        self.policy = policy or ReactionPolicy()
        self.log = ViolationLog()
        self.ownership_mode = ownership_mode
        self.vm: Optional["VirtualMachine"] = None
        self._gc_number = 0
        self._pending: list[Violation] = []
        self._force_victims: list[int] = []
        #: GC number whose checks are disabled (degraded); -1 = none.  The
        #: comparison-based form (rather than a boolean) survives a recovery
        #: retrace of the *same* collection and re-arms automatically when
        #: the next collection bumps the number.
        self._degraded_gc = -1
        self.degraded_events: list[EngineDegraded] = []
        #: The two facts phase 1 records for :meth:`_judge_phase1_marks`:
        #: ``(owner, by)`` for every owner it marks from ``by``'s scan, and
        #: ``(ownee, holder)`` for every encounter with another owner's ownee,
        #: which it does not mark.
        self._marked_owners: list[tuple[int, int]] = []
        self._foreign_ownees: list[tuple[int, int]] = []
        #: Addresses of the ownees the *naive* ownership check found reachable
        #: from their owner — the paper's ``OWNED`` bit, kept beside the heap
        #: as the mark is; the root scan reads it and ``post_mark`` drops it.
        #: Two-phase mode marks what it finds instead, so it stays empty.
        self._found_ownees: set[int] = set()

    @property
    def degraded(self) -> bool:
        """True while checks are disabled for the current collection."""
        return self._degraded_gc == self._gc_number

    def note_degraded(self, phase: str, exc: Optional[BaseException] = None, reason: str = "") -> None:
        """Disable checking for the rest of this GC and record why.

        The never-propagate rule: an engine or reaction exception must not
        take down the collection, so the caller swallows it and routes it
        here.  Checks re-arm on the next pause (gc number comparison).
        """
        already = self._degraded_gc == self._gc_number
        self._degraded_gc = self._gc_number
        if already:
            return
        detail = reason or (f"{type(exc).__name__}: {exc}" if exc is not None else "unknown")
        event = EngineDegraded(detail, phase=phase, gc_number=self._gc_number)
        self.degraded_events.append(event)
        vm = self.vm
        if vm is None:
            return
        collector = vm.collector
        collector.recovery.engine_degradations += 1
        collector.record_degradation(
            "engine", f"{phase}: {detail}", instant="engine_degraded", cat="assertion",
            phase=phase, gc=self._gc_number, reason=detail,
        )

    # ------------------------------------------------------------------ hooks

    def gc_begin(self, collector: "Collector") -> None:
        """Reset per-collection state (a recovery retrace runs it again)."""
        self._found_ownees = set()
        self._gc_number = collector.stats.collections
        self._pending = []
        self._force_victims = []
        self._marked_owners = []
        self._foreign_ownees = []
        self.classes.reset_instance_counts()

    def abandon_mark(self, collector: "Collector") -> None:
        """Uncount what an aborted mark staged: it was never dispatched,
        and the retrace finds it again."""
        collector.stats.violations_detected -= len(self._pending)
        self._pending = []

    def pre_mark(self, collector: "Collector", tracer: "Tracer") -> None:
        """Runs before root scanning — the §2.5.2 ownership phase."""
        if not self.registry.owners:
            return
        if self.ownership_mode == "two-phase":
            run_ownership_phase(self, collector)
        else:
            run_naive_ownership_check(self, collector)

    def armed_checks(self) -> tuple[bool, bool]:
        """Which header reads can find work during a drain, from what is
        registered right now: ``(any, on a repeat edge)``.

        A repeat edge matters only to ``assert-unshared``.  A hardened
        collector is always armed: its trace is what finds a zombie.
        Nothing at all is armed when no assertion is registered, no class
        is tracked and the collector is not hardened — the drain then reads
        no header and counts its checks by the edge.
        """
        registry = self.registry
        repeats = bool(registry.unshared_sites)
        armed = (
            repeats
            or bool(registry.dead_sites)
            or bool(registry.ownee_owner)
            or bool(self.classes.tracked_types)
            or (self.vm is not None and self.vm.collector.hardened)
        )
        return armed, repeats

    def on_first_encounter_slow(self, obj: HeapObject, tracer: Optional["Tracer"], parent) -> None:
        """Violation checks for a first encounter whose header word matched
        ``DEAD_BIT | OWNEE_BIT | FREED_BIT``.  The inlining caller owns the
        check counters and the instance-count bookkeeping.

        A ``FREED`` object still in the table is a zombie: the edge that
        discovered it raises the error a root or phase 1 would."""
        status = obj.status
        if status & hdr.FREED_BIT:
            raise UseAfterFreeError(f"object at {obj.address:#x} was reclaimed")
        if self._degraded_gc == self._gc_number:
            return
        if status & hdr.DEAD_BIT:
            self._dead_violation(obj, tracer)
        if status & hdr.OWNEE_BIT and obj.address not in self._found_ownees:
            self._unowned_violation(obj, tracer)

    def on_repeat_encounter_slow(self, obj: HeapObject, tracer: Optional["Tracer"], parent) -> None:
        """Unshared violation for a repeat encounter with ``UNSHARED_BIT`` set."""
        if self._degraded_gc == self._gc_number:
            return
        self._unshared_violation(obj, tracer, parent)

    def phase1_dead(self, obj: HeapObject, record: OwnerRecord) -> None:
        """Phase 1 marked an object with ``DEAD_BIT`` set.  The ownership
        scan keeps no path, so the report names the owner it scanned from;
        unowned-ownee detection is not phase 1's (it *establishes*
        ownedness)."""
        if self._degraded_gc == self._gc_number:
            return
        path = HeapPath.unavailable(
            f"(reached during ownership scan from owner {record.owner_address:#x})"
        )
        self._dead_violation(obj, None, path=path)

    def _judge_phase1_marks(self, collector: "Collector", tracer: "Tracer") -> None:
        """One rule for phase 1's provisional marks: a mark phase 1 put on
        an owner stands only if the owner whose scan put it there stands.

        Phase 1 marks before liveness is known and the root scan prunes at
        its marks, so after the root scan:

        1. Each foreign ownee phase 1 refused to mark, still unmarked and
           held by a marked object, is traced as one more root, or the sweep
           would free it under a live reference; phase 2 reports it as
           reachable but not through its owner.  One pass is the fixpoint:
           a holder this trace marks has its children scanned by the same
           drain.  An ownee held only by an unmarked owner is left alone, so
           a garbage owner cannot resurrect itself through its own region.
        2. An owner phase 1 did not mark stands: the root scan marked it, or
           it dies in this sweep and its region floats once (§2.5.2).  One
           phase 1 marked stands if an owner that marked it stands.
        3. An owner still unsettled (a back edge, or a cycle among owners),
           or one the late trace marked, costs one walk: ``marks`` keeps the
           root closure and the regions of dying owners that no dying region
           reaches.  What stays marked is closed under its edges on both
           sides, so un-marking never leaves a dangling reference; staged
           violations about objects outside the kept set are retracted.
        """
        marks = collector.heap.marks
        late = {o: h for o, h in self._foreign_ownees if h in marks and o not in marks}
        traced_owner = False
        if late:
            unmarked = [a for a in self.registry.owners if a not in marks]
            held = "(held by {:#x} in an owner's region)"
            tracer.scan_roots((held.format(h), o) for o, h in late.items())
            tracer.drain()
            traced_owner = any(a in marks for a in unmarked)
        marked_owners = self._marked_owners
        unsettled = {owner for owner, _by in marked_owners}
        while settled := {o for o, by in marked_owners if o in unsettled and by not in unsettled}:
            unsettled -= settled
        if unsettled or traced_owner:
            self._walk(collector)

    def _walk(self, collector: "Collector") -> None:
        """Step 3 of :meth:`_judge_phase1_marks`: a dying owner's region
        floats unless some dying region (its own included) reaches it."""
        heap = collector.heap

        def regions(owners):
            for address in owners:
                owner = heap.maybe(address)
                if owner is not None and not owner.is_freed:
                    yield from owner.reference_slots()

        live = heap.closure(address for _desc, address in collector.vm.root_entries())
        dying = [a for a in self.registry.owners if a not in live]
        reached = heap.closure(regions(dying))
        keep = live | heap.closure(regions(a for a in dying if a not in reached))
        heap.marks.intersection_update(keep)
        kept = [v for v in self._pending if v.address in keep]
        collector.stats.violations_detected -= len(self._pending) - len(kept)
        self._pending = kept

    def post_mark(self, collector: "Collector", tracer: "Tracer") -> None:
        """Runs after marking, before sweeping (FORCE reactions, limits)."""
        self._judge_phase1_marks(collector, tracer)
        self._found_ownees = set()  # the root scan has read them
        self._check_instance_limits(collector)
        self._resolve_reactions()
        if self._force_victims:
            lifetime.force_reclaim(collector, self.vm, self._force_victims)

    def gc_end(self, collector: "Collector", freed: set[int]) -> None:
        """Purge + finalize, for collectors where no freed address can have
        been reused before this point (MarkSweep: non-moving; SemiSpace:
        to-space addresses are disjoint from the freed from-space ones)."""
        self.purge(freed)
        self.finalize(collector)

    def purge(self, freed: set[int]) -> None:
        """Metadata hygiene: drop every registry entry keyed by a freed
        address, checking no assertion — minor collections (which, per
        §2.2, check nothing) call it alone.  MUST run before any freed
        address can be recycled — the generational full-heap collection
        promotes survivors into cells freed by the same sweep, so it purges
        between sweeping and promotion (see GenerationalCollector.collect)."""
        purge_info = self.registry.purge_freed(freed)
        collector = self.vm.collector if self.vm is not None else None
        self.process_owner_deaths(collector, purge_info["dead_owners"])

    def finalize(self, collector: "Collector") -> None:
        """Per-GC accounting and violation dispatch (may raise on HALT)."""
        ownees = self.registry.live_ownee_count()
        collector.stats.ownees_checked += ownees
        spans = collector.span_tracer
        if spans is not None:
            # One per-GC "everything registered was checked" marker: the
            # paper's guarantee is that a full collection checks all armed
            # assertions, and this is that guarantee's trace footprint.
            spans.instant(
                "assertion_checked",
                cat="assertion",
                gc=self._gc_number,
                pending_dead=len(self.registry.dead_sites),
                ownees=ownees,
                violations=len(self._pending),
            )
        self._dispatch()

    def apply_forwarding(self, fwd: dict[int, int]) -> None:
        """Rewrite engine metadata after a copying collection."""
        self.registry.apply_forwarding(fwd)

    # ----------------------------------------------------------- violations

    def _violation(
        self,
        kind: AssertionKind,
        message: str,
        obj: Optional[HeapObject] = None,
        site: Optional[str] = None,
        path: Optional[HeapPath] = None,
        details: Optional[dict] = None,
    ) -> Violation:
        violation = Violation(
            kind,
            message,
            obj=obj,
            site=site,
            path=path,
            gc_number=self._gc_number,
            details=details,
        )
        self._pending.append(violation)
        if self.vm is not None:
            self.vm.collector.stats.violations_detected += 1
        return violation

    def _dead_violation(
        self,
        obj: HeapObject,
        tracer: Optional["Tracer"],
        path: Optional[HeapPath] = None,
    ) -> None:
        site = self.registry.dead_sites.get(obj.address)
        if path is None:
            if tracer is not None:
                path = HeapPath.from_tracer(tracer, obj)
            else:
                path = HeapPath.unavailable("(no path available)")
        kind = site.kind if site is not None else AssertionKind.DEAD
        self._violation(
            kind,
            "an object that was asserted dead is reachable.",
            obj=obj,
            site=site.label if site is not None else None,
            path=path,
        )

    def _unowned_violation(self, obj: HeapObject, tracer: Optional["Tracer"]) -> None:
        owner_address = self.registry.owner_of(obj.address)
        path = HeapPath.from_tracer(tracer, obj) if tracer is not None else None
        owner_desc = f"{owner_address:#x}" if owner_address is not None else "<unknown>"
        self._violation(
            AssertionKind.OWNED_BY,
            "an object is reachable but not through its asserted owner.",
            obj=obj,
            site=f"owner {owner_desc}",
            path=path,
            details={"owner_address": owner_address},
        )

    def _unshared_violation(
        self, obj: HeapObject, tracer: Optional["Tracer"], parent
    ) -> None:
        # §2.7: "for assert-unshared, we have no way of knowing which path is
        # the correct one [...] We can print the second path."
        path = HeapPath.from_tracer(tracer, obj) if tracer is not None else None
        via = f" (second reference from {parent.cls.name})" if parent is not None else ""
        self._violation(
            AssertionKind.UNSHARED,
            f"an object that was asserted unshared has multiple incoming references{via}.",
            obj=obj,
            site=self.registry.unshared_sites.get(obj.address),
            path=path,
        )

    def report_ownership_misuse(self, obj: HeapObject, record: OwnerRecord) -> None:
        """Phase 1 reached ``obj``, another owner's ownee, from ``record``'s
        region and did not mark it: warn (once per ownee and collection)."""
        owner_address = self.registry.owner_of(obj.address)
        owner_desc = (
            f"{owner_address:#x}" if owner_address is not None else "<unregistered>"
        )
        self._violation(
            AssertionKind.OWNERSHIP_MISUSE,
            "improper use of assert-ownedby: owner regions overlap "
            f"(object owned by {owner_desc} reached from owner "
            f"{record.owner_address:#x}).",
            obj=obj,
            details={
                "owner_address": owner_address,
                "reached_from_owner": record.owner_address,
            },
        )

    def _check_instance_limits(self, collector: "Collector") -> None:
        for cls in self.classes.tracked_types:
            limit = cls.instance_limit
            if limit is not None and cls.instance_count > limit:
                # §2.7: for assert-instances "the problem paths may have been
                # traced earlier" — no path is available.
                self._violation(
                    AssertionKind.INSTANCES,
                    f"instance limit exceeded for {cls.name}: "
                    f"{cls.instance_count} live instances, limit {limit}.",
                    details={"type": cls.name, "count": cls.instance_count, "limit": limit},
                )

    def process_owner_deaths(self, collector: Optional["Collector"], dead_owners: list[int]) -> None:
        """Drop records whose owner was reclaimed.

        The owner's surviving ownees are *not* reported: they are usually
        floating garbage — the ownership phase marked them from the (dying)
        owner, so they survive exactly one extra collection (§2.5.2's
        acknowledged memory-pressure effect) and are reclaimed at the next
        GC.  The record must be dropped either way, because the free-list
        recycles the owner's address.  Genuine "outlives its owner" bugs are
        caught while the owner is still alive, as unowned-ownee violations —
        which is the paper's actual detection mechanism.
        """
        heap = collector.heap if collector is not None else None
        for owner_address in dead_owners:
            for ownee_address in self.registry.drop_owner(owner_address):
                obj = heap.maybe(ownee_address) if heap is not None else None
                if obj is not None:
                    obj.clear(hdr.OWNEE_BIT)

    # ------------------------------------------------------------- dispatch

    def _resolve_reactions(self) -> None:
        for violation in self._pending:
            if violation.reaction is not None:
                continue
            try:
                reaction = self.policy.reaction_for(violation)
            except (AssertionViolationHalt, ConfigurationError):
                # Halts and usage errors (e.g. a handler forcing a
                # non-forcible kind) are deliberate, not faults.
                raise
            except Exception as exc:
                # Never-propagate rule: a raising reaction handler must not
                # take down the collection.  Degrade, then fall back to the
                # per-kind/default policy with user handlers bypassed.
                self.note_degraded("reaction", exc)
                reaction = self.policy._per_kind.get(violation.kind, self.policy.default)
            violation.reaction = reaction._value_  # ``.value`` is a Python-level descriptor
            if reaction is Reaction.FORCE and violation.address is not None:
                self._force_victims.append(violation.address)

    def _dispatch(self) -> None:
        """The collection's violations leave the pause here, as one list."""
        self._resolve_reactions()
        pending, self._pending = self._pending, []
        if not pending:
            return
        self.log.record_batch(pending)
        telemetry = self.vm.telemetry if self.vm is not None else None
        if telemetry is not None:
            telemetry.record_violations(pending)
        spans = self.vm.collector.span_tracer if self.vm is not None else None
        if spans is not None:
            for violation in pending:
                spans.instant(
                    "assertion_violated",
                    cat="assertion",
                    kind=violation.kind.value,
                    site=violation.site,
                    reaction=violation.reaction,
                )
        halting, halt = Reaction.HALT._value_, None
        for violation in pending:
            if violation.reaction == halting:
                halt = violation
                break
        if halt is not None:
            # A HALT aborts the collection before the VM's gc-observers run,
            # which would silently skip an on_violation snapshot capture —
            # the one report the user is about to read.  Run the policy's
            # violation trigger now so the halt message carries the retained
            # size and dominator chain; diagnosis must never mask the halt.
            policy = getattr(self.vm, "snapshot_policy", None)
            if policy is not None and getattr(policy, "on_violation", False):
                try:
                    policy._after_gc(self.vm, set())
                except Exception:
                    pass
            raise AssertionViolationHalt(halt)
