"""Collector base class: the one pause every collector runs.

A collector owns the allocation policy (spaces) and the collection
algorithm; the *assertion engine*
(:class:`repro.core.engine.AssertionEngine`) is called at fixed points of
the pause.  When no engine is attached and path tracking is off, a
collector behaves exactly like the unmodified VM — the paper's
**Base** configuration.  With an engine attached but no assertions
registered, the per-object hook costs are still paid — the paper's
**Infrastructure** configuration.  Registered assertions add their own
checking work on top — **WithAssertions**.

The full-collection sequence lives here once, in :meth:`Collector.collect`;
a collector keeps only what differs — its prologue, its reclaim, its log
tag — so the integrity checks (the hardened sentinel and the paranoid
walk, two readers of the invariant catalogue in :mod:`repro.gc.verify`)
have one call site.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, TYPE_CHECKING

from repro.errors import AssertionViolationHalt, HeapError, HeapExhausted, InvalidAddressError
from repro.gc.lazysweep import LAZY_SWEEP_BATCH, ChunkSweeper
from repro.gc.stats import GcStats, PauseRecord, PhaseTimer, RecoveryStats
from repro.gc.tracer import Tracer
from repro.gc.verify import HeapVerificationError, Quarantine, run_sentinel, verify_heap
from repro.heap.heap import ObjectHeap
from repro.heap.layout import NULL
from repro.heap.object_model import ClassDescriptor, HeapObject

if TYPE_CHECKING:
    from repro.core.engine import AssertionEngine
    from repro.runtime.vm import VirtualMachine
    from repro.telemetry import Telemetry


class Collector:
    """Base class for all collectors."""

    #: Human-readable collector name (used in logs and bench output).
    name = "abstract"
    #: True when the collector can move objects (handles must expect it).
    moving = False
    #: What a full collection's ``gc_log`` line starts with.
    log_tag = "GC"

    def __init__(
        self,
        heap_bytes: int,
        engine: Optional["AssertionEngine"] = None,
        track_paths: Optional[bool] = None,
        hardened: bool = False,
        max_heap_bytes: Optional[int] = None,
    ):
        self.heap = ObjectHeap()
        self.heap_bytes = heap_bytes
        self.engine = engine
        #: Hardened mode: the trace trips over a zombie or a dangling edge
        #: and the mid-mark recovery walks the heap, repairs, fences and
        #: retraces; before the trace a sentinel pass mends only what no
        #: trace reads (leftover marks, roots, region queues, registry
        #: keys).  Plus engine-exception containment.  Off by default; the
        #: service turns it on for every tenant VM.
        self.hardened = hardened
        #: True once this pause has counted its one heap degradation.
        self._heap_degraded = False
        #: Growth ceiling for OOM recovery; None disables heap growth.
        self.max_heap_bytes = max_heap_bytes
        #: Counters for the recovery paths (kept out of GcStats on purpose:
        #: GcStats counters are gated bit-identical across benchmark modes).
        self.recovery = RecoveryStats()
        #: Addresses fenced off as corrupt; dead to the allocator forever.
        self.quarantine = Quarantine()
        # Path tracking defaults on exactly when the assertion infrastructure
        # is present, mirroring the paper's Infrastructure configuration.
        self.track_paths = (engine is not None) if track_paths is None else track_paths
        self.stats = GcStats()
        self.vm: Optional["VirtualMachine"] = None
        self.gc_log: list[str] = []
        #: Telemetry hub, attached by the VM; None means the emit path is a
        #: single attribute load + ``is None`` test (the Base configuration).
        self.telemetry: Optional["Telemetry"] = None
        #: Snapshot policy, installed via the VM; None (the default) keeps
        #: the capture machinery entirely out of the collection path.
        self.snapshot_policy = None
        #: Sink filled at the end of the current collection's mark phase,
        #: awaiting the post-pause :meth:`_snapshot_flush`.
        self._snapshot_pending = None
        #: Span recorder (:class:`repro.tracing.spans.SpanTracer`), attached
        #: by a VM built with ``tracing=True``.
        self.span_tracer = None
        #: What reads a pause record; with nothing, no record is built.
        self.consumers: tuple = ()
        #: The open pause's :class:`PauseRecord`, or None.
        self._record: Optional[PauseRecord] = None
        #: Paranoid mode (PR 10): run the full wellformedness walker around
        #: every collection and raise :class:`~repro.gc.verify.HeapVerificationError`
        #: on any finding.  Off by default; when off the cost is one falsy
        #: attribute test per collection (the same zero-overhead bar as
        #: telemetry/tracing) and ``paranoid_walks`` stays 0.  Deliberately a
        #: plain attribute, not a GcStats counter — GcStats stays bit-identical
        #: across modes.
        self.paranoid = False
        self.paranoid_walks = 0
        #: The chunk sweeper of the one space this collector sweeps; None
        #: for a collector that evacuates instead.
        self._sweeper: Optional[ChunkSweeper] = None

    # -- wiring ---------------------------------------------------------------------

    def attach(self, vm: "VirtualMachine") -> None:
        """Wire in ``vm``, its telemetry hub and its span recorder: the
        consumers of every pause record, in hand-off order."""
        self.vm = vm
        self.telemetry, self.span_tracer = vm.telemetry, vm.span_tracer
        self.consumers = tuple(c for c in (vm.telemetry, vm.span_tracer) if c is not None)

    def _roots(self):
        assert self.vm is not None, "collector used before attach()"
        return self.vm.root_entries()

    # -- mutator interface ------------------------------------------------------------

    def allocate(self, cls: ClassDescriptor, length: int = 0) -> HeapObject:
        """Allocate an instance, collecting on pressure; raises on true OOM."""
        raise NotImplementedError

    #: Reference-store hook ``write_barrier(src, new_address)``, or None for
    #: a collector that keeps no remembered set.  Only the generational
    #: collector defines one; the VM binds it once and skips the call
    #: when it is None.
    write_barrier = None

    def _allocate_cell(
        self, attempt, cls: ClassDescriptor, nbytes: int, oom_reason: str, collect_as=None
    ) -> int:
        """``attempt(nbytes)`` — ask a space for a cell: an address, or
        ``None`` — and when it says no, the ladder of :meth:`_under_pressure`."""
        address = attempt(nbytes)
        if address is None:
            address = self._under_pressure(attempt, cls, nbytes, oom_reason, collect_as)
        return address

    def _under_pressure(
        self,
        attempt,
        cls: ClassDescriptor,
        nbytes: int,
        oom_reason: str,
        collect_as: Optional[str] = None,
    ) -> int:
        """The allocation-pressure ladder: every collector's one answer to
        an ``attempt(nbytes)`` that has just returned ``None``.

        Each rung ends in another attempt.  Repay lazy-sweep debt, a batch
        of chunks at a time; run one full collection (trigger
        ``"<collect_as> of N bytes failed"``) and repay the debt it leaves;
        grow the heap toward ``max_heap_bytes``, a step at a time; raise
        the typed :class:`HeapExhausted`.  ``collect_as=None`` leaves the
        collection out: promotion and evacuation run inside one.
        ``oom_recoveries`` counts the requests growth rescued — the attempt
        after a growth step succeeded.
        """
        sweeper = self._sweeper
        for collected in range(1 if collect_as is None else 2):
            address = None
            if collected:
                self.collect(reason=f"{collect_as} of {nbytes} bytes failed")
                address = attempt(nbytes)
            while address is None and sweeper is not None and sweeper.debt:
                sweeper.sweep_chunks(LAZY_SWEEP_BATCH)
                address = attempt(nbytes)
            if address is not None:
                return address
        while self._try_grow():
            address = attempt(nbytes)
            if address is not None:
                self.recovery.oom_recoveries += 1
                return address
        raise self._oom(cls, nbytes, oom_reason)

    def _place(self, place, space, address: int, *cell):
        """``place(address)`` — a ``heap.install`` or ``heap.relocate`` into a
        cell of ``space`` — the hardened way.

        An :class:`InvalidAddressError` means corrupted free-list metadata
        handed out an address the table already tracks.  Unhardened it
        propagates; hardened, the alias is fenced and the next cell comes
        from ``_allocate_cell(*cell)``, until one takes.  Every round
        retires a corrupt cell for good, so a space with nothing else left
        ends in the ladder's typed OOM, not in a loop.
        """
        while True:
            try:
                return place(address)
            except InvalidAddressError:
                if not self.hardened:
                    raise
            self._fence_aliased_cell(space, address)
            address = self._allocate_cell(*cell)

    def _relocate_all(self, space, objs: list[HeapObject], oom_reason: str) -> dict[int, int]:
        """Move ``objs`` into fresh cells of ``space`` (promotion,
        evacuation); returns the forwarding map."""
        heap = self.heap
        fwd: dict[int, int] = {}
        for obj in objs:
            cell = (space.allocate, obj.cls, obj.size_bytes, oom_reason)
            address = self._allocate_cell(*cell)
            old = obj.address
            try:
                heap.relocate(obj, address)
            except InvalidAddressError:
                self._place(partial(heap.relocate, obj), space, address, *cell)
            fwd[old] = obj.address
        return fwd

    @staticmethod
    def _forward_slots(obj: HeapObject, fwd: dict[int, int]) -> None:
        """Rewrite ``obj``'s reference slots through a forwarding map."""
        slots = obj.slots
        for idx in obj.reference_slot_indices():
            child = slots[idx]
            if child != NULL:
                new = fwd.get(child)
                if new is not None:
                    slots[idx] = new

    def _evacuate(
        self, space, live, to_space, oom_reason: str, freed: Optional[set[int]] = None
    ) -> tuple[list[HeapObject], dict[int, int]]:
        """Empty ``space``: evict and count every object ``live`` does not
        hold, purge them, relocate the survivors into ``to_space`` and reset
        ``space``.  Returns ``(survivors, forwarding)``; the caller forwards
        the slots of whatever can hold a reference into ``space``.

        ``freed`` is what the caller already freed in this pause; it is
        purged in the same call, before the first survivor moves.
        """
        heap, stats = self.heap, self.stats
        dead: set[int] = set() if freed is None else freed
        survivors: list[HeapObject] = []
        for address in space.addresses():
            obj = heap.maybe(address)
            if obj is None:
                continue
            stats.objects_swept += 1
            if address in live:
                survivors.append(obj)
            else:
                dead.add(address)
                stats.objects_freed += 1
                stats.bytes_freed += obj.size_bytes
                heap.evict(obj)
        self._purge_before_reuse(dead)
        fwd = self._relocate_all(to_space, survivors, oom_reason)
        space.reset()
        return survivors, fwd

    # -- the pause skeleton --------------------------------------------------------------

    def collect(self, reason: str = "explicit") -> None:
        """A full-heap collection: the one sequence every collector runs.

        The prologue repays what the last collection still owes (a lazy
        mark-sweep's pending chunks), so every collector starts the trace
        from an exact heap — no sweep debt, no mark set.  That is where the
        hardened sentinel repairs what the trace does not read and the
        paranoid walk judges the heap: before the trace, its first reader.
        The pause is the shared mark phase, then the subclass's :meth:`_reclaim`.
        """
        self._pause("full", reason, self._mark_and_reclaim)

    def _pause(self, kind: str, reason: str, body) -> None:
        """The skeleton of every collection: in the ``collect`` phase, a full
        one's prologue and checks, the timed ``pause`` around ``body()``
        (returning the forwarding map), the epilogue, and the snapshot flush
        (mutator-side cost: the pause timer is closed); then the record's
        hand-off and the read-only paranoid walk of what it left.
        """
        full = kind == "full"
        stats = self.stats
        record = self._record = PauseRecord(kind, reason, self) if self.consumers else None
        try:
            with PhaseTimer(None, "collect", record):
                if full:
                    self._prologue()
                    if self.hardened:
                        self._heap_degraded = False
                        self._sentinel_check("pre-gc")
                    if self.paranoid:
                        self._paranoid_check("pre-gc")
                if record is not None:
                    record.enter(self)
                with PhaseTimer(stats, "gc_seconds", record):
                    stats.collections += 1
                    if full:
                        stats.full_collections += 1
                        tag = self.log_tag
                    else:
                        stats.minor_collections += 1
                        tag = "minorGC"
                    self.gc_log.append(f"{tag} {stats.collections}: {reason}")
                    fwd = body()
                self._finish_collection(fwd, full)
                self._snapshot_flush()
        finally:
            self._record = None
        if record is not None:
            for consumer in record.consumers:
                consumer.record_pause(record, self)
        if self.paranoid:
            self._paranoid_check("post-gc" if full else "post-minor")

    def _mark_and_reclaim(self) -> Optional[dict[int, int]]:
        """A full collection's pause: the shared mark phase, then the
        subclass's :meth:`_reclaim`."""
        self._run_mark_phase(self._make_tracer())
        return self._reclaim()

    def _prologue(self) -> None:
        """Work owed before a new trace, outside the measured pause.  The
        lazy mark-sweep repays its debt here: the ownership phase must not
        walk a dead owner's record (it would resurrect the region), and the
        mark set the pending chunks are judged by belongs to the old cycle."""

    def _reclaim(self) -> Optional[dict[int, int]]:
        """Reclaim what the mark phase left unmarked; returns the forwarding
        map, or None when nothing moved.

        The one reclaim rule ("we must remove each unreachable ownee after
        a GC", §2.5.2): whatever frees a cell purges its address with
        :meth:`_purge_before_reuse` before any freed cell can be reused —
        the eager sweep, each lazy chunk and :meth:`_evacuate`.
        """
        raise NotImplementedError

    def record_degradation(
        self,
        kind: str,
        detail: str,
        log: Optional[str] = None,
        instant: Optional[str] = None,
        cat: str = "gc",
        **instant_args,
    ) -> None:
        """One recovery-path activation, told to whoever listens: a GC log
        line, a telemetry degradation of ``kind``, a span instant."""
        if log is not None:
            self.gc_log.append(log)
        if self.telemetry is not None:
            self.telemetry.record_degradation(kind, detail, seq=self.stats.collections)
        if instant is not None and self.span_tracer is not None:
            self.span_tracer.instant(instant, cat=cat, **instant_args)

    # -- shared helpers ---------------------------------------------------------------

    def _make_tracer(self) -> Tracer:
        # Hardened, every first encounter reads the header: with an engine
        # its drain is armed, and without one ``specialized=False`` forces
        # the checked drain, whose one slow bit is ``FREED``: it raises for
        # a zombie as ``heap.get`` would.
        specialized = self.engine is not None or not self.hardened
        return Tracer(self.heap, self.stats, self.engine, self.track_paths, specialized)

    def _snapshot_flush(self) -> None:
        """Serialize a capture buffered during this collection, if any.

        Collectors call this *after* their ``gc_seconds`` timer closes:
        the file write is mutator-side cost, not pause time.  A failing
        serializer (disk full, injected IOError) must never stall the
        mutator, so failures are contained here and recorded.
        """
        sink = self._snapshot_pending
        if sink is not None:
            self._snapshot_pending = None
            try:
                with PhaseTimer(None, "snapshot_serialize", self._record):
                    self.snapshot_policy.finish_capture(self, sink)
            except Exception as exc:
                self.recovery.snapshot_failures += 1
                detail = f"{type(exc).__name__}: {exc}"
                self.record_degradation(
                    "snapshot", detail, log=f"snapshot serialization failed: {detail}"
                )

    def _engine_call(self, phase: str, fn, *args) -> None:
        """Invoke one engine hook; in hardened mode, contain its exceptions.

        The never-propagate rule: an engine bug (or injected fault) degrades
        checking for this collection instead of killing the pause.  Halts
        are the engine *working as designed* and heap errors are the heap's
        problem — both propagate.
        """
        if not self.hardened:
            fn(*args)
            return
        try:
            fn(*args)
        except (AssertionViolationHalt, HeapError):
            raise
        except Exception as exc:
            self.engine.note_degraded(phase, exc)

    def _mark_once(self, tracer: Tracer) -> None:
        engine, stats, record = self.engine, self.stats, self._record
        if engine is not None:
            self._engine_call("gc_begin", engine.gc_begin, self)
            with PhaseTimer(stats, "ownership_phase_seconds", record):
                self._engine_call("pre_mark", engine.pre_mark, self, tracer)
        # The root scan and the drain are phases of their own; the loops
        # themselves are untouched (phases are never per object).
        with PhaseTimer(stats, "mark_seconds", record):
            with PhaseTimer(None, "root_scan", record):
                tracer.scan_roots(self._roots())
            with PhaseTimer(None, "mark_drain", record):
                self._drain(tracer)
        spans = record.spans if record is not None else None
        if spans is not None and spans.attribute_marks:
            # Between mark end and sweep begin the mark set is exactly
            # this cycle's traced set — the attribution window.
            spans.record_mark_attribution(self.heap)
        if engine is not None:
            self._engine_call("post_mark", engine.post_mark, self, tracer)

    def _drain(self, tracer: Tracer) -> None:
        """Drain the worklist the root scan seeded."""
        tracer.drain()

    def _run_mark_phase(self, tracer: Tracer) -> Tracer:
        """Mark the heap; in hardened mode, recover from a mid-mark fault.

        Recovery drops the partial mark state, quarantines detected
        corruption (or degrades the engine, for non-heap faults), and
        re-runs the *entire* mark phase with a fresh tracer (and so a
        fresh, empty mark set) — ``pre_mark`` must re-run because without
        its marks (or, in naive mode, the ownees its searches found) the
        root scan would fabricate unowned-ownee violations.  A second
        failure propagates: one recovery attempt per pause.

        When this returns ``post_mark`` has run and nothing has been
        reclaimed or relocated, so ``heap.marks`` is exactly the survivor
        set: phase-1 marks in, the ones judged garbage and FORCE victims
        out.  That is the one window in which snapshot capture reads it.

        Returns the tracer that actually completed the mark (callers that
        consult tracer state must use the return value).
        """
        try:
            self._mark_once(tracer)
        except AssertionViolationHalt:
            raise
        except Exception as exc:
            if not self.hardened:
                raise
            self._clear_all_marks()
            if self.engine is not None:
                self.engine.abandon_mark(self)
            if isinstance(exc, HeapError):
                # Corruption surfaced mid-trace: walk the heap, repair what
                # the sentinel can and retrace over the fenced heap.
                if not self._sentinel_check("mid-mark"):
                    # The fault's cause was not repairable (or not findable);
                    # still record the degradation before the retrace.
                    self._count_heap_degradation()
                    self.gc_log.append(
                        f"mid-mark heap fault: {type(exc).__name__}: {exc}"
                    )
            elif self.engine is not None:
                self.engine.note_degraded("mark", exc)
            tracer = self._make_tracer()
            self._mark_once(tracer)
        policy = self.snapshot_policy
        if policy is not None:
            sink = policy.begin_capture(self)
            if sink is not None:
                sink.record_marked(self.heap, self._roots())
                self._snapshot_pending = sink
        return tracer

    def _clear_all_marks(self) -> None:
        """Reset per-collection state after an aborted mark: the mark set is
        dropped, without a heap walk.  (The engine resets its own in
        ``gc_begin``, which the retrace runs first.)"""
        self.heap.new_marks()

    def _purge_before_reuse(self, freed: set[int]) -> None:
        """Drop address-keyed metadata — registry entries, the engine's path
        steps, region-queue slots — for ``freed``, so a recycled address
        aliases nothing stale.  Every loop that frees calls it (see
        :meth:`_reclaim`)."""
        if self.engine is not None:
            self.engine.purge(freed)
        if self.vm is not None:
            self.vm.purge_dead_metadata(freed)

    def _finish_collection(self, fwd: Optional[dict[int, int]], full: bool) -> None:
        """The epilogue of every pause: forward the metadata, settle weak
        references, end a ``full`` collection's checking (a minor one, per
        §2.2, checks nothing), tell the observers.  The reclaim has purged
        what it freed."""
        engine, vm = self.engine, self.vm
        if fwd:
            if engine is not None:
                engine.apply_forwarding(fwd)
            if vm is not None:
                vm.apply_forwarding(fwd)
        self.process_weak_references(fwd)
        if engine is not None and full:
            engine.gc_end(self)
        if vm is not None:
            for observer in vm.gc_observers:
                observer(vm)

    def process_weak_references(self, fwd: Optional[dict[int, int]] = None) -> None:
        """Clear weak slots whose target died; forward ones whose target moved.

        A target is dead when it is not live (:meth:`ObjectHeap.is_live`):
        gone from the table or, under lazy-sweep debt, still there as
        pending garbage.  Pending-garbage holders are skipped: the eager
        path never sees them either (they are evicted before weak
        processing), which keeps ``weak_refs_cleared`` identical between
        modes.  With no sweep owed, the table is the answer, asked once.
        """
        heap = self.heap
        owed = heap.sweep_cutoff is not None
        for obj in list(heap.weak_holders):
            if owed and not heap.is_live(obj):
                continue
            slots = obj.slots
            for idx in obj.weak_slot_indices():
                address = slots[idx]
                if address == NULL:
                    continue
                if fwd:
                    address = fwd.get(address, address)
                target = heap.maybe(address)
                if target is None or (owed and not heap.is_live(target)):
                    slots[idx] = NULL
                    self.stats.weak_refs_cleared += 1
                else:
                    slots[idx] = address

    # -- hardened recovery surface ------------------------------------------------------

    def _sentinel_check(self, phase: str) -> list[str]:
        """The integrity sentinel: repair + quarantine, never raise; returns
        the problems it found.

        Before the trace (``"pre-gc"``) it walks no object: the trace trips
        over a zombie or a dangling edge, and the mid-mark recovery runs it
        again as the full walk.  A paranoid collector walks the heap both
        times, since its own walk follows anyway.  Callers must only invoke
        this when the mark set is legitimately empty (after the prologue,
        which leaves no sweep debt) — under debt the set is what keeps
        unswept survivors alive.
        """
        recovery = self.recovery
        before = recovery.total()
        # In paranoid mode the sentinel also scrubs allocator free lists, so
        # the wellformedness walk that follows starts from a repaired heap.
        problems = run_sentinel(
            self.vm,
            scrub_freelists=self.paranoid,
            heap_walk=self.paranoid or phase != "pre-gc",
        )
        if problems:
            repairs = recovery.total() - before
            counts = f"{len(problems)} problem(s), {repairs} repair(s)"
            log = f"sentinel[{phase}]: {counts}" + "".join(f"\n  {p}" for p in problems)
            if self._count_heap_degradation():
                self.record_degradation(
                    "heap", f"{phase}: {counts}", log=log,
                    instant="heap_degraded", phase=phase, problems=len(problems), repairs=repairs,
                )
            else:
                self.gc_log.append(log)
        return problems

    def _count_heap_degradation(self) -> bool:
        """Count this pause's heap degradation; False if it already has one
        (a pre-trace repair and the mid-mark walk are one degraded pause)."""
        if self._heap_degraded:
            return False
        self._heap_degraded = True
        self.recovery.heap_degradations += 1
        return True

    def _paranoid_check(self, phase: str) -> None:
        """Paranoid wellformedness walk around a collection.

        Both tiers of the invariant catalogue, read-only (pending lazy
        garbage is not live to it, not swept — the walk must never change
        what the collection it brackets would have done); any finding
        raises a typed :class:`~repro.gc.verify.HeapVerificationError`
        naming the phase.  Callers gate on ``self.paranoid`` and run it
        *outside* the timed pause: off costs one falsy test, on is charged
        to wall clock, not to the pause ledger.
        """
        if self.vm is None:
            return
        self.paranoid_walks += 1
        problems = verify_heap(self.vm, raise_on_error=False, paranoid=True)
        if problems:
            raise HeapVerificationError(
                f"paranoid[{phase}] walk after gc#{self.stats.collections} found "
                f"{len(problems)} problem(s): " + "; ".join(problems[:5]),
                problems=problems,
            )

    def _fence_aliased_cell(self, space, address: int) -> None:
        """Quarantine a free-list cell that aliased a live object.

        Corrupted free-list metadata handed out an address the heap already
        tracks.  The address is fenced (never reused), the double byte
        charge from the aliased commit is undone, and the legitimate
        occupant is untouched.
        """
        self.quarantine.fence(address)
        self.recovery.cells_fenced += 1
        try:
            cell = space.cell_size(address)
        except Exception:
            cell = 0
        uncommit = getattr(space, "uncommit", None)
        if uncommit is not None and cell > 0:
            uncommit(address, cell)
        self.record_degradation(
            "heap",
            f"aliased free-list cell {address:#x} fenced",
            log=f"aliased free-list cell {address:#x} ({cell} bytes) fenced",
        )

    def _try_grow(self) -> bool:
        """Grow the heap toward ``max_heap_bytes``; False when at the limit.

        The OOM-recovery ladder's last rung before :class:`HeapExhausted`:
        emergency full collection and ``sweep_all`` have already run, so a
        1.5× (min one page) growth is the only remaining option.
        """
        limit = self.max_heap_bytes
        if limit is None or self.heap_bytes >= limit:
            return False
        new_total = min(limit, max(self.heap_bytes + 4096, self.heap_bytes * 3 // 2))
        delta = new_total - self.heap_bytes
        if delta <= 0:
            return False
        self._grow_spaces(delta)
        self.heap_bytes = new_total
        self.recovery.heap_growths += 1
        self.record_degradation(
            "heap_grown", f"+{delta} bytes to {new_total}",
            log=f"heap grown by {delta} bytes to {new_total}",
            instant="heap_grown", delta=delta, total=new_total,
        )
        return True

    def _grow_spaces(self, delta: int) -> None:
        """Distribute ``delta`` new bytes across this collector's spaces."""
        raise NotImplementedError

    def _top_retained(self, limit: int = 5) -> list[tuple[str, int]]:
        """Top retained-size entries for OOM triage, via an in-memory snapshot."""
        if self.vm is None:
            return []
        from repro.snapshot.format import HeapSnapshot, ObjectRecord
        from repro.snapshot.retained import top_retained

        heap = self.heap
        objects: dict[int, ObjectRecord] = {}
        for obj in heap.live():
            edges = tuple(
                ref for ref in obj.reference_slots() if ref != NULL and heap.contains(ref)
            )
            objects[obj.address] = ObjectRecord(
                obj.address, obj.cls.name, obj.size_bytes, edges=edges
            )
        roots = [(desc, addr) for desc, addr in self.vm.root_entries() if addr in objects]
        snapshot = HeapSnapshot({"collector": self.name}, roots, objects)
        return [
            (f"{type_name}@{addr:#x}", retained)
            for addr, type_name, retained in top_retained(snapshot, limit=limit)
        ]

    def _oom(self, cls: ClassDescriptor, nbytes: int, reason: str) -> HeapExhausted:
        message = (
            f"{self.name}: cannot allocate {nbytes} bytes for {cls.name} ({reason}); "
            f"heap budget {self.heap_bytes} bytes, "
            f"{self.heap.stats.objects_live} objects live"
        )
        census: dict[str, tuple[int, int]] = {}
        top: list[tuple[str, int]] = []
        try:
            census = self.heap.live_by_class()
            top = self._top_retained()
        except Exception:
            # Triage is best-effort: an OOM report must never be masked by a
            # failure while assembling its own diagnostics.
            pass
        return HeapExhausted(
            message,
            requested_bytes=nbytes,
            type_name=cls.name,
            heap_bytes=self.heap_bytes,
            census=census,
            top_retained=top,
        )

    # -- lazy-sweep surface (all of it a no-op without a sweeper) -------------------------

    def sweep_all(self) -> None:
        """Finish any deferred sweep work so reclamation is exact *now*.

        Readers need not call it: the heap answers liveness under debt.
        It is for callers that need the dead *gone* — freed counters,
        recycled cells, a use-after-free raised — and the mark-sweep
        prologue.
        """
        if self._sweeper is not None:
            self._sweeper.sweep_all()

    def sweep_debt(self) -> int:
        """Unswept chunks outstanding from the last collection (0 = exact)."""
        return self._sweeper.debt if self._sweeper is not None else 0

    # -- introspection -----------------------------------------------------------------

    def bytes_in_use(self) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        return (
            f"{self.name}(heap={self.heap_bytes}B, "
            f"engine={'on' if self.engine else 'off'}, "
            f"paths={'on' if self.track_paths else 'off'})"
        )

    @staticmethod
    def clear_gc_bits(obj: HeapObject) -> None:
        """Reset per-collection header state on a survivor: there is none
        left to reset.  The mark lives in ``heap.marks``, which the next
        :class:`~repro.gc.tracer.Tracer` replaces, and no header bit is
        per-collection.  Kept callable for the benchmark's tracer probe."""
