"""Heap integrity verification.

A debugging/testing aid that walks the entire VM state and checks the
invariants every collector must preserve.  Used by the property-based tests
after random mutation/GC sequences, and available to users as
``verify_heap(vm)`` when debugging collector extensions.

Checked invariants:

* every reference slot holds NULL or the address of a live object;
* every root (static, frame local, handle scope) points at a live object;
* no live object carries the OWNED or FREED bits between collections;
* the mark set (``heap.marks``) is empty unless lazy-sweep debt is
  outstanding, and under debt it names only tabled objects that the trace
  could have seen (``alloc_seq`` not past the sweep cutoff);
* object addresses agree with the heap table and are word aligned;
* space accounting covers at least the live bytes;
* the per-class census counters equal a walk of the heap table;
* assertion-registry addresses (dead sites, unshared sites, owners, ownees)
  all refer to live objects — a stale entry would corrupt checking after
  address reuse;
* region queues only contain live addresses.

With ``paranoid=True`` the walk additionally runs the wellformedness
checks in :mod:`repro.verify.paranoid` (free-list/live disjointness,
orphaned allocator cells, zone-routing agreement, quarantine fencing,
header flag hygiene) — the ``debug.c``-style full-heap walker.

.. warning::
   By default ``verify_heap`` *finishes deferred lazy-sweep work*
   (``collector.sweep_all()``) so exactness invariants are judged against
   an up-to-date heap: that mutates sweep-debt, frees pending garbage,
   and bumps the freed counters.  Pass ``finish_lazy_sweep=False`` for a
   strictly read-only verification (used by the per-GC ``--paranoid``
   hooks and the chaos detection probe); in that mode pending garbage is
   skipped via :meth:`pending_garbage_predicate` and the mark set is
   judged as what the unswept chunks still need, not as leftover state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import HeapCorruption, QuarantineOverflowError
from repro.heap import header as hdr
from repro.heap.layout import NULL, is_aligned

if TYPE_CHECKING:
    from repro.runtime.vm import VirtualMachine


class HeapVerificationError(HeapCorruption):
    """Raised when :func:`verify_heap` finds a broken invariant."""


def _fail(problems: list[str], message: str) -> None:
    problems.append(message)


def mark_set_problems(collector) -> list[str]:
    """The mark set's own invariants, judged from outside a collection.

    With no sweep debt nothing may be marked: eager collections drop the set
    when their sweep ends, lazy ones when the last chunk is swept.  Under
    debt the set is what the unswept chunks are judged by, so every entry
    must name a tabled object the trace could have seen — an address the
    table lost, or one whose occupant was installed after the cutoff, means
    a survivor's cell was freed or a move kept its old key.
    """
    heap = collector.heap
    marks = heap.marks
    if not collector.sweep_debt():
        if marks:
            return [f"mark set holds {len(marks)} address(es) but no sweep debt is outstanding"]
        return []
    problems: list[str] = []
    table = heap.address_table()
    cutoff = collector.sweep_cutoff()
    for address in marks:
        obj = table.get(address)
        if obj is None:
            problems.append(f"mark set: {address:#x} is marked but not in the heap table")
        elif obj.alloc_seq > cutoff:
            problems.append(
                f"mark set: {obj!r} is marked but was installed after the trace "
                f"(alloc_seq {obj.alloc_seq} > cutoff {cutoff})"
            )
    return problems


def verify_heap(
    vm: "VirtualMachine",
    raise_on_error: bool = True,
    *,
    finish_lazy_sweep: bool = True,
    paranoid: bool = False,
) -> list[str]:
    """Verify all heap/VM invariants; returns the list of problems found.

    ``finish_lazy_sweep=True`` (the default) repays outstanding lazy-sweep
    debt first — a documented **mutation** of collector state (see the
    module docstring).  ``finish_lazy_sweep=False`` verifies read-only,
    skipping pending garbage.  ``paranoid=True`` appends the
    allocator-structure wellformedness walk from
    :mod:`repro.verify.paranoid`.
    """
    problems: list[str] = []
    heap = vm.heap

    pending = None
    if finish_lazy_sweep:
        # Lazy sweep modes defer reclamation; finish it so the invariants
        # below (empty mark set, registry liveness, accounting) are judged
        # against an exact heap.
        vm.collector.sweep_all()
    elif vm.collector.sweep_debt() > 0:
        pending = vm.collector.pending_garbage_predicate()
    problems.extend(mark_set_problems(vm.collector))

    # -- object table and headers ------------------------------------------------
    for obj in heap:
        if pending is not None and pending(obj):
            continue  # dead-but-unswept: exempt from the exactness checks
        if not is_aligned(obj.address):
            _fail(problems, f"{obj!r}: unaligned address")
        if heap.maybe(obj.address) is not obj:
            _fail(problems, f"{obj!r}: table entry mismatch")
        if obj.status & hdr.FREED_BIT:
            _fail(problems, f"{obj!r}: live object carries FREED bit")
        if obj.status & hdr.OWNED_BIT:
            _fail(problems, f"{obj!r}: OWNED bit set outside a collection")
        for ref in obj.reference_slots():
            if ref != NULL and not heap.contains(ref):
                _fail(problems, f"{obj!r}: dangling reference {ref:#x}")
        for idx in obj.weak_slot_indices():
            weak = obj.slots[idx]
            if weak != NULL and not heap.contains(weak):
                _fail(problems, f"{obj!r}: dangling weak reference {weak:#x}")

    # -- roots ----------------------------------------------------------------------
    for description, address in vm.root_entries():
        if not heap.contains(address):
            _fail(problems, f"root {description}: dangling address {address:#x}")

    # -- region queues ----------------------------------------------------------------
    for thread in vm.threads:
        for address in thread.region_queue:
            if not heap.contains(address):
                _fail(
                    problems,
                    f"thread {thread.name!r}: region queue holds dead {address:#x}",
                )

    # -- space accounting --------------------------------------------------------------
    live_bytes = heap.live_bytes()
    in_use = vm.collector.bytes_in_use()
    if in_use < live_bytes:
        _fail(
            problems,
            f"space accounting: {in_use} bytes in use < {live_bytes} live bytes",
        )

    # -- per-class census counters ---------------------------------------------------------
    # Kept on install/evict; pending garbage is tabled and counted alike, so
    # counters and walk agree with or without sweep debt.
    counted, walked = heap.live_by_class(), heap.live_by_class_slow()
    if counted != walked:
        _fail(problems, f"census counters drifted: counted {counted}, table walk {walked}")

    # -- assertion registry ---------------------------------------------------------------
    engine = vm.engine
    if engine is not None:
        registry = engine.registry
        for address in registry.dead_sites:
            if not heap.contains(address):
                _fail(problems, f"registry: dead site for dead address {address:#x}")
        for address in registry.unshared_sites:
            if not heap.contains(address):
                _fail(problems, f"registry: unshared site for dead address {address:#x}")
        for owner_address, record in registry.owners.items():
            if not heap.contains(owner_address):
                _fail(problems, f"registry: owner record for dead {owner_address:#x}")
            if record.ownees != sorted(record.ownees):
                _fail(problems, f"registry: ownee array unsorted for {owner_address:#x}")
            for ownee_address in record.ownees:
                if not heap.contains(ownee_address):
                    _fail(
                        problems,
                        f"registry: ownee {ownee_address:#x} of {owner_address:#x} is dead",
                    )
                if registry.ownee_owner.get(ownee_address) != owner_address:
                    _fail(
                        problems,
                        f"registry: reverse index disagrees for {ownee_address:#x}",
                    )
        for ownee_address, owner_address in registry.ownee_owner.items():
            record = registry.owners.get(owner_address)
            if record is None or not record.contains(ownee_address)[0]:
                _fail(
                    problems,
                    f"registry: ownee_owner entry {ownee_address:#x} not in owner record",
                )

    # -- paranoid allocator-structure walk ------------------------------------------------
    if paranoid:
        from repro.verify.paranoid import paranoid_problems

        problems.extend(paranoid_problems(vm))

    if problems and raise_on_error:
        raise HeapVerificationError(
            f"{len(problems)} heap invariant violation(s):\n  " + "\n  ".join(problems),
            problems=problems,
        )
    return problems


#: Default bound on the corruption quarantine.  Each fenced address leaks
#: its backing cell on purpose; 1024 of them is far beyond what any seeded
#: chaos schedule produces, so reaching it means unrecoverable degradation.
DEFAULT_QUARANTINE_CAPACITY = 1024


class Quarantine:
    """Fence for addresses the sentinel has declared corrupt.

    A fenced address is dead to the allocator: its table entry is evicted,
    its free-list cell (if any) is withheld from reuse, and later sweeps
    skip it.  The backing cell is deliberately leaked — reusing memory the
    collector no longer trusts is how a recoverable fault becomes silent
    corruption.

    Capacity is bounded: the quarantine trades cells for integrity, and an
    unbounded fence set under a sustained corruption storm is itself a
    leak.  :meth:`fence` raises :class:`QuarantineOverflowError` once
    ``capacity`` addresses are held.
    """

    __slots__ = ("fenced", "capacity")

    def __init__(self, capacity: int = DEFAULT_QUARANTINE_CAPACITY) -> None:
        self.fenced: set[int] = set()
        self.capacity = capacity

    def fence(self, address: int) -> bool:
        """Fence an address; returns False if it was already fenced.

        Raises :class:`QuarantineOverflowError` when the bounded capacity
        is exhausted — containment has failed and the heap should be
        considered lost, not repaired further.
        """
        if address in self.fenced:
            return False
        if len(self.fenced) >= self.capacity:
            raise QuarantineOverflowError(
                f"quarantine overflow: {self.capacity} addresses already "
                f"fenced; refusing {address:#x}",
                problems=[f"quarantine at capacity ({self.capacity})"],
                fenced=self.fenced,
            )
        self.fenced.add(address)
        return True

    @property
    def remaining(self) -> int:
        return self.capacity - len(self.fenced)

    def __contains__(self, address: int) -> bool:
        return address in self.fenced

    def __len__(self) -> int:
        return len(self.fenced)


class SentinelReport:
    """What one sentinel scan found and repaired."""

    __slots__ = (
        "phase",
        "problems",
        "objects_quarantined",
        "refs_fenced",
        "roots_fenced",
        "stale_bits_cleared",
        "registry_scrubbed",
        "freelist_scrubbed",
    )

    def __init__(self, phase: str):
        self.phase = phase
        self.problems: list[str] = []
        self.objects_quarantined = 0
        self.refs_fenced = 0
        self.roots_fenced = 0
        self.stale_bits_cleared = 0
        self.registry_scrubbed = 0
        self.freelist_scrubbed = 0

    @property
    def clean(self) -> bool:
        return not self.problems

    def repairs(self) -> int:
        return (
            self.objects_quarantined
            + self.refs_fenced
            + self.roots_fenced
            + self.stale_bits_cleared
            + self.registry_scrubbed
            + self.freelist_scrubbed
        )

    def render(self) -> str:
        head = f"sentinel[{self.phase}]: {len(self.problems)} problem(s), {self.repairs()} repair(s)"
        return head + "".join(f"\n  {p}" for p in self.problems)


def run_sentinel(
    vm: "VirtualMachine",
    quarantine: Quarantine,
    *,
    phase: str = "pre-gc",
    expect_clear_bits: bool = True,
    scrub_freelists: bool = False,
) -> SentinelReport:
    """Repair scan behind the hardened collectors' pre/post-GC sentinel.

    Unlike :func:`verify_heap` (detect and raise), this *fixes* what it can:
    freed-bit zombies are evicted and fenced, stale OWNED bits cleared and a
    leftover mark set dropped, dangling strong/weak slots and roots nulled,
    region queues purged, and assertion-registry entries for vanished
    addresses scrubbed.  The caller is responsible for only asking for
    ``expect_clear_bits`` when lazy sweep debt has been repaid (until then
    the mark set is what keeps unswept survivors alive).

    ``scrub_freelists=True`` (enabled when the collector runs paranoid)
    adds a fifth pass over the allocator structures themselves: free-list
    cells that alias live objects or fenced addresses are withheld and
    fenced, and orphan bump-space records with no table entry are dropped
    — so the paranoid walker that follows validates a repaired heap.
    """
    report = SentinelReport(phase)
    heap = vm.heap

    if expect_clear_bits and heap.marks:
        report.problems.append(
            f"mark set holds {len(heap.marks)} address(es) outside a collection"
        )
        heap.new_marks()
        report.stale_bits_cleared += 1

    # Pass 1: headers + zombies.  Snapshot the table first — eviction mutates it.
    zombies = []
    for obj in list(heap):
        if obj.status & hdr.FREED_BIT:
            report.problems.append(f"{obj!r}: freed object still in address table")
            zombies.append(obj)
            continue
        if expect_clear_bits and obj.status & hdr.OWNED_BIT:
            report.problems.append(f"{obj!r}: stale OWNED bit outside a collection")
            obj.clear(hdr.OWNED_BIT)
            report.stale_bits_cleared += 1
    for obj in zombies:
        address = obj.address
        heap.evict(obj)
        if quarantine.fence(address):
            report.objects_quarantined += 1

    # Pass 2: dangling strong/weak slots (after zombie eviction so references
    # into an evicted zombie are fenced too).
    table = heap.address_table()
    for obj in heap:
        slots = obj.slots
        cls = obj.cls
        if not cls.is_array:
            strong = cls.ref_slots
        elif cls.ref_array:
            strong = range(len(slots))
        else:
            strong = ()
        for idx in strong:
            ref = slots[idx]
            if ref != NULL and ref not in table:
                report.problems.append(f"{obj!r}: dangling reference {ref:#x} nulled")
                slots[idx] = NULL
                report.refs_fenced += 1
        if cls.has_weak:
            for idx in obj.weak_slot_indices():
                weak = slots[idx]
                if weak != NULL and weak not in table:
                    report.problems.append(f"{obj!r}: dangling weak reference {weak:#x} nulled")
                    slots[idx] = NULL
                    report.refs_fenced += 1

    # Pass 3: roots and region queues.
    dangling_roots: set[int] = set()
    for description, address in vm.root_entries():
        if not heap.contains(address):
            report.problems.append(f"root {description}: dangling address {address:#x} nulled")
            dangling_roots.add(address)
    if dangling_roots:
        vm.null_roots(dangling_roots)
        report.roots_fenced += len(dangling_roots)
    for thread in vm.threads:
        stale = [a for a in thread.region_queue if not heap.contains(a)]
        if stale:
            report.problems.append(
                f"thread {thread.name!r}: region queue held {len(stale)} dead address(es)"
            )
            thread.purge_freed(set(stale))

    # Pass 4: assertion-registry scrub — a stale entry corrupts checking after
    # address reuse, so entries for vanished addresses are dropped outright.
    engine = vm.engine
    if engine is not None:
        registry = engine.registry
        for address in [a for a in registry.dead_sites if not heap.contains(a)]:
            report.problems.append(f"registry: dead site for vanished {address:#x} scrubbed")
            del registry.dead_sites[address]
            report.registry_scrubbed += 1
        for address in [a for a in registry.unshared_sites if not heap.contains(a)]:
            report.problems.append(f"registry: unshared site for vanished {address:#x} scrubbed")
            del registry.unshared_sites[address]
            report.registry_scrubbed += 1
        for owner_address in [a for a in registry.owners if not heap.contains(a)]:
            report.problems.append(f"registry: owner record for vanished {owner_address:#x} scrubbed")
            registry.drop_owner(owner_address)
            report.registry_scrubbed += 1
        dead_ownees = [a for a in registry.ownee_owner if not heap.contains(a)]
        for ownee_address in dead_ownees:
            owner_address = registry.ownee_owner.pop(ownee_address)
            record = registry.owners.get(owner_address)
            if record is not None:
                record.remove(ownee_address)
            report.problems.append(f"registry: vanished ownee {ownee_address:#x} scrubbed")
            report.registry_scrubbed += 1

    # Pass 5 (opt-in): allocator free structures.  A free-list cell that
    # aliases a live object would hand that object's memory to the next
    # allocation; a phantom bump record charges bytes for a cell no object
    # owns.  Both are withheld/fenced rather than reused.
    if scrub_freelists:
        from repro.verify.paranoid import iter_spaces

        for name, space in iter_spaces(vm.collector):
            free_list = getattr(space, "free_list", None)
            if free_list is not None:
                for cell_bytes, cells in list(free_list._cells.items()):
                    keep = []
                    for address in cells:
                        if heap.contains(address) or address in quarantine:
                            report.problems.append(
                                f"{name}: free cell {address:#x} ({cell_bytes}B) "
                                "aliases a live or fenced address; withheld"
                            )
                            free_list.free_bytes -= cell_bytes
                            quarantine.fence(address)
                            report.freelist_scrubbed += 1
                        else:
                            keep.append(address)
                    if len(keep) != len(cells):
                        if keep:
                            free_list._cells[cell_bytes] = keep
                        else:
                            del free_list._cells[cell_bytes]
            allocated = getattr(space, "_allocated", None)
            if allocated is not None:
                orphans = [
                    a for a in allocated
                    if not heap.contains(a) and a not in quarantine
                ]
                for address in orphans:
                    nbytes = allocated.pop(address)
                    space.bytes_in_use -= nbytes
                    quarantine.fence(address)
                    report.problems.append(
                        f"{name}: orphan bump cell {address:#x} ({nbytes}B) scrubbed"
                    )
                    report.freelist_scrubbed += 1

    return report
