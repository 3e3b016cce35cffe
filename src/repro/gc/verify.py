"""The heap invariant catalogue, and the three ways of reading it.

Every invariant the collectors must preserve is declared once, in
:data:`CATALOGUE`: its name, its tier, the one function that finds a
breach, and what the hardened sentinel does about one (``None`` = detect
only).  A find function mutates nothing.  Of a detect-only entry it yields
a message per breach; of a repairing one ``(message, counter, repair)``:
a zero-argument callable and the
:class:`~repro.gc.stats.RecoveryStats` field it counts on.

Two tiers.  ``GRAPH`` is the object graph and everything keyed by its
addresses: table, headers and the mark set, slots, roots, region queues,
the assertion registry, the counters.  ``ALLOCATOR`` is the ``debug.c``
school: the allocator's own books (free lists, chunk tables, bump records,
zone routing) against the table.

The readers: :func:`verify_heap` lists the graph tier's findings (with
``paranoid=True``, both tiers') and raises; :func:`run_sentinel` runs the
same find functions — of the entries that declare a repair — and mends what
they find; :func:`repro.verify.paranoid.paranoid_problems` is the allocator
tier; the chaos probe and the fault → invariant matrix read
:func:`heap_findings` and go by the invariant's name.  At which points of
a pause they run is :meth:`repro.gc.base.Collector.collect`'s business.

Every reader is read-only, under lazy-sweep debt too: the graph tier holds
the heap's live view (:meth:`~repro.heap.heap.ObjectHeap.live`) to
exactness, so pending garbage is not judged, and the mark set is judged as
what the unswept chunks still need.  A caller that wants the dead gone
first calls ``collector.sweep_all()``.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional, Tuple

from repro.errors import HeapCorruption, QuarantineOverflowError
from repro.heap import header as hdr
from repro.heap.layout import NULL, is_aligned

if TYPE_CHECKING:
    from repro.gc.base import Collector
    from repro.runtime.vm import VirtualMachine


class HeapVerificationError(HeapCorruption):
    """Raised when :func:`verify_heap` finds a broken invariant."""


#: Default bound on the corruption quarantine.  Each fenced address leaks
#: its backing cell on purpose; 1024 of them is far beyond what any seeded
#: chaos schedule produces, so reaching it means unrecoverable degradation.
DEFAULT_QUARANTINE_CAPACITY = 1024


class Quarantine:
    """Fence for addresses the sentinel has declared corrupt.

    A fenced address is dead to the allocator: its table entry is evicted,
    its free-list cell (if any) is withheld from reuse, and the chunk sweep
    (:meth:`repro.gc.lazysweep.ChunkSweeper._sweep_chunk`) never hands it
    back when an occupant there dies.  The backing cell is deliberately
    leaked — reusing memory the collector no longer trusts is how a
    recoverable fault becomes silent corruption.

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


# -- the catalogue's vocabulary ------------------------------------------------------------

GRAPH = "graph"
ALLOCATOR = "allocator"
BOTH_TIERS = (GRAPH, ALLOCATOR)


class Finding(NamedTuple):
    """One breach: which declared invariant, what was seen, how to mend it."""

    invariant: str
    message: str
    #: The :class:`~repro.gc.stats.RecoveryStats` field a repair counts on
    #: (None: uncounted).
    counter: Optional[str] = None
    repair: Optional[Callable[[], object]] = None


class Invariant(NamedTuple):
    """One catalogue entry."""

    name: str
    tier: str
    #: ``find(scan)`` yields one item per breach (see the module docstring).
    find: Callable
    #: What the sentinel does about a breach; ``None`` is "detect only".
    repair: Optional[str]


class _Scan:
    """One VM at one instant, as every find function reads it."""

    __slots__ = ("vm", "collector", "heap", "table", "quarantine", "registry", "objects")

    def __init__(self, vm: "VirtualMachine"):
        self.vm = vm
        self.collector = vm.collector
        self.heap = vm.heap
        self.table = vm.heap.address_table()
        self.quarantine = vm.collector.quarantine
        self.registry = getattr(vm.engine, "registry", None)
        #: The objects held to exactness: the live ones.
        self.objects = vm.heap.live()


#: Collector attributes that may hold an allocation space.
_SPACE_ATTRS = ("space", "nursery", "mature", "from_space", "to_space")


def iter_spaces(collector: "Collector") -> Iterator[Tuple[str, object]]:
    """Yield ``(name, space)`` for every space the collector owns.

    A zone-sharded space yields its facade (the shared budget and the zone
    map; it has ``shards``) and then the per-zone shards, which hold the
    actual free lists and chunk tables.
    """
    for attr in _SPACE_ATTRS:
        space = getattr(collector, attr, None)
        if space is not None:
            yield attr, space
            for zone, shard in enumerate(getattr(space, "shards", None) or ()):
                yield f"{attr}/z{zone}", shard


# -- graph tier ----------------------------------------------------------------------------


def _find_table_breaches(scan: _Scan):
    maybe = scan.heap.maybe
    for obj in scan.objects:
        if not is_aligned(obj.address):
            yield f"{obj!r}: unaligned address"
        if maybe(obj.address) is not obj:
            yield f"{obj!r}: table entry mismatch"


def mark_set_problems(collector: "Collector") -> Iterator[str]:
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
            yield f"mark set holds {len(marks)} address(es) but no sweep debt is outstanding"
        return
    table = heap.address_table()
    cutoff = heap.sweep_cutoff
    for address in marks:
        obj = table.get(address)
        if obj is None:
            yield f"mark set: {address:#x} is marked but not in the heap table"
        elif obj.alloc_seq > cutoff:
            yield (
                f"mark set: {obj!r} is marked but was installed after the trace "
                f"(alloc_seq {obj.alloc_seq} > cutoff {cutoff})"
            )


def _find_stale_collection_state(scan: _Scan):
    heap = scan.heap
    # Under debt the set is live state: judged, never dropped.
    drop = None if scan.collector.sweep_debt() else heap.new_marks
    for message in mark_set_problems(scan.collector):
        yield message, "stale_bits_cleared", drop
    for obj in scan.objects:
        if obj.status & hdr.FREED_BIT:
            evict = partial(_then_fence, scan, obj.address, partial(heap.evict, obj))
            yield f"{obj!r}: live object carries FREED bit", "objects_quarantined", evict


def _then_fence(scan: _Scan, address: int, withdraw: Callable[[], object]) -> None:
    """Take an address out of circulation, then fence it: never reused."""
    withdraw()
    scan.quarantine.fence(address)


def _find_dangling_references(scan: _Scan):
    table = scan.table
    for obj in scan.objects:
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
                null = partial(slots.__setitem__, idx, NULL)
                yield f"{obj!r}: dangling reference {ref:#x}", "refs_fenced", null
        if cls.has_weak:
            for idx in obj.weak_slot_indices():
                weak = slots[idx]
                if weak != NULL and weak not in table:
                    null = partial(slots.__setitem__, idx, NULL)
                    yield f"{obj!r}: dangling weak reference {weak:#x}", "refs_fenced", null
    # One finding per dangling address, naming every root that holds it.
    holders: dict[int, list[str]] = {}
    for description, address in scan.vm.root_entries():
        if address not in table:
            holders.setdefault(address, []).append(description)
    for address, descriptions in holders.items():
        null = partial(scan.vm.null_roots, {address})
        yield f"root {', '.join(descriptions)}: dangling address {address:#x}", "refs_fenced", null
    for thread in scan.vm.threads:
        stale = {a for a in thread.region_queue if a not in table}
        if stale:
            dead = ", ".join(f"{a:#x}" for a in sorted(stale))
            purge = partial(thread.purge_freed, stale)  # counted on no field, as ever
            yield f"thread {thread.name!r}: region queue holds dead {dead}", None, purge


def _find_dead_registry_keys(scan: _Scan):
    # A stale entry corrupts checking once its address is reused.
    registry = scan.registry
    if registry is None:
        return
    table = scan.table
    counter = "registry_scrubbed"
    for what, sites in (("dead", registry.dead_sites), ("unshared", registry.unshared_sites)):
        for address in sites:
            if address not in table:
                scrub = partial(sites.pop, address)
                yield f"registry: {what} site for dead address {address:#x}", counter, scrub
    owner_deaths = partial(scan.vm.engine.process_owner_deaths, scan.collector)
    for owner in registry.owners:
        if owner not in table:
            # Mended by the engine's own owner-death path: the record goes
            # *and* the surviving ownees lose OWNEE — a bit left behind reads
            # as "unowned ownee" at every later collection.
            died = partial(owner_deaths, [owner])
            yield f"registry: owner record for dead {owner:#x}", counter, died
    for ownee, owner in registry.ownee_owner.items():
        if ownee not in table:
            scrub = partial(_scrub_ownee, registry, ownee)
            yield f"registry: ownee {ownee:#x} of {owner:#x} is dead", counter, scrub


def _scrub_ownee(registry, ownee_address: int) -> None:
    # Absent if it went with its owner's record, a repair earlier in this scan.
    record = registry.owners.get(registry.ownee_owner.pop(ownee_address, None))
    if record is not None:
        record.remove(ownee_address)


def _find_registry_index_breaches(scan: _Scan):
    registry = scan.registry
    if registry is None:
        return
    for owner_address, record in registry.owners.items():
        if record.ownees != sorted(record.ownees):
            yield f"registry: ownee array unsorted for {owner_address:#x}"
        for ownee_address in record.ownees:
            if registry.ownee_owner.get(ownee_address) != owner_address:
                yield f"registry: reverse index disagrees for {ownee_address:#x}"
    for ownee_address, owner_address in registry.ownee_owner.items():
        record = registry.owners.get(owner_address)
        if record is None or not record.contains(ownee_address)[0]:
            yield f"registry: ownee_owner entry {ownee_address:#x} not in owner record"


def _find_ownership_bit_disagreement(scan: _Scan):
    # DEAD and UNSHARED are deliberately not held to this: a bit without a
    # site is how the injector's flip-dead/flip-unshared mark their victims.
    registry = scan.registry
    table = scan.table
    for name, bit, keys in (
        ("OWNEE", hdr.OWNEE_BIT, registry.ownee_owner if registry is not None else {}),
        ("OWNER", hdr.OWNER_BIT, registry.owners if registry is not None else {}),
    ):
        for obj in scan.objects:
            if obj.status & bit and obj.address not in keys:
                yield f"{obj!r}: {name} bit set without a registry entry"
        for address in keys:
            obj = table.get(address)  # a dead key is registry-liveness's finding
            if obj is not None and not obj.status & bit:
                yield f"{obj!r}: registry entry without the {name} bit"


def _find_accounting_drift(scan: _Scan):
    # Pending garbage is tabled and counted alike, so debt changes nothing for
    # bytes and objects; the census counters are read, and so held to the
    # walk, only while no sweep is owed.
    heap = scan.heap
    live_bytes = heap.live_bytes()
    in_use = scan.collector.bytes_in_use()
    if in_use < live_bytes:
        yield f"space accounting: {in_use} bytes in use < {live_bytes} live bytes"
    for what, counted, walked in (
        ("byte accounting", live_bytes, heap.live_bytes_slow()),
        ("census counters", heap.live_by_class(), heap.live_by_class_slow()),
        ("live-object counter", heap.stats.objects_live, len(scan.table)),
    ):
        if counted != walked:
            yield f"{what} drifted: counted {counted}, table walk {walked}"


# -- allocator tier -----------------------------------------------------------------------


def _free_cells(scan: _Scan):
    """Every free-list bucket: ``(space name, free list, cell size, addresses)``."""
    for name, space in iter_spaces(scan.collector):
        free_list = getattr(space, "free_list", None)
        if free_list is not None:
            for cell_bytes, cells in free_list._cells.items():
                yield name, free_list, cell_bytes, cells


def _find_aliased_cells(scan: _Scan):
    # A free cell that aliases a live object hands that object's memory to
    # the next allocation; a phantom bump record charges bytes nobody owns.
    table = scan.table
    quarantine = scan.quarantine
    counter = "cells_fenced"
    for name, free_list, cell_bytes, cells in _free_cells(scan):
        for address in cells:
            if address in table:
                cell = f"free cell {address:#x} ({cell_bytes}B)"
                withhold = partial(free_list.withhold, address, cell_bytes)
                fence = partial(_then_fence, scan, address, withhold)
                yield f"paranoid {name}: {cell} aliases a live object", counter, fence
    for name, space in iter_spaces(scan.collector):
        for address, nbytes in (getattr(space, "_allocated", None) or {}).items():
            if address not in table and address not in quarantine:
                cell = f"orphan bump cell {address:#x} ({nbytes}B) has no table entry"
                fence = partial(_then_fence, scan, address, partial(space.release, address))
                yield f"paranoid {name}: {cell} and is not fenced", counter, fence


def _find_fenced_free_cells(scan: _Scan):
    fenced = scan.quarantine.fenced
    if not fenced:
        return
    for name, free_list, cell_bytes, cells in _free_cells(scan):
        for address in cells:
            if address in fenced:
                yield (
                    f"paranoid {name}: fenced address {address:#x} "
                    "is available for reuse on the free list",
                    "cells_fenced",
                    partial(free_list.withhold, address, cell_bytes),
                )


def _find_unsound_cells(scan: _Scan):
    table = scan.table
    quarantine = scan.quarantine
    for name, _free_list, _cell_bytes, cells in _free_cells(scan):
        for address in cells:
            if not is_aligned(address):
                yield f"paranoid {name}: unaligned free cell {address:#x}"
    for name, space in iter_spaces(scan.collector):
        for cells in (getattr(space, "_chunks", None) or {}).values():
            for address in cells:
                if address not in table and address not in quarantine:
                    yield (
                        f"paranoid {name}: committed cell {address:#x} "
                        "has no table entry and is not fenced"
                    )


def _find_zone_misrouting(scan: _Scan):
    for name, facade in iter_spaces(scan.collector):
        zone_of = getattr(facade, "zone_of", None)
        for zone, shard in enumerate(getattr(facade, "shards", None) or ()):
            for what, buckets in (("cell", shard._chunks), ("free cell", shard.free_list._cells)):
                for cells in buckets.values():
                    for address in cells:
                        if zone_of(address) != zone:
                            yield (
                                f"paranoid {name}: {what} {address:#x} held by zone "
                                f"{zone} but routes to zone {zone_of(address)}"
                            )


#: Every heap invariant, once, in the order the sentinel mends them: zombies
#: are evicted before reference closure is judged, so a slot that pointed
#: into one is fenced by the same scan.  DESIGN.md ("Verified invariants")
#: prints this table; ``tests/test_invariant_catalogue.py`` compares the two.
CATALOGUE: Tuple[Invariant, ...] = (
    Invariant("table-integrity", GRAPH, _find_table_breaches, None),
    Invariant(
        "header-hygiene", GRAPH, _find_stale_collection_state,
        "drop a leftover mark set, evict and fence a FREED zombie",
    ),
    Invariant(
        "reference-closure", GRAPH, _find_dangling_references,
        "null the slot or root, purge the region queue",
    ),
    Invariant(
        "registry-liveness", GRAPH, _find_dead_registry_keys,
        "scrub the entry; a vanished owner takes the engine's owner-death path",
    ),
    Invariant("registry-index-agreement", GRAPH, _find_registry_index_breaches, None),
    Invariant("ownership-bit-agreement", GRAPH, _find_ownership_bit_disagreement, None),
    Invariant("accounting-agreement", GRAPH, _find_accounting_drift, None),
    Invariant(
        "freelist-live-disjointness", ALLOCATOR, _find_aliased_cells,
        "withhold the free cell or drop the bump record, and fence the address",
    ),
    Invariant("freelist-fencing", ALLOCATOR, _find_fenced_free_cells, "withhold the free cell"),
    Invariant("allocator-cell-sanity", ALLOCATOR, _find_unsound_cells, None),
    Invariant("zone-routing-agreement", ALLOCATOR, _find_zone_misrouting, None),
)


# -- the readers ---------------------------------------------------------------------------


def _findings(scan: _Scan, tiers: Tuple[str, ...], repairable_only: bool = False):
    for entry in CATALOGUE:
        if entry.tier not in tiers:
            continue
        # Collected per entry before the caller mends anything: a repair
        # evicts, deletes and nulls in the structures ``find`` iterates.
        if entry.repair is not None:
            yield from [Finding(entry.name, *found) for found in entry.find(scan)]
        elif not repairable_only:
            yield from [Finding(entry.name, message) for message in entry.find(scan)]


def heap_findings(vm: "VirtualMachine", tiers: Tuple[str, ...] = (GRAPH,)) -> list[Finding]:
    """Every breach of the catalogue's ``tiers``, under its invariant's name."""
    return list(_findings(_Scan(vm), tiers))


def verify_heap(
    vm: "VirtualMachine",
    raise_on_error: bool = True,
    *,
    paranoid: bool = False,
) -> list[str]:
    """The graph tier's problems (``paranoid=True``: and the allocator
    tier's); raises if there are any and ``raise_on_error``."""
    tiers = BOTH_TIERS if paranoid else (GRAPH,)
    found = heap_findings(vm, tiers)
    problems = [finding.message for finding in found]
    if problems and raise_on_error:
        raise HeapVerificationError(
            f"{len(problems)} heap invariant violation(s):\n  " + "\n  ".join(problems),
            problems=problems,
        )
    return problems


def run_sentinel(vm: "VirtualMachine", *, scrub_freelists: bool = False) -> list[str]:
    """Repair scan behind the hardened collectors' pre-GC sentinel; returns
    the problems it found.

    Unlike :func:`verify_heap` (detect and raise), this *fixes* what it can:
    every entry that declares a repair is searched for and mended, entry by
    entry in catalogue order, and each repair is counted on the collector's
    ``recovery`` field its finding names; detect-only entries are not
    walked.  Callers run it only with no sweep debt outstanding (until then
    the mark set keeps unswept survivors alive, and the dead sit in the
    table).  ``scrub_freelists=True`` (a paranoid collector) adds the
    allocator tier, so the paranoid walk that follows validates a repaired
    heap.
    """
    recovery = vm.collector.recovery
    tiers = BOTH_TIERS if scrub_freelists else (GRAPH,)
    problems = []
    for finding in _findings(_Scan(vm), tiers, repairable_only=True):
        problems.append(finding.message)
        if finding.repair is not None:
            finding.repair()
            if finding.counter is not None:
                setattr(recovery, finding.counter, getattr(recovery, finding.counter) + 1)
    return problems
