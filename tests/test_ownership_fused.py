"""The fused ownership phase against its reference oracle.

``repro.core.ownership.run_ownership_phase`` is one table-direct loop with
the header checks inlined and the ownee lookup done by one dict probe that
also yields the binary search's probe count.  ``tests/reference_ownership.py``
is the closure implementation it replaced, kept verbatim.  Every test here
builds the same heap in twin VMs, runs one implementation on each, and
demands identical marks, counters, budget accounting and verdicts.

The oracle still sets the paper's transient ``OWNED`` bit on every ownee it
reaches from its own owner and logs it with the engine; the fused loop
writes neither, because its mark already says so.  The header words are
therefore compared with ``OWNED`` masked out, and the ``owned`` entry is the
proof the bit was redundant: the oracle's log and the fused loop's *marked
ownees* must be the same set on every heap.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ownership import run_ownership_phase
from repro.core.registry import OwnerRecord, probe_depths
from repro.core.reporting import AssertionKind
from repro.errors import HeapError, InvalidAddressError, UseAfterFreeError
from repro.gc.stats import GcStats
from repro.gc.verify import verify_heap
from repro.heap import header as hdr
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine

from tests.conftest import ALL_COLLECTORS
from tests.reference_ownership import reference_ownership_phase
from tests.test_faults import SWEEP_CELLS

MAX_OBJECTS = 14
KINDS = ("node", "limited", "array")
BUDGETS = (None, 1, 3, 50)


# -- heap specs ------------------------------------------------------------------------


@st.composite
def heap_specs(draw):
    """A small heap as plain data, so twin VMs can be built from it."""
    n = draw(st.integers(3, MAX_OBJECTS))
    index = st.integers(0, n - 1)
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n, max_size=n))
    # Up to four reference slots per object; arrays use all of them (null
    # and repeated elements included), nodes the first two, limited one.
    slots = draw(
        st.lists(
            st.lists(st.one_of(st.none(), index), min_size=4, max_size=4),
            min_size=n,
            max_size=n,
        )
    )
    owners = draw(st.lists(index, min_size=1, max_size=6, unique=True))
    # Each object is owned by at most one owner (the registry enforces
    # disjoint *registrations*); the regions themselves overlap freely, an
    # owner may sit inside another region or be someone else's ownee, and
    # any edge may point back at the current owner.
    owned_by = draw(
        st.lists(st.one_of(st.none(), st.sampled_from(owners)), min_size=n, max_size=n)
    )
    return {
        "kinds": kinds,
        "slots": slots,
        "owners": owners,
        "owned_by": owned_by,
        "roots": draw(st.sets(index)),
        "dead": draw(st.sets(index)),
        "unshared": draw(st.sets(index)),
        "limit": draw(st.integers(0, 3)),
        "budget": draw(st.sampled_from(BUDGETS)),
    }


def build(spec, collector: str = "marksweep") -> VirtualMachine:
    """Build ``spec`` in a fresh VM (same spec, same addresses)."""
    vm = VirtualMachine(heap_bytes=1 << 20, collector=collector)
    node = vm.define_class(
        "FNode", [("a", FieldKind.REF), ("b", FieldKind.REF), ("n", FieldKind.INT)]
    )
    limited = vm.define_class("FLimited", [("a", FieldKind.REF)])
    fields = {"node": ("a", "b"), "limited": ("a",)}
    with vm.scope("ownership-fused"):
        handles = []
        for kind in spec["kinds"]:
            if kind == "array":
                handles.append(vm.new_array(node, 4))
            else:
                handles.append(vm.new(node if kind == "node" else limited))
        for handle, kind, targets in zip(handles, spec["kinds"], spec["slots"]):
            keys = range(4) if kind == "array" else fields[kind]
            for key, target in zip(keys, targets):
                if target is not None:
                    handle[key] = handles[target]
        for i in sorted(spec["roots"]):
            vm.statics.set_ref(f"root{i}", handles[i].address)
        for ownee, owner in enumerate(spec["owned_by"]):
            if owner is not None and owner != ownee:
                vm.assertions.assert_ownedby(handles[owner], handles[ownee])
        for i in sorted(spec["dead"]):
            vm.assertions.assert_dead(handles[i], site=f"dead{i}")
        for i in sorted(spec["unshared"]):
            vm.assertions.assert_unshared(handles[i], site=f"unshared{i}")
        vm.assertions.assert_instances(limited, spec["limit"])
    vm.engine.check_budget = spec["budget"]
    return vm


def use_reference(vm: VirtualMachine) -> VirtualMachine:
    """Route this VM's two-phase ``pre_mark`` through the oracle."""
    engine = vm.engine

    def pre_mark(collector, tracer):
        if engine.registry.owners:
            reference_ownership_phase(engine, collector)

    engine.pre_mark = pre_mark
    return vm


# -- what must be identical ------------------------------------------------------------


def counters(vm) -> dict:
    return {f: getattr(vm.collector.stats, f) for f in GcStats.COUNTER_FIELDS}


def violation_key(v) -> tuple:
    return (v.kind, v.address, v.message, v.site, v.gc_number, v.reaction, v.details)


NOT_OWNED = ~hdr.OWNED_BIT


def owned_ownees(vm, reference: bool) -> set:
    """The ownees phase 1 reached from their own owner: the oracle's
    ``OWNED`` log, or — the fused loop keeps none — every marked ownee."""
    if reference:
        return {o.address for o in vm.engine._owned}
    table = vm.heap.address_table()
    return {a for a in vm.heap.marks if table[a].status & hdr.OWNEE_BIT}


def phase_state(vm, reference: bool) -> dict:
    """Everything ``pre_mark`` leaves behind; call it right after the phase."""
    engine = vm.engine
    return {
        "bits": {o.address: o.status & NOT_OWNED for o in vm.heap},
        "marks": sorted(vm.heap.marks),
        "owned": owned_ownees(vm, reference),
        "counters": counters(vm),
        "checks": engine._checks_this_gc,
        "degraded": [(e.phase, e.gc_number, str(e)) for e in engine.degraded_events],
        "marked_owners": engine._marked_owners,
        "foreign_ownees": engine._foreign_ownees,
        "staged": [violation_key(v) for v in engine._pending],
        "instances": {c.name: c.instance_count for c in vm.classes.tracked_types},
    }


def collected_state(vm) -> dict:
    engine = vm.engine
    return {
        "heap": {o.address: (o.cls.name, o.status & NOT_OWNED, list(o.slots)) for o in vm.heap},
        "counters": counters(vm),
        "log": [violation_key(v) + (v.render(show_addresses=True),) for v in engine.log],
        "degraded": [(e.phase, e.gc_number, str(e)) for e in engine.degraded_events],
        "registry": engine.registry.snapshot(),
        "owners": {a: list(r.ownees) for a, r in engine.registry.owners.items()},
    }


def collect(vm, reason: str) -> tuple:
    """One full collection; a typed heap error is part of the outcome (an
    unmarked foreign ownee can dangle — see the known-gap test below)."""
    try:
        vm.gc(reason)
        outcome = None
    except HeapError as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, collected_state(vm)


def run_phase(vm, phase) -> dict:
    vm.engine.gc_begin(vm.collector)
    phase(vm.engine, vm.collector)
    return phase_state(vm, reference=phase is reference_ownership_phase)


# -- the differential property ---------------------------------------------------------


@given(spec=heap_specs())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_ownership_fused_matches_reference_after_pre_mark(spec):
    fused, oracle = build(spec), build(spec)
    assert run_phase(fused, run_ownership_phase) == run_phase(
        oracle, reference_ownership_phase
    )
    # The fused phase wrote no transient bit and logged nothing to clear.
    assert fused.engine._owned == []
    assert not any(o.status & hdr.OWNED_BIT for o in fused.heap)


@pytest.mark.parametrize("collector", ALL_COLLECTORS)
@given(spec=heap_specs(), cut=st.sets(st.integers(0, MAX_OBJECTS - 1)))
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_ownership_fused_matches_reference_after_collections(collector, spec, cut):
    fused, oracle = build(spec, collector), use_reference(build(spec, collector))
    assert collect(fused, "first") == collect(oracle, "first")
    # Drop some roots (owners die, regions float, ownees get purged) and go
    # again: the later collections read what the first one left behind.
    for vm in (fused, oracle):
        for i in sorted(cut & spec["roots"]):
            vm.statics.set_ref(f"root{i}", 0)
    for reason in ("second", "third"):
        assert collect(fused, reason) == collect(oracle, reason)


# -- probe accounting ------------------------------------------------------------------


@pytest.mark.parametrize("n", [*range(0, 65), 1000])
def test_ownership_fused_probe_depths_equal_contains(n):
    record = OwnerRecord(0x10, "probe")
    record.ownees = [0x100 + 16 * i for i in range(n)]
    depths = probe_depths(n)
    assert len(depths) == n
    assert [depths[i] for i in range(n)] == [
        record.contains(address)[1] for address in record.ownees
    ]


# -- error paths -----------------------------------------------------------------------


def _region_with_bad_child(break_child):
    """owner -> [e0, e1, victim, e3]; ``break_child`` corrupts the victim."""
    vm = VirtualMachine(heap_bytes=1 << 20, hardened=True)
    node = vm.define_class("BNode", [("a", FieldKind.REF), ("b", FieldKind.REF)])
    with vm.scope("bad-child"):
        owner = vm.new(node)
        arr = vm.new_array(node, 4)
        owner["a"] = arr
        vm.statics.set_ref("owner", owner.address)
        elements = []
        for i in range(4):
            e = vm.new(node)
            arr[i] = e
            elements.append(e)
            vm.assertions.assert_ownedby(owner, e)
        break_child(vm, arr.obj, elements[2].obj)
    return vm


def _dangle(vm, arr, victim):
    arr.slots[2] = 0x7FFF0  # no object was ever allocated here


def _free(vm, arr, victim):
    victim.status |= hdr.FREED_BIT


@pytest.mark.parametrize(
    "break_child, error",
    [(_dangle, InvalidAddressError), (_free, UseAfterFreeError)],
    ids=["dangling", "freed"],
)
def test_ownership_fused_bad_child_raises_typed_error_with_counters_flushed(
    break_child, error
):
    states = []
    for phase in (run_ownership_phase, reference_ownership_phase):
        vm = _region_with_bad_child(break_child)
        vm.engine.gc_begin(vm.collector)
        with pytest.raises(error):
            phase(vm.engine, vm.collector)
        states.append(phase_state(vm, reference=phase is reference_ownership_phase))
    fused, oracle = states
    assert fused == oracle
    # Everything scanned before the bad edge is on the books, the bad edge
    # itself is a traced edge, and the bad child was never header-checked.
    assert fused["counters"]["edges_traced"] > fused["counters"]["header_bit_checks"] > 0
    assert fused["counters"]["ownee_lookups"] > 0


def test_ownership_fused_raising_hook_degrades_pre_mark_with_counters_flushed():
    """A non-heap exception out of a slow hook is contained by the hardened
    collector as ``note_degraded("pre_mark")``; the phase's locals are
    flushed on the way out, so the books match the oracle's."""
    results = []
    for reference in (False, True):
        vm = _region_with_bad_child(lambda vm, arr, victim: None)
        if reference:
            use_reference(vm)
        seen = []

        def exploding_visit(obj, record, seen=seen):
            seen.append(obj.address)
            if len(seen) == 3:
                raise RuntimeError("injected phase-1 fault")

        # A per-pause budget routes every visit through the hook.
        vm.engine.check_budget = 1000
        vm.engine.phase1_visit = exploding_visit
        vm.gc("exploding hook")
        events = [(e.phase, e.gc_number) for e in vm.engine.degraded_events]
        results.append((events, counters(vm), len(vm.engine.log)))
    assert results[0] == results[1]
    assert results[0][0] == [("pre_mark", 1)]


# -- the many-owners shape -------------------------------------------------------------


def _many_owners(owners: int, ownees: int) -> VirtualMachine:
    vm = VirtualMachine(heap_bytes=8 << 20)
    node = vm.define_class("MNode", [("a", FieldKind.REF), ("b", FieldKind.REF)])
    with vm.scope("many-owners"):
        table = vm.new_array(node, owners)
        vm.statics.set_ref("table", table.address)
        for i in range(owners):
            owner = vm.new(node)
            table[i] = owner
            arr = vm.new_array(node, ownees)
            owner["a"] = arr
            for j in range(ownees):
                e = vm.new(node)
                arr[j] = e
                vm.assertions.assert_ownedby(owner, e)
    return vm


def test_ownership_fused_many_small_owners_stay_counter_identical():
    fused = _many_owners(2000, 3)
    oracle = use_reference(_many_owners(2000, 3))
    for vm in (fused, oracle):
        vm.gc("many owners")
    assert counters(fused) == counters(oracle)
    assert counters(fused)["ownee_lookups"] == 6000
    assert len(fused.engine.log) == len(oracle.engine.log) == 0


def test_ownership_fused_array_asserted_out_of_order_is_sorted_when_phase_1_reads_it():
    """The mutator appends (§2.5.2); asserted in falling address order the
    array is unsorted until the collector asks for it, and the probe counts
    are still those of a binary search over the sorted array."""
    results = []
    for reference in (False, True):
        vm = VirtualMachine(heap_bytes=1 << 20)
        node = vm.define_class("SNode", [("a", FieldKind.REF), ("b", FieldKind.REF)])
        with vm.scope("out-of-order"):
            owner, arr = vm.new(node), vm.new_array(node, 37)
            owner["a"] = arr
            vm.statics.set_ref("owner", owner.address)
            elements = [vm.new(node) for _ in range(37)]
            for i, element in enumerate(elements):
                arr[i] = element
            for element in reversed(elements):
                vm.assertions.assert_ownedby(owner, element)
        if reference:
            use_reference(vm)
        vm.gc("out of order")
        results.append((counters(vm), len(vm.engine.log)))
    assert results[0] == results[1]
    fused, violations = results[0]
    assert violations == 0 and fused["ownee_lookups"] == 37
    assert fused["ownee_search_probes"] == sum(probe_depths(37))


# -- foreign ownees: the gap the oracle found, closed --------------------------------
#
# Phase 1 does not mark another owner's ownee but marks the ordinary objects
# above it, and the root scan prunes at those marks.  Until the engine learned
# to trace such an ownee as one more root once its holder is marked, one
# reachable only through a foreign region was swept under a live reference and
# the next collection followed the dangling edge.


def _only_path(vm, node):
    """``foreign`` (owned by ``second``) hangs below ``first``'s region only."""
    first, middle, foreign, second, other = (vm.new(node) for _ in range(5))
    first["a"] = middle
    middle["a"] = foreign
    vm.statics.set_ref("first", first.address)
    vm.statics.set_ref("second", second.address)
    vm.assertions.assert_ownedby(first, other)  # makes ``first`` an owner
    vm.assertions.assert_ownedby(second, foreign)
    return {"live": [first, middle, foreign, second], "dead": [other], "unowned": [foreign]}


def _shared_ownee(vm, node):
    """``foreign`` is below ``first``'s region *and* below its own owner:
    ``second``'s scan marks it after ``first``'s refused to."""
    shape = _only_path(vm, node)
    second, foreign = shape["live"][3], shape["live"][2]
    second["a"] = foreign
    return {**shape, "unowned": []}


def _nested_owner(vm, node):
    """``second`` lives inside ``first``'s region (so phase 1 marks it and
    stops) and does not reference its ownee, which hangs off ``middle``."""
    first, middle, foreign, second, other = (vm.new(node) for _ in range(5))
    first["a"] = middle
    middle["a"] = foreign
    middle["b"] = second
    vm.statics.set_ref("first", first.address)
    vm.assertions.assert_ownedby(first, other)
    vm.assertions.assert_ownedby(second, foreign)
    return {"live": [first, middle, foreign, second], "dead": [other], "unowned": [foreign]}


def _owner_only_from_its_own_region(vm, node):
    """``first`` is kept alive by nothing but its own region's back edge: the
    judgment's walk takes its marks back — the late-traced ``foreign`` with
    them, and its staged verdict — so the whole island goes in one sweep."""
    first, middle, foreign, second, other = (vm.new(node) for _ in range(5))
    first["a"] = middle
    middle["a"] = foreign
    middle["b"] = first
    vm.statics.set_ref("second", second.address)
    vm.assertions.assert_ownedby(first, other)
    vm.assertions.assert_ownedby(second, foreign)
    return {"live": [second], "dead": [first, middle, foreign, other], "unowned": []}


FOREIGN_SHAPES = (_only_path, _shared_ownee, _nested_owner, _owner_only_from_its_own_region)


@pytest.mark.parametrize("shape", FOREIGN_SHAPES, ids=lambda shape: shape.__name__.strip("_"))
@pytest.mark.parametrize("collector,sweep_mode", SWEEP_CELLS)
@pytest.mark.parametrize("reference", [False, True], ids=["fused", "oracle"])
def test_ownership_fused_foreign_ownee_is_never_swept_under_a_live_reference(
    collector, sweep_mode, shape, reference
):
    vm = VirtualMachine(heap_bytes=1 << 20, collector=collector, sweep_mode=sweep_mode)
    node = vm.define_class("GNode", [("a", FieldKind.REF), ("b", FieldKind.REF)])
    with vm.scope("foreign"):
        expected = shape(vm, node)
    if reference:
        use_reference(vm)
    log = vm.engine.log
    for reason in ("would have swept the foreign ownee", "would have followed the dangling edge"):
        reported = len(log.of_kind(AssertionKind.OWNED_BY))
        unowned = [handle.address for handle in expected["unowned"]]  # before any move
        vm.gc(reason)
        assert verify_heap(vm) == []  # finishes a lazy sweep first
        assert all(handle.is_live for handle in expected["live"])
        # An ownee its owner cannot reach is reported at every collection.
        assert [v.address for v in log.of_kind(AssertionKind.OWNED_BY)[reported:]] == unowned
    assert not any(handle.is_live for handle in expected["dead"])
    # The overlap itself is still warned about — unless the region it was
    # seen from turned out to be garbage, which retracts what it staged.
    assert bool(log.of_kind(AssertionKind.OWNERSHIP_MISUSE)) == (shape is not FOREIGN_SHAPES[3])
