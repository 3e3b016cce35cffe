"""The invariant catalogue and the pause skeleton, pinned from outside.

Four things that keep the two hard to regrow around:

* *declared ⇔ convicted* — a minimal corruption per catalogue entry is found
  under that entry's name, nothing is found under an undeclared one, and an
  entry that declares a repair is mended by one sentinel scan;
* the zombie-owner regression and its general form, the *repair property*:
  a sentinel repair must not make later collections report what an
  uncorrupted twin does not;
* the *bracket sequence* — which check runs at which point of a pause, for
  every collector × sweep mode × hardened × paranoid;
* DESIGN.md's catalogue table, held to the code.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gc.verify import (
    ALLOCATOR,
    BOTH_TIERS,
    CATALOGUE,
    GRAPH,
    heap_findings,
    run_sentinel,
    verify_heap,
)
from repro.heap import header as hdr
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from repro.verify import FAULT_INVARIANTS
from tests.conftest import ALL_COLLECTORS, build_chain, make_node_class

REPO = Path(__file__).resolve().parent.parent
BOGUS = 0xBAD000


def hardened_vm(collector: str = "marksweep", **kwargs) -> VirtualMachine:
    return VirtualMachine(
        heap_bytes=1 << 20, collector=collector, hardened=True, telemetry=False, **kwargs
    )


# -- declared <=> convicted ---------------------------------------------------------------
#
# Each case: the entry it is the minimal corruption for, the collector to
# build, what else the same damage necessarily breaches, and the damage.
# ``nodes`` is a rooted six-node chain; node 0 owns node 1 by assertion.


def _leftover_marks(vm, nodes):
    vm.heap.marks.add(nodes[2].obj.address)


def _freed_zombie(vm, nodes):
    nodes[4]["next"] = None
    nodes[5].obj.status |= hdr.FREED_BIT


def _moved_under_the_table(vm, nodes):
    nodes[5].obj.address += 2


def _dangling_slot(vm, nodes):
    nodes[5].obj.slots[nodes[5].obj.cls.field("next").slot] = BOGUS


def _dangling_root(vm, nodes):
    vm.statics.set_ref("ghost", BOGUS)
    vm.statics.set_ref("ghost2", BOGUS)


def _dead_region_queue_entry(vm, nodes):
    vm.main_thread.region_queue.append(BOGUS)


def _dead_site(vm, nodes):
    vm.engine.registry.register_dead(BOGUS, "stale", 0)


def _dead_unshared_site(vm, nodes):
    vm.engine.registry.register_unshared(BOGUS, "stale")


def _dead_ownee(vm, nodes):
    registry = vm.engine.registry
    registry.owners[nodes[0].obj.address].append(BOGUS)
    registry.ownee_owner[BOGUS] = nodes[0].obj.address


def _unsorted_ownees(vm, nodes):
    vm.assertions.assert_ownedby(nodes[0], nodes[2])
    vm.engine.registry.owners[nodes[0].obj.address].ownees.reverse()


def _ownee_bit_without_owner(vm, nodes):
    nodes[3].obj.status |= hdr.OWNEE_BIT


def _owner_bit_lost(vm, nodes):
    nodes[0].obj.clear(hdr.OWNER_BIT)


def _byte_counter_drift(vm, nodes):
    vm.heap._live_bytes += 8


def _live_cell_on_the_free_list(vm, nodes):
    space = vm.collector.space
    live = nodes[2].obj.address
    space.free_list.push(live, space.cell_size(live))


def _phantom_bump_record(vm, nodes):
    space = vm.collector.from_space
    space._allocated[BOGUS] = 16
    space.bytes_in_use += 16


def _fenced_cell_on_the_free_list(vm, nodes):
    vm.collector.quarantine.fence(BOGUS)
    vm.collector.space.free_list.push(BOGUS, 32)


def _unaligned_free_cell(vm, nodes):
    vm.collector.space.free_list.push(BOGUS + 2, 32)


def _cell_in_the_wrong_zone(vm, nodes):
    facade = vm.collector.space
    address = nodes[5].obj.address
    home = facade.zone_of(address)
    wrong = (home + 1) % len(facade.shards)
    chunk = address >> 16
    cell = facade.shards[home]._chunks[chunk].pop(address)
    facade.shards[wrong]._chunks.setdefault(chunk, {})[address] = cell


CORRUPTIONS = [
    ("table-integrity", "marksweep", set(), _moved_under_the_table),
    ("header-hygiene", "marksweep", set(), _leftover_marks),
    ("header-hygiene", "marksweep", set(), _freed_zombie),
    ("reference-closure", "marksweep", set(), _dangling_slot),
    ("reference-closure", "marksweep", set(), _dangling_root),
    ("reference-closure", "marksweep", set(), _dead_region_queue_entry),
    ("registry-liveness", "marksweep", set(), _dead_site),
    ("registry-liveness", "marksweep", set(), _dead_unshared_site),
    ("registry-liveness", "marksweep", set(), _dead_ownee),
    ("registry-index-agreement", "marksweep", set(), _unsorted_ownees),
    ("ownership-bit-agreement", "marksweep", set(), _ownee_bit_without_owner),
    ("ownership-bit-agreement", "marksweep", set(), _owner_bit_lost),
    ("accounting-agreement", "marksweep", set(), _byte_counter_drift),
    ("freelist-live-disjointness", "marksweep", set(), _live_cell_on_the_free_list),
    ("freelist-live-disjointness", "semispace", set(), _phantom_bump_record),
    ("freelist-fencing", "marksweep", set(), _fenced_cell_on_the_free_list),
    ("allocator-cell-sanity", "marksweep", set(), _unaligned_free_cell),
    ("zone-routing-agreement", "zoned", set(), _cell_in_the_wrong_zone),
]


def _corrupted(collector: str, corrupt):
    vm = hardened_vm(gc_workers=2) if collector == "zoned" else hardened_vm(collector)
    nodes = build_chain(vm, make_node_class(vm), 6)
    vm.assertions.assert_ownedby(nodes[0], nodes[1])
    vm.gc("settle")
    assert heap_findings(vm, BOTH_TIERS) == []
    corrupt(vm, nodes)
    return vm


def test_catalogue_is_well_formed():
    names = [entry.name for entry in CATALOGUE]
    assert len(names) == len(set(names))
    assert {entry.tier for entry in CATALOGUE} == {GRAPH, ALLOCATOR}
    assert all(" " not in name for name in names)
    # The heap-level names of the fault matrix are catalogue entries.
    for kind in ("dangle-ref", "corrupt-freelist"):
        assert FAULT_INVARIANTS[kind][0] in names


def test_every_entry_has_a_corruption_case():
    assert {case[0] for case in CORRUPTIONS} == {entry.name for entry in CATALOGUE}


def test_findings_are_only_ever_filed_by_the_catalogue_reader():
    # heap_findings stamps the declared entry's name on what that entry's
    # find function yields, so a finding under an undeclared name cannot
    # exist — as long as nothing else builds one.
    built = [
        (path.name, line.strip())
        for path in (REPO / "src").rglob("*.py")
        for line in path.read_text().splitlines()
        if re.search(r"\bFinding\(", line) and "class Finding" not in line
    ]
    assert [name for name, _line in built] == ["verify.py", "verify.py"]
    assert all("Finding(entry.name, " in line for _name, line in built)


@pytest.mark.parametrize(
    "name, collector, also, corrupt", CORRUPTIONS,
    ids=[f"{case[0]}:{case[3].__name__.lstrip('_')}" for case in CORRUPTIONS],
)
def test_declared_invariant_convicts_and_declared_repair_mends(name, collector, also, corrupt):
    entry = next(e for e in CATALOGUE if e.name == name)
    vm = _corrupted(collector, corrupt)

    findings = heap_findings(vm, BOTH_TIERS)
    assert {f.invariant for f in findings} == {name} | also, findings
    mine = [f for f in findings if f.invariant == name]
    # A repair rides on a finding exactly when its entry declares one.
    assert all((f.repair is not None) == (entry.repair is not None) for f in mine)
    # The string-returning readers say the same thing in the same words.
    assert verify_heap(vm, raise_on_error=False, paranoid=True) == [f.message for f in findings]

    problems = run_sentinel(vm, scrub_freelists=True)
    if entry.repair is None:
        # Detect-only entries are not walked by the repairing scan.
        assert not [f for f in mine if f.message in problems]
        return
    assert problems == [f.message for f in findings if f.repair is not None]
    assert verify_heap(vm, raise_on_error=False, paranoid=True) == []
    repaired = vm.collector.recovery.total()
    assert run_sentinel(vm, scrub_freelists=True) == []
    assert vm.collector.recovery.total() == repaired
    vm.gc("after repair")
    assert verify_heap(vm, raise_on_error=False, paranoid=True) == []


def test_one_finding_per_dangling_root_address_names_every_holder():
    vm = _corrupted("marksweep", _dangling_root)
    (finding,) = heap_findings(vm)
    assert "static 'ghost', static 'ghost2'" in finding.message
    run_sentinel(vm)
    assert vm.collector.recovery.refs_fenced == 1  # distinct addresses, not holders


# -- a sentinel repair must not manufacture violations ------------------------------------


@pytest.mark.parametrize("collector", ALL_COLLECTORS)
def test_evicting_a_zombie_owner_leaves_no_unowned_ownee_behind(collector):
    vm = hardened_vm(collector)
    cls = make_node_class(vm)
    with vm.scope("pair"):
        owner, ownee = vm.new(cls), vm.new(cls)
        owner["next"] = ownee
        vm.statics.set_ref("owner", owner.address)
        vm.statics.set_ref("ownee", ownee.address)
    vm.assertions.assert_ownedby(owner, ownee)
    vm.gc("clean")
    assert len(vm.engine.log) == 0

    owner.obj.status |= hdr.FREED_BIT
    vm.gc("hardened: the sentinel evicts the owner and scrubs its record")
    vm.gc("later")
    vm.gc("later still")
    # Dropping the record without clearing OWNEE made every later collection
    # report `assert-ownedby ... owner <unknown>` against a correct program.
    assert vm.violation_lines() == []
    assert not ownee.obj.status & hdr.OWNEE_BIT
    assert verify_heap(vm) == []


def _build_twin(collector: str):
    """A small correct program plus one genuine, planted violation."""
    vm = hardened_vm(collector)
    cls = make_node_class(vm)
    chain = build_chain(vm, cls, 8)
    # The owner holds each ownee directly: losing one to a repair must not
    # cut another off from its owner (that would be a true violation).
    family = vm.define_class("Family", [(f"kid{i}", FieldKind.REF) for i in range(3)])
    with vm.scope("family"):
        owner = vm.new(family)
        kids = [vm.new(cls) for _ in range(3)]
        vm.statics.set_ref("owner", owner.address)
        for i, kid in enumerate(kids):
            vm.statics.set_ref(f"kid{i}", kid.address)
            owner[f"kid{i}"] = kid
    for kid in kids:
        vm.assertions.assert_ownedby(owner, kid, site="family")
    vm.assertions.assert_unshared(chain[3], site="chain")
    vm.assertions.assert_dead(chain[6], site="planted")  # reachable: a true violation
    return vm, chain, owner, kids


#: Repairable damage, by name: (vm, chain, owner, kids) -> None.
REPAIRABLE = {
    "leftover-marks": lambda vm, chain, owner, kids: vm.heap.marks.add(chain[1].obj.address),
    "zombie-owner": lambda vm, chain, owner, kids: owner.obj.set(hdr.FREED_BIT),
    "zombie-ownee": lambda vm, chain, owner, kids: kids[1].obj.set(hdr.FREED_BIT),
    "zombie-plain": lambda vm, chain, owner, kids: chain[5].obj.set(hdr.FREED_BIT),
    "zombie-asserted-dead": lambda vm, chain, owner, kids: chain[6].obj.set(hdr.FREED_BIT),
    "dangling-slot": lambda vm, chain, owner, kids: chain[7].obj.slots.__setitem__(
        chain[7].obj.cls.field("next").slot, BOGUS
    ),
    "dangling-root": lambda vm, chain, owner, kids: vm.statics.set_ref("ghost", BOGUS),
    "dead-region-queue-entry": lambda vm, chain, owner, kids: vm.main_thread.region_queue.append(BOGUS),
    "dead-site": lambda vm, chain, owner, kids: vm.engine.registry.register_dead(BOGUS, "stale", 0),
    "dead-unshared-site": lambda vm, chain, owner, kids: vm.engine.registry.register_unshared(BOGUS, "stale"),
}


def _verdicts(vm) -> set:
    return {(v.kind.value, v.site) for v in vm.engine.log.violations}


@settings(max_examples=60, deadline=None)
@given(
    collector=st.sampled_from(ALL_COLLECTORS),
    damage=st.sets(st.sampled_from(sorted(REPAIRABLE))),
)
def test_repaired_twin_reports_nothing_its_clean_twin_does_not(collector, damage):
    clean, *_ = _build_twin(collector)
    hurt, chain, owner, kids = _build_twin(collector)
    for vm in (clean, hurt):
        vm.gc("settle")
    for name in sorted(damage):
        REPAIRABLE[name](hurt, chain, owner, kids)
    for vm in (clean, hurt):
        vm.engine.log.clear()
        for round_no in range(3):  # the repairing collection, then two more
            vm.gc(f"round {round_no}")
    assert _verdicts(clean) == {("assert-dead", "planted")}
    assert _verdicts(hurt) <= _verdicts(clean), (damage, hurt.violation_lines())
    assert verify_heap(hurt, raise_on_error=False) == []
    assert hurt.collector.recovery.heap_degradations == (1 if damage else 0)


# -- the bracket sequence ----------------------------------------------------------------

#: (hardened, paranoid) -> the checks around one full collection, in order,
#: the same whether the pause ends exact or under sweep debt: the sentinel
#: repairs once, after the prologue has repaid the debt and before the trace.
FULL_BRACKETS = {
    (False, False): [],
    (True, False): [("sentinel", "pre-gc")],
    (False, True): [("paranoid", "pre-gc"), ("paranoid", "post-gc")],
    (True, True): [("sentinel", "pre-gc"), ("paranoid", "pre-gc"), ("paranoid", "post-gc")],
}

#: Generational sweeps eagerly, its one discipline; only mark-sweep takes
#: the option.
CONFIGURATIONS = [
    ("marksweep", "eager"),
    ("marksweep", "lazy"),
    ("generational", "eager"),
    ("semispace", None),
]


def _record_brackets(vm) -> list:
    """Wrap the collector's two checks; log ``(check, phase)`` as they run."""
    collector = vm.collector
    log: list = []
    sentinel, paranoid = collector._sentinel_check, collector._paranoid_check

    def sentinel_check(phase):
        log.append(("sentinel", phase))
        return sentinel(phase)

    def paranoid_check(phase):
        log.append(("paranoid", phase))
        return paranoid(phase)

    collector._sentinel_check = sentinel_check
    collector._paranoid_check = paranoid_check
    return log


@pytest.mark.parametrize("hardened, paranoid", sorted(FULL_BRACKETS))
@pytest.mark.parametrize("collector, sweep_mode", CONFIGURATIONS)
def test_bracket_sequence_per_collection(collector, sweep_mode, hardened, paranoid):
    vm = VirtualMachine(
        heap_bytes=1 << 20, collector=collector,
        sweep_mode=sweep_mode if collector == "marksweep" else None,
        hardened=hardened, paranoid=paranoid, telemetry=False,
    )
    cls = make_node_class(vm)
    build_chain(vm, cls, 40)
    vm.gc("warm-up: a generational heap needs mature objects to sweep")
    log = _record_brackets(vm)

    with vm.scope("garbage"):
        for _ in range(20):
            vm.new(cls)
    vm.gc("recorded")
    assert (vm.collector.sweep_debt() > 0) == (sweep_mode == "lazy")
    assert log == FULL_BRACKETS[(hardened, paranoid)]

    if collector == "generational":
        # A minor collection gets the post-minor paranoid walk and nothing
        # else: its trace filters every edge, so it stays unsentineled.
        del log[:]
        vm.minor_gc("recorded minor")
        assert log == ([("paranoid", "post-minor")] if paranoid else [])


# -- DESIGN.md prints the catalogue -------------------------------------------------------


def _design_table() -> list:
    text = (REPO / "DESIGN.md").read_text()
    section = text[text.index("**The invariant catalogue**"):]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
        elif rows:
            break
    return rows


def test_design_table_is_the_catalogue():
    exercised_by = {
        invariant: kind for kind, (invariant, _how) in FAULT_INVARIANTS.items()
    }
    expected = [
        [
            entry.name,
            entry.tier,
            entry.find.__name__,
            entry.repair or "detect only",
            exercised_by.get(entry.name, "—"),
        ]
        for entry in CATALOGUE
    ]
    assert _design_table() == expected

