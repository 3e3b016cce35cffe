"""AssertionRegistry bookkeeping and Violation/HeapPath rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import AssertionRegistry, OwnerRecord
from repro.core.reporting import AssertionKind, HeapPath, Violation, ViolationLog
from repro.errors import AssertionUsageError
from repro.heap.object_model import ClassDescriptor, FieldKind, HeapObject

from tests.reference_registry import ReferenceRegistry


class TestOwnerRecord:
    def test_sorted_insertion(self):
        record = OwnerRecord(0x1000, "t")
        for address in (0x5000, 0x2000, 0x9000, 0x3000):
            record.add(address)
        assert record.ownees == sorted(record.ownees)

    def test_duplicate_add_ignored(self):
        record = OwnerRecord(0x1000, "t")
        record.add(0x2000)
        record.add(0x2000)
        assert len(record) == 1

    def test_binary_search_finds_all(self):
        record = OwnerRecord(0x1000, "t")
        addresses = [0x2000 + 8 * i for i in range(33)]
        for a in addresses:
            record.add(a)
        for a in addresses:
            found, probes = record.contains(a)
            assert found
            assert 1 <= probes <= 7  # log2(33) ~ 6

    def test_binary_search_miss(self):
        record = OwnerRecord(0x1000, "t")
        record.add(0x2000)
        found, probes = record.contains(0x3000)
        assert not found
        assert probes >= 1

    def test_remove(self):
        record = OwnerRecord(0x1000, "t")
        record.add(0x2000)
        assert record.remove(0x2000)
        assert not record.remove(0x2000)
        assert len(record) == 0


class TestRegistry:
    def test_dead_site_serials_increase(self):
        registry = AssertionRegistry()
        a = registry.register_dead(0x1000, "a", 0)
        b = registry.register_dead(0x2000, "b", 0)
        assert b.serial > a.serial

    def test_purge_freed_satisfies_dead(self):
        registry = AssertionRegistry()
        registry.register_dead(0x1000, "a", 0)
        registry.register_dead(0x2000, "b", 0)
        info = registry.purge_freed({0x1000})
        assert info["dead_satisfied"] == [0x1000]
        assert registry.dead_satisfied == 1
        assert 0x2000 in registry.dead_sites

    def test_purge_freed_removes_ownees_and_flags_dead_owners(self):
        registry = AssertionRegistry()
        registry.register_owned_by(0x1000, 0x2000, "t")
        registry.register_owned_by(0x1000, 0x3000, "t")
        registry.register_owned_by(0x4000, 0x5000, "t")
        info = registry.purge_freed({0x2000, 0x4000})
        assert registry.owner_of(0x2000) is None
        assert registry.owner_of(0x3000) == 0x1000
        assert info["dead_owners"] == [0x4000]
        assert registry.ownees_reclaimed == 1

    def test_drop_owner_returns_survivors(self):
        registry = AssertionRegistry()
        registry.register_owned_by(0x1000, 0x2000, "t")
        registry.register_owned_by(0x1000, 0x3000, "t")
        survivors = registry.drop_owner(0x1000)
        assert sorted(survivors) == [0x2000, 0x3000]
        assert registry.owner_of(0x2000) is None
        assert registry.drop_owner(0x1000) == []

    def test_forwarding_rewrites_everything(self):
        registry = AssertionRegistry()
        registry.register_dead(0x1000, "a", 0)
        registry.register_unshared(0x2000, "u")
        registry.register_owned_by(0x3000, 0x4000, "o")
        fwd = {0x1000: 0x11000, 0x2000: 0x12000, 0x3000: 0x13000, 0x4000: 0x14000}
        registry.apply_forwarding(fwd)
        assert 0x11000 in registry.dead_sites
        assert 0x12000 in registry.unshared_sites
        assert registry.owner_of(0x14000) == 0x13000
        record = registry.owners[0x13000]
        assert record.ownees == [0x14000]
        assert record.ownees == sorted(record.ownees)

    def test_forwarding_empty_is_noop(self):
        registry = AssertionRegistry()
        registry.register_dead(0x1000, "a", 0)
        registry.apply_forwarding({})
        assert 0x1000 in registry.dead_sites

    def test_snapshot_shape(self):
        registry = AssertionRegistry()
        registry.register_dead(0x1000, "a", 0)
        snap = registry.snapshot()
        assert snap["dead_pending"] == 1
        assert "calls" in snap


def _obj(name="C", address=0x1000):
    cls = ClassDescriptor(0, name, [("x", FieldKind.INT)])
    return HeapObject(address, cls)


class TestReporting:
    def test_path_render_arrow_separated(self):
        path = HeapPath("static 'root'", [_obj("A", 0x1000), _obj("B", 0x1008)])
        text = path.render()
        assert text.splitlines()[0] == "static 'root' ->"
        assert "A ->" in text
        assert text.endswith("B")

    def test_path_render_with_addresses(self):
        path = HeapPath(None, [_obj("A", 0x1000)])
        assert "0x1000" in path.render(show_addresses=True)

    def test_empty_path_renders_placeholder(self):
        path = HeapPath(None, [])
        assert path.render() == "(no path available)"

    def test_violation_render_includes_all_sections(self):
        violation = Violation(
            AssertionKind.DEAD,
            "an object that was asserted dead is reachable.",
            obj=_obj("spec.jbb.Order"),
            site="Delivery.process",
            path=HeapPath("static 'company'", [_obj("spec.jbb.Company")]),
            gc_number=3,
        )
        text = violation.render()
        assert "Warning:" in text
        assert "Type: spec.jbb.Order" in text
        assert "Asserted at: Delivery.process" in text
        assert "Path to object:" in text

    def test_log_filters_by_kind(self):
        log = ViolationLog()
        log.record(Violation(AssertionKind.DEAD, "d"))
        log.record(Violation(AssertionKind.UNSHARED, "u"))
        assert len(log.of_kind(AssertionKind.DEAD)) == 1
        assert len(log) == 2

    def test_log_clear(self):
        log = ViolationLog()
        log.record(Violation(AssertionKind.DEAD, "d"))
        log.clear()
        assert len(log) == 0
        assert log.lines == []


# -- the registry against its sorted-on-insert reference -----------------------------------
#
# ``tests/reference_registry.py`` is the ownership bookkeeping as it was: bisect
# and insert on every assertion, a purge that walks everything registered.  The
# same script runs on both: every step must have the same outcome, and a reader
# must see the same thing wherever the script looks (Hypothesis draws where) and
# at its end — between looks an array stays as unsorted as the appends left it,
# so retract, purge and forwarding meet it that way.

ADDRESSES = [0x1000 + 0x10 * i for i in range(48)]
_address = st.sampled_from(ADDRESSES)
_STEPS = st.one_of(
    # assert, re-assert, overlap attempt and self-own attempt are all this
    # one step: which it is depends on what the script did before.
    st.tuples(st.just("ownedby"), _address, _address),
    st.tuples(st.just("ownedby"), st.sampled_from(ADDRESSES[:3]), _address),
    # A big record at a stroke, appended in falling address order.
    st.tuples(st.just("ownedby-run"), st.sampled_from(ADDRESSES[:3]), st.integers(3, 40)),
    st.tuples(st.just("dead"), _address),
    st.tuples(st.just("unshared"), _address),
    st.tuples(st.just("retract"), _address),
    st.tuples(st.just("purge"), st.sets(_address, max_size=8)),
    st.tuples(st.just("forward"), st.permutations(ADDRESSES)),
)


def _retract(registry, ownee: int) -> bool:
    """The registry half of ``GcAssertions.retract_ownedby``."""
    owner = registry.owner_of(ownee)
    if owner is None:
        return False
    record = registry.owners[owner]
    record.remove(ownee)
    if not record.ownees:
        del registry.owners[owner]
    del registry.ownee_owner[ownee]
    return True


def _step(registry, step):
    """Run one step; the outcome (value or typed error) is compared too."""
    kind, *args = step
    if kind == "ownedby-run":
        owner, count = args
        return [_step(registry, ("ownedby", owner, a)) for a in reversed(ADDRESSES[-count:])]
    try:
        if kind == "ownedby":
            return len(registry.register_owned_by(*args, "site"))
        if kind == "dead":
            return registry.register_dead(*args, "site", 0).serial
        if kind == "unshared":
            return registry.register_unshared(*args, "site")
        if kind == "retract":
            return _retract(registry, *args)
        if kind == "purge":
            buckets = registry.purge_freed(*args)
            for owner in buckets["dead_owners"]:  # what the engine does next
                buckets[owner] = registry.drop_owner(owner)
            return buckets
        (targets,) = args
        # Forwarding as a copying collection sees it: a bijection.
        return registry.apply_forwarding(dict(zip(ADDRESSES, targets)))
    except AssertionUsageError as exc:
        return type(exc).__name__, str(exc)


def _as_a_reader_sees_it(registry) -> dict:
    # ``contains`` goes first: it must find the array sorted on its own, not
    # because an earlier read of ``ownees`` happened to sort it.
    return {
        "contains": {
            a: [r.contains(probe) for probe in ADDRESSES] for a, r in registry.owners.items()
        },
        "owners": {a: (r.owner_address, list(r.ownees), len(r)) for a, r in registry.owners.items()},
        "owner_order": list(registry.owners),
        "ownee_owner": dict(registry.ownee_owner),
        "dead_sites": {a: (s.label, s.serial) for a, s in registry.dead_sites.items()},
        "dead_order": list(registry.dead_sites),
        "unshared_sites": dict(registry.unshared_sites),
        "snapshot": registry.snapshot(),
    }


def _assert_a_reader_sees_the_same(registry, reference, where) -> None:
    seen = _as_a_reader_sees_it(registry)
    assert seen == _as_a_reader_sees_it(reference), where
    for _owner, ownees, _n in seen["owners"].values():
        assert ownees == sorted(set(ownees))


@given(script=st.lists(st.tuples(_STEPS, st.booleans()), max_size=40))
@settings(max_examples=300, deadline=None)
def test_registry_reference_differential(script):
    registry, reference = AssertionRegistry(), ReferenceRegistry()
    for step, look in script:
        assert _step(registry, step) == _step(reference, step), step
        if look:
            _assert_a_reader_sees_the_same(registry, reference, step)
    _assert_a_reader_sees_the_same(registry, reference, "end of script")
