"""Unit tests for the ObjectHeap table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidAddressError, UseAfterFreeError
from repro.heap import header as hdr
from repro.heap.heap import ObjectHeap
from repro.heap.layout import NULL
from repro.heap.object_model import ClassDescriptor, FieldKind

from tests.conftest import oracle_reachable


@pytest.fixture
def heap():
    return ObjectHeap()


@pytest.fixture
def cls():
    return ClassDescriptor(0, "C", [("x", FieldKind.INT)])


class TestInstall:
    def test_install_and_get(self, heap, cls):
        obj = heap.install(0x1000, cls)
        assert heap.get(0x1000) is obj
        assert len(heap) == 1

    def test_unaligned_address_rejected(self, heap, cls):
        with pytest.raises(InvalidAddressError):
            heap.install(0x1001, cls)

    def test_occupied_address_rejected(self, heap, cls):
        heap.install(0x1000, cls)
        with pytest.raises(InvalidAddressError):
            heap.install(0x1000, cls)

    def test_distinct_identity_hashes(self, heap, cls):
        a = heap.install(0x1000, cls)
        b = heap.install(0x1008, cls)
        assert hdr.hash_of(a.status) != hdr.hash_of(b.status)

    def test_stats_track_allocation(self, heap, cls):
        heap.install(0x1000, cls)
        assert heap.stats.objects_allocated == 1
        assert heap.stats.bytes_allocated == cls.instance_size
        assert heap.stats.objects_live == 1

    def test_allocation_count_per_class(self, heap, cls):
        heap.install(0x1000, cls)
        heap.install(0x1008, cls)
        assert cls.allocation_count == 2


class TestEvict:
    def test_evict_removes_and_poisons(self, heap, cls):
        obj = heap.install(0x1000, cls)
        heap.evict(obj)
        assert obj.is_freed
        assert not heap.contains(0x1000)
        assert heap.stats.objects_live == 0

    def test_get_after_evict_raises(self, heap, cls):
        obj = heap.install(0x1000, cls)
        heap.evict(obj)
        with pytest.raises(InvalidAddressError):
            heap.get(0x1000)

    def test_evict_mismatched_object_rejected(self, heap, cls):
        a = heap.install(0x1000, cls)
        heap.evict(a)
        b = heap.install(0x1000, cls)  # address reused
        with pytest.raises(InvalidAddressError):
            heap.evict(a)  # a is stale; table holds b
        assert heap.get(0x1000) is b


class TestGet:
    def test_null_deref_raises(self, heap):
        with pytest.raises(InvalidAddressError):
            heap.get(0)

    def test_dangling_deref_raises(self, heap):
        with pytest.raises(InvalidAddressError):
            heap.get(0x9000)

    def test_maybe_returns_none_for_missing(self, heap):
        assert heap.maybe(0) is None
        assert heap.maybe(0x9000) is None

    def test_freed_object_reachable_via_stale_table_raises(self, heap, cls):
        obj = heap.install(0x1000, cls)
        obj.set(hdr.FREED_BIT)  # simulate a poisoned object left in the table
        with pytest.raises(UseAfterFreeError):
            heap.get(0x1000)


class TestRelocate:
    def test_relocate_moves_object(self, heap, cls):
        obj = heap.install(0x1000, cls)
        heap.relocate(obj, 0x2000)
        assert obj.address == 0x2000
        assert heap.get(0x2000) is obj
        assert not heap.contains(0x1000)

    def test_relocate_to_occupied_rejected(self, heap, cls):
        a = heap.install(0x1000, cls)
        heap.install(0x2000, cls)
        with pytest.raises(InvalidAddressError):
            heap.relocate(a, 0x2000)

    def test_relocate_unaligned_rejected(self, heap, cls):
        a = heap.install(0x1000, cls)
        with pytest.raises(InvalidAddressError):
            heap.relocate(a, 0x2001)


class TestIteration:
    def test_objects_snapshot(self, heap, cls):
        a = heap.install(0x1000, cls)
        b = heap.install(0x1008, cls)
        snapshot = heap.objects()
        heap.evict(a)  # safe: snapshot is independent
        assert set(snapshot) == {a, b}

    def test_live_bytes(self, heap, cls):
        heap.install(0x1000, cls)
        heap.install(0x1008, cls)
        assert heap.live_bytes() == 2 * cls.instance_size

    def test_live_bytes_counter_matches_slow_walk(self, heap, cls):
        # The O(1) counter must track install/evict/relocate exactly.
        objs = [heap.install(0x1000 + i * 16, cls) for i in range(32)]
        assert heap.live_bytes() == heap.live_bytes_slow()
        for obj in objs[::3]:
            heap.evict(obj)
        assert heap.live_bytes() == heap.live_bytes_slow()
        heap.relocate(objs[1], 0x9000)
        assert heap.live_bytes() == heap.live_bytes_slow()
        for obj in heap.objects():
            heap.evict(obj)
        assert heap.live_bytes() == heap.live_bytes_slow() == 0


# -- the one closure against the tests' oracle ------------------------------------------

PAIR = ClassDescriptor(1, "Pair", [("a", FieldKind.REF), ("b", FieldKind.REF), ("n", FieldKind.INT)])
#: Eight tabled cells, ``NULL``, and two addresses the table never holds.
CELLS = [0x1000 + 0x20 * i for i in range(8)]
ANYWHERE = st.sampled_from(CELLS + [NULL, 0x9000, 0x9020])


@given(
    slots=st.lists(st.tuples(ANYWHERE, ANYWHERE), min_size=8, max_size=8),
    zombies=st.sets(st.sampled_from(CELLS)),
    seeds=st.lists(ANYWHERE, max_size=4),
    excluding=st.one_of(st.none(), ANYWHERE),
)
def test_closure_equals_the_brute_force_oracle(slots, zombies, seeds, excluding):
    """Random graphs with dangling edges, ``FREED`` objects still tabled
    and seeds that are not there, with and without an excluded address:
    the worklist walk and the table fixpoint name the same set."""
    heap = ObjectHeap()
    for address, (a, b) in zip(CELLS, slots):
        obj = heap.install(address, PAIR)
        obj.slots[PAIR.field("a").slot], obj.slots[PAIR.field("b").slot] = a, b
        if address in zombies:
            obj.status |= hdr.FREED_BIT
    expected = oracle_reachable(heap, seeds, excluding)
    if excluding is None:
        assert heap.closure(seeds) == expected
    else:
        assert heap.closure(seeds, excluding=excluding) == expected
    assert not expected & (zombies | {NULL, excluding})
