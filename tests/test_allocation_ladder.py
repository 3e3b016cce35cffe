"""The one allocation-pressure ladder, driven through every call shape.

``Collector._under_pressure`` (with ``_allocate_cell``, ``_place`` and
``_relocate_all`` around it) is the only thing in ``src/`` that decides
what happens when a space says no.  Three collectors reach it in six ways:
mark-sweep ``allocate``, generational mature ``allocate`` and promotion,
semispace ``allocate`` and evacuation, and the hardened alias retry of each.
Every row below scripts a space's answers, stubs the collection itself, and
pins the exact rung sequence — so a collector that grows a private retry
loop again, or counts ``oom_recoveries`` by another rule, fails here.
"""

from __future__ import annotations

import pytest

from repro.errors import HeapExhausted, InvalidAddressError
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine

HEAP = 1 << 16
#: Fake cell addresses: aligned, and far from anything a real space hands out.
A, B = 0x7000_0000, 0x7000_4000
#: Array length whose size is over the run cache's limit (mark-sweep asks
#: the space directly) and over the nursery's large-object threshold.
BIG = 1200


class FakeSweeper:
    """Lazy-sweep debt in batches; each repayment is logged."""

    def __init__(self, debt: int, events: list):
        self.debt, self.events = debt, events

    def sweep_chunks(self, max_chunks):
        self.events.append("repay")
        self.debt -= 1


class Rig:
    """A real collector over scripted spaces, with the collection stubbed."""

    def __init__(self, collector: str, answers, debt=0, ceiling=None, hardened=False):
        self.vm = vm = VirtualMachine(
            heap_bytes=HEAP, collector=collector, hardened=hardened,
            max_heap_bytes=ceiling,
        )
        self.collector = gc = vm.collector
        self.cls = vm.define_class("Cell", [("next", FieldKind.REF)])
        self.events: list[str] = []
        answers = iter(answers)

        def allocate(nbytes):
            self.events.append("attempt")
            return next(answers)

        self.spaces = {
            "marksweep": lambda: [gc.space],
            "generational": lambda: [gc.mature],
            "semispace": lambda: list(gc._spaces),
        }[collector]()
        for space in self.spaces:
            space.allocate = allocate
        gc.collect = lambda reason: self.events.append(f"collect: {reason}")
        grow = gc._try_grow
        gc._try_grow = lambda: grow() and not self.events.append("grow")
        if gc._sweeper is not None:
            gc._sweeper = FakeSweeper(debt, self.events)

    def allocate(self):
        return self.vm.new_array(self.cls, BIG).obj

    def relocate(self):
        """Promotion / evacuation of one real, small object."""
        gc = self.collector
        obj = gc.heap.install(B, self.cls)
        return gc._relocate_all(self.spaces[-1], [obj], "relocation failed")[B]


ALLOCATE = ("marksweep", "generational", "semispace")
RELOCATE = ("generational", "semispace")


def collect_event(collector: str, nbytes: int) -> str:
    what = "mature allocation" if collector == "generational" else "allocation"
    return f"collect: {what} of {nbytes} bytes failed"


@pytest.mark.parametrize("collector", ["marksweep"])  # the one that sweeps lazily
def test_debt_is_repaid_before_anything_is_collected(collector):
    rig = Rig(collector, [None, None, A], debt=2)
    assert rig.allocate().address == A
    assert rig.events == ["attempt", "repay", "attempt", "repay", "attempt"]


@pytest.mark.parametrize("collector", ALLOCATE)
def test_one_collection_then_the_attempt_again(collector):
    rig = Rig(collector, [None, A])
    obj = rig.allocate()
    assert obj.address == A
    assert rig.events == ["attempt", collect_event(collector, obj.size_bytes), "attempt"]
    assert rig.collector.recovery.oom_recoveries == 0


@pytest.mark.parametrize("collector", ALLOCATE)
def test_growth_a_step_at_a_time_counts_one_recovery_when_it_rescues(collector):
    rig = Rig(collector, [None, None, None, A], ceiling=HEAP * 4)
    obj = rig.allocate()
    assert rig.events == [
        "attempt", collect_event(collector, obj.size_bytes), "attempt",
        "grow", "attempt", "grow", "attempt",
    ]
    recovery = rig.collector.recovery
    assert (recovery.heap_growths, recovery.oom_recoveries) == (2, 1)


@pytest.mark.parametrize("collector", ALLOCATE)
@pytest.mark.parametrize("ceiling", [None, HEAP + 4096])
def test_exhaustion_is_typed_and_growth_that_rescued_nothing_is_no_recovery(collector, ceiling):
    rig = Rig(collector, [None] * 8, ceiling=ceiling)
    with pytest.raises(HeapExhausted) as caught:
        rig.allocate()
    assert caught.value.type_name == "Cell[]" and caught.value.requested_bytes > BIG
    grown = ["grow", "attempt"] if ceiling else []
    assert rig.events[0] == "attempt" and rig.events[2:] == ["attempt"] + grown
    assert rig.collector.recovery.oom_recoveries == 0


@pytest.mark.parametrize("collector", RELOCATE)
def test_relocation_never_collects(collector):
    # Neither owes sweep debt when it relocates: generational sweeps in the pause.
    rig = Rig(collector, [None, A], ceiling=HEAP * 2)
    assert rig.relocate() == A
    assert rig.events == ["attempt", "grow", "attempt"]
    assert rig.collector.recovery.oom_recoveries == 1

    rig = Rig(collector, [None] * 4)
    with pytest.raises(HeapExhausted, match="relocation failed"):
        rig.relocate()
    assert rig.events == ["attempt"]


@pytest.mark.parametrize("collector", ["marksweep", "generational"])
def test_an_aliased_cell_is_fenced_and_the_next_one_taken(collector):
    """Corrupt free-list metadata hands out a tabled address, twice."""
    rig = Rig(collector, [B, B, A], hardened=True)
    occupant = rig.collector.heap.install(B, rig.cls)
    assert rig.allocate().address == A
    assert rig.events == ["attempt"] * 3
    assert rig.collector.recovery.cells_fenced == 2
    assert B in rig.collector.quarantine and rig.collector.heap.get(B) is occupant

    rig = Rig(collector, [B, A], hardened=False)
    rig.collector.heap.install(B, rig.cls)
    with pytest.raises(InvalidAddressError):
        rig.allocate()


@pytest.mark.parametrize("collector", RELOCATE)
def test_an_aliased_relocation_target_is_fenced_too(collector):
    rig = Rig(collector, [A, 0x7000_8000], hardened=True)
    rig.collector.heap.install(A, rig.cls)
    assert rig.relocate() == 0x7000_8000
    assert rig.collector.recovery.cells_fenced == 1
