"""The fused sweep-and-evict loop against the code it replaced.

``ObjectHeap.sweep_cells`` skips the survivors of one chunk by their mark
(an address in ``heap.marks``) and evicts the dead in a single pass,
accounting the evicted per chunk;
``tests/reference_heap.py`` keeps the old ``ChunkSweeper._sweep_chunk`` and
``ObjectHeap.evict`` (one call and three size derivations per corpse).
Every test runs one random allocation/GC script on twin VMs — one sweeping
through the reference, one through the fused loop — and demands the same
heap table, headers, free lists, byte accounting and GC counters after
every collection and every lazy slice — and the same mark set, which must
be empty whenever no sweep debt is outstanding.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HeapExhausted, InvalidAddressError
from repro.heap import header as hdr
from repro.heap.layout import NULL
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from repro.verify.paranoid import iter_spaces

from tests.reference_heap import reference_sweep

#: Generational sweeps eagerly, its one discipline; only mark-sweep takes
#: the option.
SWEEPING = [("marksweep", "eager"), ("marksweep", "lazy"), ("generational", "eager")]
ALL_MODES = SWEEPING + [("semispace", None)]

#: (class name, is array, element) — scalar classes span three size classes.
SHAPES = ("Node", "WeakHolder", "Wide", "Node[]", "weak[]", "int[]")


# -- scripts ----------------------------------------------------------------------------


#: Heap budgets per collector: the smallest makes allocation itself
#: collect (and, in lazy mode, repay sweep debt on the slow path).
HEAPS = {
    "marksweep": (1 << 10, 4 << 10, 256 << 10),
    "generational": (10 << 10, 256 << 10),
    "semispace": (2 << 10, 256 << 10),
}


def write_script(seed: int, length: int) -> list[tuple]:
    """``length`` operations from one seeded stream: mostly allocation, so a
    small heap fills between the explicit collections."""
    rng = random.Random(seed)

    def number() -> int:
        return rng.randrange(1 << 16)

    ops: list[tuple] = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.62:
            ops.append(("alloc", rng.choice(SHAPES), rng.randrange(7)))
        elif roll < 0.78:
            ops.append(("link", number(), number(), number()))
        elif roll < 0.86:
            ops.append(("root", number()))
        elif roll < 0.92:
            ops.append(("unroot", number()))
        elif roll < 0.95:
            ops.append(("gc",))
        else:
            ops.append(("slice", rng.randrange(1, 4)))
    return ops


def scripts(collector: str):
    """(heap bytes, operations); Hypothesis picks the seed, the length and
    the heap, the seed writes the operations."""
    return st.tuples(
        st.sampled_from(HEAPS[collector]),
        st.builds(write_script, st.integers(0, 1 << 32), st.integers(20, 400)),
    )


class Twin:
    """One VM running a script; every choice is a pure function of the
    script and the VM's own state, so twins stay in step."""

    def __init__(self, collector: str, sweep_mode, heap_bytes: int):
        options = {"sweep_mode": sweep_mode} if collector == "marksweep" else {}
        self.vm = vm = VirtualMachine(heap_bytes=heap_bytes, collector=collector, **options)
        vm.define_class("Node", [("a", FieldKind.REF), ("b", FieldKind.REF), ("n", FieldKind.INT)])
        vm.define_class("WeakHolder", [("w", FieldKind.WEAK), ("r", FieldKind.REF)])
        vm.define_class("Wide", [(f"i{k}", FieldKind.INT) for k in range(9)] + [("r", FieldKind.REF)])
        self.objects: list = []
        #: Indices the mutator may still touch: allocated since the last
        #: collection, or found live by it (pending garbage is off limits).
        self.reachable: list[int] = []
        self.rooted: dict[int, str] = {}
        self.exhausted = False

    def _cls(self, shape: str):
        vm = self.vm
        if not shape.endswith("[]"):
            return vm.classes.get(shape)
        element = shape[:-2]
        return vm.array_class(FieldKind(element) if element in ("weak", "int") else element)

    def _settle(self) -> None:
        """After a collection: who is still the mutator's to touch."""
        is_live = self.vm.heap.is_live
        self.reachable = [index for index, obj in enumerate(self.objects) if is_live(obj)]

    def step(self, op) -> None:
        vm = self.vm
        kind = op[0]
        if kind == "alloc":
            cls = self._cls(op[1])
            collections = vm.stats.collections
            try:
                obj = vm.collector.allocate(cls, op[2] if cls.is_array else 0)
            except HeapExhausted:
                self.exhausted = True
                return
            if vm.stats.collections != collections:
                self._settle()
            self.reachable.append(len(self.objects))
            self.objects.append(obj)
        elif kind == "link" and self.reachable:
            src = self.objects[self.reachable[op[1] % len(self.reachable)]]
            dst = self.objects[self.reachable[op[2] % len(self.reachable)]]
            cls = src.cls
            if cls.is_array:
                slots = range(len(src.slots)) if cls.element_kind.holds_address else ()
            else:
                slots = [f.slot for f in cls.all_fields if f.kind.holds_address]
            if slots:
                slot = slots[op[3] % len(slots)]
                if cls.has_weak and (cls.is_array or slot in cls.weak_slots):
                    src.slots[slot] = dst.address
                else:
                    vm.write_ref(src, slot, dst.address)
        elif kind == "root" and self.reachable:
            index = self.reachable[op[1] % len(self.reachable)]
            name = self.rooted.setdefault(index, f"root.{index}")
            vm.statics.set_ref(name, self.objects[index].address)
        elif kind == "unroot" and self.rooted:
            index = sorted(self.rooted)[op[1] % len(self.rooted)]
            vm.statics.set_ref(self.rooted.pop(index), NULL)
        elif kind == "gc":
            vm.gc("script")
            self._settle()
        elif kind == "slice":
            sweeper = getattr(vm.collector, "_sweeper", None) or getattr(vm.collector, "_mature_sweeper", None)
            if sweeper is not None:
                sweeper.sweep_chunks(op[1])

    def state(self) -> dict:
        vm = self.vm
        heap = vm.heap
        spaces = {}
        for name, space in iter_spaces(vm.collector):
            free_list = getattr(space, "free_list", None)
            spaces[name] = (
                space.bytes_in_use,
                {cell: list(cells) for cell, cells in free_list._cells.items()} if free_list else None,
            )
        return {
            "table": {
                address: (obj.cls.name, hdr.describe(obj.status), obj.status, list(obj.slots), obj.alloc_seq)
                for address, obj in heap.address_table().items()
            },
            "headers": [(obj.address, obj.status) for obj in self.objects],
            "marks": sorted(heap.marks),
            "heap_stats": heap.stats.snapshot(),
            "live_bytes": heap.live_bytes(),
            "weak_holders": sorted(obj.address for obj in heap.weak_holders),
            "counters": vm.stats.snapshot()["counters"],
            "spaces": spaces,
            "debt": vm.collector.sweep_debt(),
            # By walk: the reference eviction does not keep the counters.
            "census": heap.live_by_class_slow(),
            "violations": vm.violation_lines(),
            "exhausted": self.exhausted,
        }


def books_balance(vm: VirtualMachine) -> None:
    """Every counter the heap keeps equals the walk that re-derives it."""
    heap = vm.heap
    assert heap.live_bytes() == heap.live_bytes_slow()
    assert heap.live_by_class() == heap.live_by_class_slow()
    assert heap.stats.objects_live == len(heap)
    assert vm.collector.sweep_debt() or not heap.marks
    assert heap.marks <= heap.address_table().keys()
    assert {obj.address for obj in heap.weak_holders} == {
        obj.address for obj in heap if obj.has_weak_slots
    }
    # The counters hold every tabled object, pending garbage included.
    walked: dict = {}
    for obj in heap:
        count, nbytes = walked.get(obj.cls.name, (0, 0))
        walked[obj.cls.name] = (count + 1, nbytes + obj.size_bytes)
    assert walked == {cls.name: tuple(row) for cls, row in heap._live_by_class.items() if row[0]}


def run_twins(collector: str, sweep_mode, script) -> None:
    heap_bytes, ops = script
    with reference_sweep():
        reference = Twin(collector, sweep_mode, heap_bytes)
        checkpoints = []
        for op in ops:
            reference.step(op)
            checkpoints.append(reference.state())
        reference.vm.collector.sweep_all()
        checkpoints.append(reference.state())
    fused = Twin(collector, sweep_mode, heap_bytes)
    for op, expected in zip(ops, checkpoints):
        fused.step(op)
        assert fused.state() == expected, f"diverged at {op}"
        books_balance(fused.vm)
    fused.vm.collector.sweep_all()
    assert fused.state() == checkpoints[-1]
    books_balance(fused.vm)


# -- the differential ---------------------------------------------------------------------


@pytest.mark.parametrize("collector, sweep_mode", SWEEPING)
def test_fused_sweep_equals_reference(collector, sweep_mode):
    @settings(max_examples=40, deadline=None)
    @given(script=scripts(collector))
    def run(script):
        run_twins(collector, sweep_mode, script)

    run()


@pytest.mark.parametrize("collector, sweep_mode", ALL_MODES)
def test_census_from_counters_equals_walk(collector, sweep_mode):
    @settings(max_examples=25, deadline=None)
    @given(script=scripts(collector))
    def run(script):
        heap_bytes, ops = script
        twin = Twin(collector, sweep_mode, heap_bytes)
        for op in ops:
            twin.step(op)
            books_balance(twin.vm)
        twin.vm.gc("closing")
        books_balance(twin.vm)
        twin.vm.collector.sweep_all()
        books_balance(twin.vm)
        assert twin.vm.heap.live_by_class() == twin.vm.heap.live_by_class_slow()

    run()


def test_lazy_sweep_spares_installs_made_after_the_cutoff():
    vm = VirtualMachine(heap_bytes=1 << 20, sweep_mode="lazy")
    node = vm.define_class("Node", [("a", FieldKind.REF)])
    garbage = [vm.collector.allocate(node) for _ in range(50)]
    vm.gc("mark only")
    assert vm.collector.sweep_debt() > 0
    late = [vm.collector.allocate(node) for _ in range(20)]  # unmarked, in pending chunks
    assert all(obj.alloc_seq > vm.heap.sweep_cutoff for obj in late)
    vm.collector.sweep_all()
    assert all(obj.is_freed for obj in garbage)
    assert not any(obj.is_freed for obj in late)
    assert vm.heap.live_by_class() == {"Node": (20, 20 * node.instance_size)}
    books_balance(vm)


def test_dead_weak_holders_leave_the_holder_set():
    vm = VirtualMachine(heap_bytes=1 << 20)
    holder = vm.define_class("Holder", [("w", FieldKind.WEAK)])
    kept = vm.collector.allocate(holder)
    vm.statics.set_ref("kept", kept.address)
    dropped = [vm.collector.allocate(holder) for _ in range(5)]
    dropped_array = vm.collector.allocate(vm.array_class(FieldKind.WEAK), 3)
    assert len(vm.heap.weak_holders) == 7
    vm.gc("drop")
    assert vm.heap.weak_holders == {kept}
    assert all(obj.is_freed for obj in dropped + [dropped_array])
    books_balance(vm)


@pytest.mark.parametrize("sweep_mode", ["eager", "lazy"])
def test_corrupted_address_raises_the_same_error_with_the_same_partial_state(sweep_mode):
    def run(vm: VirtualMachine):
        node = vm.define_class("Node", [("a", FieldKind.REF), ("n", FieldKind.INT)])
        objects = [vm.collector.allocate(node) for _ in range(40)]
        for index in (3, 17, 30):
            vm.statics.set_ref(f"keep.{index}", objects[index].address)
        objects[20].address += 1 << 20  # the table still files it under the old address
        with pytest.raises(InvalidAddressError) as caught:
            vm.gc("corrupt")
            vm.collector.sweep_all()
        heap = vm.heap
        return {
            "error": str(caught.value),
            "freed": [obj.is_freed for obj in objects],
            "statuses": [obj.status for obj in objects],
            "table": sorted(heap.address_table()),
            "heap_stats": heap.stats.snapshot(),
            "live_bytes": heap.live_bytes(),
            "counters": vm.stats.snapshot()["counters"],
            "debt": vm.collector.sweep_debt(),
        }

    with reference_sweep():
        expected = run(VirtualMachine(heap_bytes=1 << 20, sweep_mode=sweep_mode))
    fused_vm = VirtualMachine(heap_bytes=1 << 20, sweep_mode=sweep_mode)
    assert run(fused_vm) == expected
    # Everything before the corrupt cell was evicted and accounted, nothing
    # after it was touched, and the books still match the table.
    assert expected["freed"][:20] == [i not in (3, 17) for i in range(20)]
    assert not any(expected["freed"][20:])
    assert fused_vm.heap.live_bytes() == fused_vm.heap.live_bytes_slow()
    assert fused_vm.heap.live_by_class() == fused_vm.heap.live_by_class_slow()


def test_evict_and_the_sweep_share_one_ledger():
    vm = VirtualMachine(heap_bytes=1 << 20)
    node = vm.define_class("Node", [("a", FieldKind.REF)])
    array = vm.array_class(node)
    single = vm.collector.allocate(array, 5)
    swept = vm.collector.allocate(array, 5)
    before = (vm.heap.stats.snapshot(), vm.heap.live_bytes(), vm.heap.live_by_class())
    vm.heap.evict(single)
    after_evict = (vm.heap.stats.snapshot(), vm.heap.live_bytes(), vm.heap.live_by_class())
    count, freed, by_class = vm.heap.sweep_cells([(swept.address, 64)], vm.heap.install_seq)
    assert (count, freed, by_class) == (1, {swept.address}, {64: [swept.address]})
    after_sweep = (vm.heap.stats.snapshot(), vm.heap.live_bytes(), vm.heap.live_by_class())
    size = array.size_of(5)
    for earlier, later in ((before, after_evict), (after_evict, after_sweep)):
        assert later[0]["objects_freed"] == earlier[0]["objects_freed"] + 1
        assert later[0]["bytes_freed"] == earlier[0]["bytes_freed"] + size
        assert later[1] == earlier[1] - size
    assert before[2] == {"Node[]": (2, 2 * size)} and after_sweep[2] == {}
    assert single.is_freed and swept.is_freed


def test_survivors_are_left_exactly_as_they_were():
    vm = VirtualMachine(heap_bytes=1 << 20)
    node = vm.define_class("Node", [("a", FieldKind.REF)])
    survivor = vm.collector.allocate(node)
    doomed = vm.collector.allocate(node)
    survivor.status |= hdr.FLAG_MASK & ~(hdr.MARK_BIT | hdr.FREED_BIT)
    before = survivor.status
    vm.heap.marks.add(survivor.address)
    cells = [(survivor.address, 32), (doomed.address, 32)]
    count, freed, by_class = vm.heap.sweep_cells(cells, vm.heap.install_seq)
    assert (count, freed, by_class) == (2, {doomed.address}, {32: [doomed.address]})
    # The sweep does not visit a survivor: not its mark (the set is dropped
    # whole, by whoever finishes the sweep), not any header bit.
    assert survivor.status == before
    assert vm.heap.marks == {survivor.address}
    assert vm.heap.get(survivor.address) is survivor
