"""The mark lives beside the heap: ``ObjectHeap.marks``.

One address-keyed set per collection is the only mark there is.  These
tests pin what that representation promises:

* **lifetime** — an eager collection leaves the set empty, a lazy one
  keeps it exactly until the last chunk is swept, and an aborted mark
  starts over from an empty set without walking the heap;
* **contents** (Hypothesis, against brute force) — at mark end the set is
  the root-reachable objects plus the phase-1 owner regions, and after the
  sweep the table holds exactly those plus what was installed afterwards;
* **two mutants the oracles must convict** — a lazy sweeper that drops the
  set at pause end (frees survivors), and a drain that marks a child
  without checking the table (a dangling child no longer raises at the
  edge that found it);
* **a deterministic perf gate** — under ``sys.setprofile`` a drain enters
  no Python function per object and reads no ``status`` on a repeat edge,
  and sweeping an all-live chunk makes no per-cell Python call — so the
  object touch cannot creep back unnoticed.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidAddressError
from repro.gc.marksweep import MarkSweepCollector
from repro.gc.stats import GcStats
from repro.gc.tracer import Tracer
from repro.heap import heap as heap_module
from repro.heap.heap import ObjectHeap
from repro.heap.layout import NULL
from repro.heap.object_model import FieldKind, HeapObject
from repro.runtime.vm import VirtualMachine
from repro.snapshot.capture import SnapshotSink
from repro.verify import Cell, run_model_check
from repro.verify.modelcheck import MODEL_HEAP_BYTES

from tests.conftest import build_chain, make_node_class, oracle_reachable
from tests.test_call_budget import python_calls

# -- helpers ------------------------------------------------------------------------------


def root_reachable(vm: VirtualMachine) -> set[int]:
    return oracle_reachable(vm.heap, [address for _desc, address in vm.root_entries()])


def graph_vm(nodes: int, seed: int = 3, **options) -> VirtualMachine:
    """A spine through every node plus one random cross link per node, so
    about half the edges are repeat encounters; one static root."""
    vm = VirtualMachine(heap_bytes=8 << 20, **options)
    cls = vm.define_class("G", [("next", FieldKind.REF), ("cross", FieldKind.REF), ("id", FieldKind.INT)])
    rng = random.Random(seed)
    objects = [vm.collector.allocate(cls) for _ in range(nodes)]
    for index, obj in enumerate(objects[1:], 1):
        objects[index - 1].slots[0] = obj.address
        obj.slots[1] = objects[rng.randrange(index)].address
    vm.statics.set_ref("graph", objects[0].address)
    return vm


# -- lifetime: release what the pause borrowed --------------------------------------------------


@pytest.mark.parametrize(
    "options",
    [
        dict(collector="marksweep", sweep_mode="eager"),
        dict(collector="generational"),
        dict(collector="semispace"),
        dict(collector="marksweep", sweep_mode="eager", gc_workers=2),
    ],
    ids=["marksweep-eager", "generational-eager", "semispace", "marksweep-eager-2"],
)
def test_side_marks_eager_collection_leaves_the_set_empty(options):
    vm = VirtualMachine(heap_bytes=1 << 20, **options)
    cls = make_node_class(vm)
    nodes = build_chain(vm, cls, 40)
    seen_at_mark_end = []
    finish = vm.collector._finish_collection
    vm.collector._finish_collection = lambda *a: (seen_at_mark_end.append(len(vm.heap.marks)), finish(*a))
    for _ in range(3):
        vm.gc("eager")
        assert len(vm.heap.marks) == 0
    assert all(node.is_live for node in nodes)
    # Not merely emptied late: by the time the pause's epilogue runs the
    # sweep (or the evacuation) has already released the set.
    assert set(seen_at_mark_end) <= {0}


def test_side_marks_lazy_collection_keeps_the_set_until_the_last_chunk():
    vm = VirtualMachine(heap_bytes=1 << 20, sweep_mode="lazy")
    cls = make_node_class(vm)
    allocate = vm.collector.allocate
    keep = [allocate(cls) for _ in range(3000)]
    for index, obj in enumerate(keep[1:], 1):
        keep[index - 1].slots[0] = obj.address
    vm.statics.set_ref("keep", keep[0].address)
    garbage = [allocate(cls) for _ in range(3000)]
    vm.gc("mark only")
    sweeper = vm.collector._sweeper
    assert sweeper.debt > 1
    marked = set(vm.heap.marks)
    assert marked == {obj.address for obj in keep}
    while sweeper.debt > 1:
        sweeper.sweep_chunks(1)
        assert vm.heap.marks == marked, "the unswept chunks still need every mark"
    sweeper.sweep_chunks(1)  # the last chunk: the same call drops the set
    assert sweeper.debt == 0 and len(vm.heap.marks) == 0
    assert all(not obj.is_freed for obj in keep) and all(obj.is_freed for obj in garbage)


def test_side_marks_aborted_mark_restarts_from_an_empty_set_without_a_heap_walk(monkeypatch):
    vm = VirtualMachine(heap_bytes=1 << 20, hardened=True)
    cls = make_node_class(vm)
    nodes = build_chain(vm, cls, 30)
    vm.assertions.assert_ownedby(nodes[0], nodes[1], site="own")
    collector, heap = vm.collector, vm.heap

    drains = []
    real_drain = Tracer.drain

    def drain_failing_once(tracer):
        drains.append(tracer)
        if len(drains) == 1:
            raise InvalidAddressError("injected mid-mark fault")
        real_drain(tracer)

    monkeypatch.setattr(Tracer, "drain", drain_failing_once)

    observed = {}
    real_clear = collector._clear_all_marks

    def watched_clear():
        observed["marks_before"] = len(heap.marks)
        observed["owned_log"] = len(vm.engine._found_ownees)
        observed["ownee_marked"] = nodes[1].obj.address in heap.marks
        walks = []
        with monkeypatch.context() as patch:
            patch.setattr(ObjectHeap, "__iter__", lambda self: walks.append("iter") or iter(()))
            patch.setattr(ObjectHeap, "objects", lambda self: walks.append("objects") or [])
            real_clear()
        observed["walks"] = walks
        observed["marks_after"] = len(heap.marks)

    collector._clear_all_marks = watched_clear
    vm.gc("recovers")
    # Phase 1 and the root scan had marked something when the drain failed
    # — the ownee among it, by its mark alone: two-phase mode keeps no set
    # of found ownees — and the reset neither walked the heap nor left any
    # of it.
    assert observed["marks_before"] > 0 and observed["ownee_marked"]
    assert observed["owned_log"] == 0
    assert observed == dict(observed, walks=[], marks_after=0)
    # The retry's tracer started a set of its own and finished the job.
    assert len(drains) == 2 and drains[0]._marks is not drains[1]._marks
    assert all(node.is_live for node in nodes) and len(heap.marks) == 0
    assert collector.recovery.heap_degradations == 1


# -- contents: the twin-heap property ---------------------------------------------------------


@st.composite
def island_heaps(draw):
    """A random heap in groups: group 0 is free-standing, every other group
    is one owner's island.  Edges stay inside a group or go to group 0, so
    no owner's region reaches another owner or a foreign ownee (that
    interplay is ``tests/test_ownership_fused.py``'s subject) and the
    brute-force expectation stays two lines long."""
    groups = draw(st.integers(1, 4))
    size = draw(st.integers(4, 40))
    group_of = [draw(st.integers(0, groups - 1)) for _ in range(size)]
    edges = []
    for src in range(size):
        for slot in range(2):
            if draw(st.integers(0, 9)) < 7:
                dst = draw(st.integers(0, size - 1))
                if group_of[dst] in (0, group_of[src]):
                    edges.append((src, slot, dst))
    roots = draw(st.lists(st.integers(0, size - 1), max_size=4, unique=True))
    owners = {}
    for group in range(1, groups):
        members = [i for i in range(size) if group_of[i] == group]
        if len(members) >= 2:
            owner = draw(st.sampled_from(members))
            ownees = draw(st.lists(st.sampled_from([m for m in members if m != owner]), max_size=3, unique=True))
            if ownees:
                owners[owner] = ownees
    late = draw(st.integers(0, 6))
    return size, edges, roots, owners, late


@pytest.mark.parametrize(
    "options",
    [dict(sweep_mode="eager"), dict(sweep_mode="lazy"), dict(sweep_mode="eager", gc_workers=2)],
    ids=["eager", "lazy", "workers2"],
)
def test_side_marks_are_reachable_plus_owner_regions_and_the_table_follows(options):
    @settings(max_examples=120, deadline=None)
    @given(spec=island_heaps())
    def run(spec):
        size, edges, roots, owners, late = spec
        vm = VirtualMachine(heap_bytes=1 << 20, **options)
        cls = vm.define_class("N", [("a", FieldKind.REF), ("b", FieldKind.REF), ("n", FieldKind.INT)])
        heap, collector = vm.heap, vm.collector
        with vm.scope("build"):
            handles = [vm.new(cls, n=i) for i in range(size)]
            for src, slot, dst in edges:
                handles[src]["ab"[slot]] = handles[dst]
            for k, index in enumerate(roots):
                vm.statics.set_ref(f"r{k}", handles[index].address)
            for owner, ownees in owners.items():
                for ownee in ownees:
                    vm.assertions.assert_ownedby(handles[owner], handles[ownee], site="own")
            address = [h.address for h in handles]

        # Brute force.  An owner's region is everything below its children;
        # a region that reaches its own owner and has no root to justify it
        # would keep itself alive, so those marks are taken back.
        live = root_reachable(vm)
        expected = set(live)
        for owner in owners:
            region = oracle_reachable(heap, heap.get(address[owner]).reference_slots())
            if not (address[owner] in region and address[owner] not in live):
                expected |= region

        at_mark_end = []
        mark_phase = collector._run_mark_phase

        def watched_mark_phase(tracer):
            tracer = mark_phase(tracer)
            at_mark_end.append(set(heap.marks))
            return tracer

        collector._run_mark_phase = watched_mark_phase
        vm.gc("property")
        assert at_mark_end == [expected]
        assert heap.marks <= heap.address_table().keys()

        installed_late = {collector.allocate(cls).address for _ in range(late)}
        collector.sweep_all()
        assert len(heap.marks) == 0
        assert set(heap.address_table()) == expected | installed_late

    run()


# -- conviction 1: a lazy sweeper that drops the set at pause end ----------------------------------


class _DropsMarksAtPauseEnd(MarkSweepCollector):
    """The tempting simplification: the pause is over, release the set.
    Every unswept survivor then looks dead."""

    def collect(self, reason: str = "explicit") -> None:
        super().collect(reason)
        self.heap.new_marks()


def test_side_marks_model_checker_convicts_a_sweeper_that_drops_the_set_at_pause_end():
    def factory(cell):
        collector = _DropsMarksAtPauseEnd(MODEL_HEAP_BYTES, sweep_mode="lazy")
        return VirtualMachine(heap_bytes=MODEL_HEAP_BYTES, collector=collector, assertions=False, telemetry=False)

    cells = [Cell("marksweep", "lazy", 0, False)]
    report = run_model_check(max_objects=2, max_edges=2, max_roots=1, cells=cells, vm_factory=factory)
    assert not report.ok
    assert any("Soundness1" in v for v in report.violations), report.violations[:5]
    assert any("Marks:" in v for v in report.violations), report.violations[:5]
    # ...and the collector it was derived from passes the same scope.
    assert run_model_check(max_objects=2, max_edges=2, max_roots=1, cells=cells).ok


# -- conviction 2: a drain that marks without the table test ---------------------------------------


def dangling_edge_problems(make_tracer) -> list[str]:
    """Trace ``root -> a -> {dangling, b}`` and say what is wrong with how
    the drain treats the dangling child: it must raise the typed error at
    the edge that found it, having counted that edge and nothing after."""
    vm = VirtualMachine(heap_bytes=1 << 20)
    cls = vm.define_class("D", [("x", FieldKind.REF), ("y", FieldKind.REF)])
    a, b = vm.collector.allocate(cls), vm.collector.allocate(cls)
    bogus = 0xDEAD0
    a.slots[:] = [bogus, b.address]
    stats = GcStats()
    tracer = make_tracer(vm, stats)
    tracer.scan_roots([("root", a.address)])
    problems = []
    try:
        tracer.drain()
    except InvalidAddressError as exc:
        if f"{bogus:#x}" not in str(exc):
            problems.append(f"error names the wrong address: {exc}")
    except Exception as exc:
        problems.append(f"untyped {type(exc).__name__}: {exc}")
    else:
        problems.append("the drain finished over a dangling child")
    if bogus in vm.heap.marks:
        problems.append("the dangling address was marked")
    if stats.edges_traced != 1:
        problems.append(f"stopped after {stats.edges_traced} edges, not at the first")
    if stats.objects_traced != 1 or b.address in vm.heap.marks:
        problems.append("traced past the dangling edge")
    return problems


DRAINS = {
    "plain": lambda vm, s: Tracer(vm.heap, s, None, track_paths=False),
    "paths": lambda vm, s: Tracer(vm.heap, s, None, track_paths=True),
    "engine-unarmed": lambda vm, s: Tracer(vm.heap, s, vm.engine, track_paths=True),
    "engine-unarmed-nopaths": lambda vm, s: Tracer(vm.heap, s, vm.engine, track_paths=False),
    # A tracer handed a sink drains like any other and fills it afterwards.
    "snapshot": lambda vm, s: Tracer(vm.heap, s, None, True, True, SnapshotSink("", heap=vm.heap, moving=False)),
    "generic": lambda vm, s: Tracer(vm.heap, s, None, track_paths=True, specialized=False),
    "generic-plain": lambda vm, s: Tracer(vm.heap, s, None, track_paths=False, specialized=False),
}


def _armed(track_paths):
    def make_tracer(vm, stats):
        bystander = vm.collector.allocate(vm.classes.get("D"))
        vm.assertions.assert_dead(bystander, site="arms the engine")
        return Tracer(vm.heap, stats, vm.engine, track_paths=track_paths)

    return make_tracer


DRAINS["engine-armed"] = _armed(True)
DRAINS["engine-armed-nopaths"] = _armed(False)


@pytest.mark.parametrize("drain", sorted(DRAINS))
def test_side_marks_dangling_child_raises_at_the_edge_that_found_it(drain):
    assert dangling_edge_problems(DRAINS[drain]) == []


def test_side_marks_every_drain_counts_the_same_objects_and_edges():
    """Specialisation changes the cost of an edge, never whether it counts."""
    seen = {}
    for name, make_tracer in sorted(DRAINS.items()):
        vm = graph_vm(GRAPH_NODES)
        vm.define_class("D", [("x", FieldKind.REF)])  # what "engine-armed" allocates
        stats = GcStats()
        tracer = make_tracer(vm, stats)
        tracer.trace(vm.root_entries())
        seen[name] = (stats.objects_traced, stats.edges_traced)
        if tracer.track_paths:
            assert stats.path_entries_tagged == stats.objects_traced, name
        if tracer.snapshot is not None:
            assert set(tracer.snapshot.rows) == vm.heap.marks and len(vm.heap.marks) == GRAPH_NODES
            assert tracer.snapshot.roots == list(vm.root_entries())
    # Every node is marked once (the root by the root scan, like the rest);
    # every node but the first has one spine edge in and one cross edge out.
    assert set(seen.values()) == {(GRAPH_NODES, 2 * GRAPH_NODES - 2)}, seen


def test_side_marks_every_drain_loop_is_reached_by_some_entry(monkeypatch):
    """``DRAINS`` is what puts a loop under the two oracles above, so a
    ``Tracer._drain_*`` that no entry reaches is a loop nothing checks."""
    loops = sorted(name for name in vars(Tracer) if name.startswith("_drain_"))
    reached = set()

    def recorded(name, loop):
        def wrapper(tracer, *args, **kwargs):
            reached.add(name)
            return loop(tracer, *args, **kwargs)

        return wrapper

    for name in loops:
        monkeypatch.setattr(Tracer, name, recorded(name, getattr(Tracer, name)))
    for make_tracer in DRAINS.values():
        vm = graph_vm(8)
        vm.define_class("D", [("x", FieldKind.REF)])  # what "engine-armed" allocates
        make_tracer(vm, GcStats()).trace(vm.root_entries())
    assert loops and reached == set(loops)


class _MarksWithoutTheTableTest(Tracer):
    """``_drain_plain`` without its table test: the child goes into the set
    unchecked, and the miss surfaces as whatever the lookup that resolves
    it for the stack happens to raise."""

    __slots__ = ()

    def _drain_plain(self, credit_header_checks: bool = False) -> None:
        stack, table, marks = self._stack, self._table, self._marks
        objects = edges = 0
        try:
            while stack:
                obj = stack.pop()
                for child in obj.reference_slots():
                    if child == NULL:
                        continue
                    edges += 1
                    if child in marks:
                        continue
                    marks.add(child)
                    objects += 1
                    stack.append(table[child])
        finally:
            self.stats.objects_traced += objects
            self.stats.edges_traced += edges


def test_side_marks_oracle_convicts_a_drain_without_the_table_test():
    problems = dangling_edge_problems(
        lambda vm, s: _MarksWithoutTheTableTest(vm.heap, s, None, track_paths=False)
    )
    assert any("untyped KeyError" in p for p in problems), problems
    assert "the dangling address was marked" in problems


# -- the perf gate ----------------------------------------------------------------------------


class _CountingObject(HeapObject):
    """A heap object that counts reads of its header word and its stamp."""

    __slots__ = ()
    reads = {"status": 0, "alloc_seq": 0}

    def _counted(name):
        slot = getattr(HeapObject, name)

        def get(self):
            _CountingObject.reads[name] += 1
            return slot.__get__(self)

        return property(get, lambda self, value: slot.__set__(self, value))

    status = _counted("status")
    alloc_seq = _counted("alloc_seq")
    del _counted


@pytest.fixture
def counting_objects(monkeypatch):
    """Every object installed inside the test counts its own header reads."""
    monkeypatch.setattr(heap_module, "HeapObject", _CountingObject)
    reads = _CountingObject.reads
    reads.update(status=0, alloc_seq=0)
    return reads


GRAPH_NODES = 2_000


def gated_calls(fn) -> list[str]:
    """``python_calls(fn)`` with the counting property's own frames left out."""
    return [name for name in python_calls(fn) if "_CountingObject" not in name]


def _drain_cost(vm, reads, engine, track_paths=True, specialized=True):
    """(python calls, status reads, header checks, stats) of one drain of
    the test graph — the drain alone, the root scan not included."""
    stats = GcStats()
    if engine is not None:
        engine.gc_begin(vm.collector)
    tracer = Tracer(vm.heap, stats, engine, track_paths, specialized)
    tracer.scan_roots(vm.root_entries())
    reads.update(status=0, alloc_seq=0)
    checks_before = stats.header_bit_checks
    calls = gated_calls(tracer.drain)
    status_reads = reads["status"]
    vm.heap.new_marks()
    assert stats.objects_traced == GRAPH_NODES
    assert stats.edges_traced == 2 * GRAPH_NODES - 2  # every node but the first: one spine edge in, one cross edge out
    return calls, status_reads, stats.header_bit_checks - checks_before, stats


def _checked_without_engine(vm, reads):
    """The checked drain with no engine reads each first encounter's header
    for ``FREED`` and counts no check; it too enters nothing per object."""
    calls, status_reads, checks, stats = _drain_cost(vm, reads, None, specialized=False)
    assert len(calls) <= 2, calls
    assert status_reads == stats.objects_traced - 1  # the root was met by the root scan
    assert checks == 0


def test_side_marks_unarmed_drain_enters_no_python_per_object_and_reads_no_header(counting_objects):
    vm = graph_vm(GRAPH_NODES)
    assert vm.engine.armed_checks() == (False, False)
    for paths in (True, False):
        calls, status_reads, checks, stats = _drain_cost(vm, counting_objects, vm.engine, paths)
        # A handful of frames for the dispatch, none of them per object.
        assert len(calls) <= 4, (paths, calls)
        assert status_reads == 0, paths
        # The engine loop would have counted one check per edge; so does this.
        assert checks == stats.edges_traced, paths
    for label, engine, paths in (("plain", None, False), ("paths", None, True)):
        calls, status_reads, checks, _ = _drain_cost(vm, counting_objects, engine, paths)
        assert len(calls) <= 2 and status_reads == 0 and checks == 0, (label, calls, status_reads)
    _checked_without_engine(vm, counting_objects)


def test_side_marks_armed_drain_reads_a_header_per_first_encounter_and_none_per_repeat(counting_objects):
    vm = graph_vm(GRAPH_NODES)
    bystander = vm.collector.allocate(vm.classes.get("G"))
    vm.assertions.assert_dead(bystander, site="arms first-encounter checks only")
    assert vm.engine.armed_checks() == (True, False)
    for paths in (True, False):
        calls, status_reads, checks, stats = _drain_cost(vm, counting_objects, vm.engine, paths)
        assert len(calls) <= 4, (paths, calls)
        first_encounters = stats.objects_traced - 1  # the root was met by the root scan
        assert status_reads == first_encounters, paths
        assert stats.edges_traced - first_encounters > GRAPH_NODES // 2, "the graph must have repeat edges"
        assert checks == stats.edges_traced, paths
        assert stats.path_entries_tagged == (stats.objects_traced if paths else 0)
    _checked_without_engine(vm, counting_objects)

    # With an assert-unshared registered a repeat edge has to look: one
    # more read per repeat edge, and still no Python call per object.
    vm.assertions.assert_unshared(bystander, site="arms repeat checks")
    assert vm.engine.armed_checks() == (True, True)
    for paths in (True, False):
        calls, status_reads, checks, stats = _drain_cost(vm, counting_objects, vm.engine, paths)
        assert len(calls) <= 4, (paths, calls)
        assert status_reads == checks == stats.edges_traced, paths
    _checked_without_engine(vm, counting_objects)


@pytest.mark.parametrize("assertions", [True, False], ids=["engine", "base"])
def test_side_marks_root_scan_enters_no_python_per_root(assertions):
    """Every root, a second time as a repeat: the root scan's checks and
    counts are inline, so the scan's frames do not grow with the roots."""
    seen = {}
    for count in (10, 1_000):
        vm = VirtualMachine(heap_bytes=8 << 20, assertions=assertions)
        cls = vm.define_class("R", [("next", FieldKind.REF)])
        objects = [vm.collector.allocate(cls) for _ in range(count)]
        roots = [(f"root {index}", obj.address) for index, obj in enumerate(objects)] * 2
        engine = vm.engine
        if engine is not None:
            vm.assertions.assert_instances(cls, count)
            vm.assertions.assert_dead(objects[-1], site="one slow root")
            engine.gc_begin(vm.collector)
        stats = GcStats()
        tracer = Tracer(vm.heap, stats, engine, track_paths=True)
        seen[count] = gated_calls(lambda: tracer.scan_roots(roots))
        assert stats.objects_traced == count
        if engine is not None:
            assert stats.header_bit_checks == 2 * count
            assert stats.instance_count_increments == count
            assert len(engine._pending) == 1
    assert seen[10] == seen[1_000], seen


def test_side_marks_sweeping_an_all_live_chunk_touches_no_cell(counting_objects):
    vm = graph_vm(GRAPH_NODES, sweep_mode="lazy")
    vm.gc("mark only")
    sweeper = vm.collector._sweeper
    chunk = sweeper.pending[0]
    cells = sweeper.space.chunk_cells(chunk)
    assert len(cells) > 100 and all(address in vm.heap.marks for address, _cell in cells)
    counting_objects.update(status=0, alloc_seq=0)
    calls = gated_calls(lambda: sweeper.sweep_chunks(1))
    assert counting_objects == {"status": 0, "alloc_seq": 0}
    # The slice's own frames (timers, the chunk, the heap's loop) — a
    # constant, where one call per cell would be hundreds.
    assert len(calls) <= 13, calls
    assert vm.stats.objects_swept == len(cells) and vm.stats.objects_freed == 0
