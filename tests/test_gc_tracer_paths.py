"""The §2.7 path-tracking worklist: full root-to-object paths."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.gc.stats import GcStats
from repro.gc.tracer import Tracer
from repro.heap import header as hdr
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from tests.conftest import build_chain, make_node_class
from tests.test_ownership_fused import build, heap_specs


class TestPathReporting:
    def test_path_runs_root_to_object(self, vm, node_class):
        nodes = build_chain(vm, node_class, 4)
        vm.assertions.assert_dead(nodes[3], site="path-test")
        vm.gc()
        violation = vm.engine.log.violations[0]
        assert violation.path.type_names() == ["Node"] * 4
        assert "static 'head'" in violation.path.root_description

    def test_path_identifies_frame_root(self, vm, node_class):
        frame = vm.current_thread.push_frame("holder_method")
        with vm.scope():
            node = vm.new(node_class)
            frame.set_ref("keeper", node.address)
        vm.assertions.assert_dead(node, site="frame-path")
        vm.gc()
        violation = vm.engine.log.violations[0]
        assert "keeper" in violation.path.root_description
        assert "holder_method" in violation.path.root_description

    def test_path_entries_are_instances_not_just_types(self, vm, node_class):
        nodes = build_chain(vm, node_class, 3)
        vm.assertions.assert_dead(nodes[2], site="instances")
        vm.gc()
        entries = vm.engine.log.violations[0].path.entries
        addresses = [e.address for e in entries]
        assert addresses == [n.obj.address for n in nodes]
        hashes = {e.identity_hash for e in entries}
        assert len(hashes) == 3  # distinct instances

    def test_path_through_arrays_names_array_types(self, vm, node_class):
        with vm.scope():
            arr = vm.new_array(node_class, 3)
            target = vm.new(node_class)
            arr[1] = target
            vm.statics.set_ref("arr", arr.address)
            vm.assertions.assert_dead(target, site="array-path")
        vm.gc()
        names = vm.engine.log.violations[0].path.type_names()
        assert names == ["Node[]", "Node"]

    def test_direct_root_reference_path(self, vm, node_class):
        with vm.scope():
            node = vm.new(node_class)
            vm.statics.set_ref("direct", node.address)
            vm.assertions.assert_dead(node, site="direct")
        vm.gc()
        violation = vm.engine.log.violations[0]
        assert violation.path.type_names() == ["Node"]
        assert "direct" in violation.path.root_description

    def test_figure1_rendering_format(self, vm, node_class):
        nodes = build_chain(vm, node_class, 2)
        vm.assertions.assert_dead(nodes[1], site="fmt")
        vm.gc()
        text = vm.engine.log.violations[0].render()
        assert text.startswith("Warning: an object that was asserted dead is reachable.")
        assert "Type: Node" in text
        assert "Path to object:" in text
        assert "->" in text

    def test_deep_path_complete(self, vm, node_class):
        nodes = build_chain(vm, node_class, 50)
        vm.assertions.assert_dead(nodes[-1], site="deep")
        vm.gc()
        assert len(vm.engine.log.violations[0].path) == 50


class TestPathTrackingToggle:
    def test_disabled_paths_still_detect_violations(self, node_class):
        vm = VirtualMachine(heap_bytes=1 << 20, track_paths=False)
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 3)
        vm.assertions.assert_dead(nodes[2], site="no-paths")
        vm.gc()
        assert len(vm.engine.log) == 1
        violation = vm.engine.log.violations[0]
        assert violation.path is None or len(violation.path) <= 1

    def test_tagged_entries_counted_only_when_tracking(self):
        vm_on = VirtualMachine(heap_bytes=1 << 20, track_paths=True)
        cls_on = make_node_class(vm_on)
        build_chain(vm_on, cls_on, 10)
        vm_on.gc()
        assert vm_on.stats.path_entries_tagged >= 10

        vm_off = VirtualMachine(heap_bytes=1 << 20, track_paths=False)
        cls_off = make_node_class(vm_off)
        build_chain(vm_off, cls_off, 10)
        vm_off.gc()
        assert vm_off.stats.path_entries_tagged == 0

    def test_marking_identical_with_and_without_tracking(self):
        results = []
        for track in (True, False):
            vm = VirtualMachine(heap_bytes=1 << 20, track_paths=track)
            cls = make_node_class(vm)
            nodes = build_chain(vm, cls, 20)
            nodes[10]["next"] = None
            vm.gc()
            results.append(vm.heap.stats.objects_live)
        assert results[0] == results[1]


class _PathProbe(set):
    """A mark set recording the cheap path API at every first encounter
    (the ``paths`` drain calls no hook, so its marks are where its worklist
    is observed)."""

    def add(self, address):
        tracer = self.tracer
        cheap = tracer.current_path_addresses(address)
        root_desc, full = tracer.current_path(tracer.heap.get(address))
        self.rows.append((address, tracer.path_depth(), cheap, full, root_desc))
        super().add(address)


class TestCheapPathApi:
    """current_path_addresses/path_depth: the no-materialization variants."""

    def _trace_with_probe(self, vm):
        from repro.gc.stats import GcStats
        from repro.gc.tracer import Tracer

        tracer = Tracer(vm.heap, GcStats(), None, track_paths=True)
        probe = tracer._marks = _PathProbe()
        probe.tracer, probe.rows = tracer, []
        tracer.trace(vm.root_entries())
        return probe, tracer

    def test_cheap_addresses_agree_with_full_path(self, vm, node_class):
        nodes = build_chain(vm, node_class, 6)
        probe, _tracer = self._trace_with_probe(vm)
        assert probe.rows, "probe saw no encounters"
        for _address, _depth, cheap, full, _root in probe.rows:
            assert cheap == [obj.address for obj in full]

    def test_deepest_node_path_is_the_chain(self, vm, node_class):
        nodes = build_chain(vm, node_class, 6)
        probe, _tracer = self._trace_with_probe(vm)
        tail = nodes[-1].obj.address
        rows = [row for row in probe.rows if row[0] == tail]
        assert rows[0][2] == [n.obj.address for n in nodes]

    def test_depth_counts_parents_only(self, vm, node_class):
        build_chain(vm, node_class, 4)
        probe, _tracer = self._trace_with_probe(vm)
        for _address, depth, cheap, _full, _root in probe.rows:
            # The tip is appended by current_path_addresses; the worklist
            # holds its (possibly empty) parent chain.
            assert depth in (len(cheap), len(cheap) - 1)

    def test_empty_outside_a_drain(self, vm, node_class):
        build_chain(vm, node_class, 3)
        _probe, tracer = self._trace_with_probe(vm)
        assert tracer.current_path_addresses() == []
        assert tracer.path_depth() == 0

    def test_tracking_disabled_returns_just_the_tip(self, vm, node_class):
        from repro.gc.stats import GcStats
        from repro.gc.tracer import Tracer

        tracer = Tracer(vm.heap, GcStats(), None, track_paths=False)
        assert tracer.current_path_addresses(0x1000) == [0x1000]
        assert tracer.current_path_addresses() == []


class TestBaseConfigurationHasNoInfrastructure:
    def test_base_vm_has_no_engine(self, base_vm):
        assert base_vm.engine is None
        assert base_vm.assertions is None

    def test_base_vm_collects_correctly(self, base_vm):
        cls = make_node_class(base_vm)
        nodes = build_chain(base_vm, cls, 6)
        nodes[2]["next"] = None
        base_vm.gc()
        assert base_vm.heap.stats.objects_live == 3

    def test_base_vm_counts_no_header_checks(self, base_vm):
        cls = make_node_class(base_vm)
        build_chain(base_vm, cls, 6)
        base_vm.gc()
        assert base_vm.stats.header_bit_checks == 0


# -- every reported path is a real chain -----------------------------------------------------
#
# §2.7's invariant, checked per step: the tagged (``int``) worklist entries
# are the root-to-current path.  On small random heaps with planted
# assert-dead and assert-unshared, every path a drain reports starts at an
# address a root entry holds, follows heap edges, and ends at the object.


def chain_problems(vm, path: list, tip: int, starts: set) -> list:
    heap = vm.heap
    problems = []
    if not path or path[0] not in starts:
        problems.append(f"path {path} does not start at a root")
    problems += [f"{a:#x} -> {b:#x} is no edge" for a, b in zip(path, path[1:])
                 if b not in heap.get(a).reference_slots()]
    if not path or path[-1] != tip:
        problems.append(f"path {path} does not end at {tip:#x}")
    return problems


def _root_addresses(vm) -> set:
    return {address for _desc, address in vm.root_entries()}


def _no_owners(spec) -> dict:
    return dict(spec, owned_by=[None] * len(spec["kinds"]))


def _reported_paths(vm) -> list:
    """``(path, object)`` per staged violation that carries a path."""
    return [([e.address for e in v.path.entries], v.address)
            for v in vm.engine._pending if v.path is not None and v.path.entries]


class _CheckedMarks(set):
    """A mark set that checks the current path at every mark (the ``paths``
    drain calls no hook, so its marks are where its worklist is observed)."""

    def add(self, address):
        self.problems += chain_problems(self.vm, self.tracer.current_path_addresses(address),
                                        address, self.starts)
        super().add(address)


def _trace_with(vm, drain: str) -> tuple[list, list]:
    engine = None if drain == "paths" else vm.engine
    if engine is not None:
        engine.gc_begin(vm.collector)
    tracer = Tracer(vm.heap, GcStats(), engine, track_paths=True, specialized=drain != "generic")
    starts = _root_addresses(vm)
    problems: list = []
    if drain == "paths":
        marks = tracer._marks = _CheckedMarks()
        marks.vm, marks.tracer, marks.starts, marks.problems = vm, tracer, starts, problems
    tracer.trace(vm.root_entries())
    reported = _reported_paths(vm) if engine is not None else []
    for path, tip in reported:
        problems += chain_problems(vm, path, tip, starts)
    return problems, reported


@pytest.mark.parametrize("drain", ["paths", "engine-armed", "generic"])
def test_every_reported_path_is_a_chain_of_heap_edges(drain):
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(spec=heap_specs())
    def run(spec):
        vm = build(_no_owners(spec))
        problems, reported = _trace_with(vm, drain)
        assert problems == []
        if drain != "paths":
            # Every dead object the roots reach is reported, with its path.
            reached = vm.heap.closure(_root_addresses(vm))
            dead = {a for a in reached if vm.heap.get(a).status & hdr.DEAD_BIT}
            assert {tip for _path, tip in reported} >= dead

    run()


def test_every_path_after_phase_1_and_the_root_scan_is_a_chain_of_heap_edges():
    """Ownership shapes, whole collections: phase 1 reports without a path,
    the root scan (and the late trace from a foreign ownee its holder keeps)
    with one, and each one is a chain."""

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(spec=heap_specs())
    def run(spec):
        vm = build(spec)
        vm.gc("paths")
        engine = vm.engine
        starts = _root_addresses(vm) | {ownee for ownee, _holder in engine._foreign_ownees}
        for v in engine.log:
            if v.path is not None and v.path.entries:
                path = [e.address for e in v.path.entries]
                assert chain_problems(vm, path, v.address, starts) == [], v.render()

    run()
