"""Small-heap model checker: enumeration, the full matrix, and a broken
collector it must catch.

The harness (:mod:`repro.verify.modelcheck`) is itself load-bearing — it
gates CI — so these tests pin three things: the shape enumerator really
is exhaustive-modulo-isomorphism, the real collectors pass the whole
matrix at a useful scope, and a deliberately unsound collector (one that
drops a mark bit before sweeping) is caught, not waved through.
"""

from __future__ import annotations

import pytest

from repro.heap import header as hdr
from repro.gc.marksweep import MarkSweepCollector
from repro.runtime.vm import VirtualMachine
from repro.verify import (
    Cell,
    HeapShape,
    default_cells,
    enumerate_shapes,
    run_model_check,
)
from repro.verify.modelcheck import (
    MODEL_HEAP_BYTES,
    canonical_form,
    enumerate_ownership_shapes,
)


# -- enumeration ------------------------------------------------------------------------


def test_shapes_respect_the_scope_bounds():
    shapes = enumerate_shapes(max_objects=3, max_edges=2, max_roots=1)
    assert shapes, "empty scope"
    for shape in shapes:
        assert 1 <= shape.n <= 3
        assert shape.edge_count() <= 2
        assert len(shape.roots) <= 1
        for l, r in shape.slots:
            assert l is None or 0 <= l < shape.n
            assert r is None or 0 <= r < shape.n


def test_single_object_shapes_are_exactly_eight():
    # One node: left in {null, self} x right in {null, self} x rooted or
    # not = 8 distinct configurations, none isomorphic to another.
    shapes = [s for s in enumerate_shapes(1, 3, 2) if s.n == 1]
    assert len(shapes) == 8


def test_isomorphic_shapes_are_deduplicated():
    # 0 -> 1 and 1 -> 0 (root on the source) are the same graph relabelled.
    a = canonical_form(2, ((1, None), (None, None)), (0,))
    b = canonical_form(2, ((None, None), (0, None)), (1,))
    assert a == b

    # ...and only one representative of the class survives enumeration.
    shapes = enumerate_shapes(2, 1, 1)
    keys = [canonical_form(s.n, s.slots, s.roots) for s in shapes]
    assert len(keys) == len(set(keys))


def test_enumeration_scope_grows_monotonically():
    small = len(enumerate_shapes(2, 2, 1))
    bigger = len(enumerate_shapes(3, 2, 1))
    assert bigger > small


def test_reachability_oracle_handles_cycles_and_dead_subgraphs():
    # 0 <-> 1 cycle rooted at 0; 2 -> 0 is garbage pointing into the live set.
    shape = HeapShape(3, ((1, None), (0, None), (0, None)), (0,))
    assert shape.reachable() == {0, 1}


# -- the real matrix --------------------------------------------------------------------


def test_full_matrix_passes_at_small_scope():
    """Every cell x every canonical shape at N=2: zero violations."""
    report = run_model_check(max_objects=2, max_edges=2, max_roots=1)
    assert report.ok, report.render()
    assert len(report.cell_labels) == len(default_cells())
    assert report.runs == report.shape_count * len(report.cell_labels)


def test_marksweep_asserted_cell_passes_at_depth_three():
    """One asserted cell through the full N=3 shape set (845+ shapes)."""
    cells = [Cell("marksweep", "lazy", 0, True)]
    report = run_model_check(max_objects=3, max_edges=3, max_roots=2, cells=cells)
    assert report.ok, report.render()
    # Shape-count floor: the N=3/E=3/R=2 scope has a known census; a
    # shrinking count means the enumerator silently lost coverage.
    assert report.shape_count >= 988
    assert report.shapes_by_n[1] == 8
    assert report.shapes_by_n[2] == 135


# -- ownership shapes -------------------------------------------------------------------
#
# Nodes: first=0, middle=1, foreign=2, second=3.  ``tests/test_ownership_fused.py``
# writes these four by hand (with a fifth object to make ``first`` an owner;
# here ``first`` owns ``middle``); the enumeration must contain each of them.

HAND_WRITTEN = {
    "only_path": (((1, None), (2, None), (None, None), (None, None)), (0, 3)),
    "shared_ownee": (((1, None), (2, None), (None, None), (2, None)), (0, 3)),
    "nested_owner": (((1, None), (2, 3), (None, None), (None, None)), (0,)),
    "owner_only_from_its_own_region": (((1, None), (2, 0), (None, None), (None, None)), (3,)),
}
HAND_WRITTEN_OWNERS = ((0, 1), (3, 2))


def test_ownership_shapes_are_canonical_and_contain_the_hand_written_ones():
    labelled = enumerate_ownership_shapes(4, 3, 2)
    keys = {canonical_form(s.n, s.slots, s.roots, owners) for s, owners in labelled}
    assert len(keys) == len(labelled) == 14260
    for shape, owners in labelled:
        # The registry's rule, and nothing stricter: one owner per object.
        assert owners[0][1] != owners[1][1]
    for name, (slots, roots) in HAND_WRITTEN.items():
        assert canonical_form(4, slots, roots, HAND_WRITTEN_OWNERS) in keys, name
    # Two objects that own each other are the smallest labelling.
    assert {s.n for s, _owners in labelled} == {2, 3, 4}
    assert enumerate_ownership_shapes(1, 3, 2) == []


def test_ownership_shapes_pass_in_asserted_cells_and_are_counted_apart():
    cells = [
        Cell("marksweep", "lazy", 0, True),
        Cell("generational", "eager", 0, True),
        Cell("semispace", "eager", 0, True),
        Cell("marksweep", "eager", 0, False),
    ]
    report = run_model_check(max_objects=4, max_edges=3, max_roots=1, cells=cells)
    assert report.ok, report.render()
    assert report.runs == report.shape_count * 4
    assert report.ownership_shape_count == 6803
    assert report.ownership_runs == 6803 * 3  # the base cell asserts nothing
    assert "ownership: 6803 labelled shapes" in report.render()


def _convictions(monkeypatch, name, stub) -> list:
    """The default enumeration, in one asserted cell, against an engine
    whose ``name`` is replaced by ``stub``."""
    from repro.core.engine import AssertionEngine

    monkeypatch.setattr(AssertionEngine, name, stub)
    cells = [Cell("marksweep", "eager", 0, True)]
    report = run_model_check(max_objects=4, max_edges=3, max_roots=2, cells=cells)
    assert not report.ok
    return report.violations


def test_ownership_enumeration_convicts_an_engine_without_the_foreign_ownee_trace(monkeypatch):
    """PR 21's bug, found by enumeration: phase 1 refuses to mark another
    owner's ownee, the root scan prunes above it, and unless ``post_mark``
    traces from it (step 1 of the judgment) the sweep frees it under a live
    reference."""
    from repro.core.engine import AssertionEngine

    judge = AssertionEngine._judge_phase1_marks

    def no_late_trace(engine, collector, tracer):
        engine._foreign_ownees = []
        judge(engine, collector, tracer)

    convictions = _convictions(monkeypatch, "_judge_phase1_marks", no_late_trace)
    assert any("Soundness1" in v for v in convictions), convictions[:5]
    assert any("verify_heap" in v for v in convictions), convictions[:5]
    # Nothing without an ownership labelling sees it.
    assert all("owners=" in v for v in convictions), convictions[:5]


def test_ownership_enumeration_convicts_an_engine_that_never_walks(monkeypatch):
    """Steps 1 and 2 of the judgment without the walk: owners left unsettled
    by a back edge or a cycle among owners keep each other marked for ever."""
    convictions = _convictions(monkeypatch, "_walk", lambda engine, collector: None)
    assert any("heap not empty after teardown" in v for v in convictions), convictions[:5]


@pytest.mark.parametrize(
    "cycle", ["mutual", "owned_owner_with_a_foreign_back_edge", "owners_point_at_each_other"]
)
def test_garbage_in_an_ownership_cycle_is_eventually_collected(cycle):
    """What the enumeration finds once an object may be on both sides of an
    assertion, or two owners point at each other: each owner's scan marks
    the other, or an owned owner's garbage region reaches its own owner.
    The judgment's walk, or its second step, lets the island go."""
    from repro.heap.object_model import FieldKind

    vm = VirtualMachine(heap_bytes=MODEL_HEAP_BYTES)
    node = vm.define_class("CNode", [("left", FieldKind.REF), ("right", FieldKind.REF)])
    with vm.scope("cycle"):
        a, b, c = (vm.new(node) for _ in range(3))
        if cycle == "mutual":
            b["left"], b["right"] = a, b
            vm.assertions.assert_ownedby(a, b)
            vm.assertions.assert_ownedby(b, a)
        elif cycle == "owned_owner_with_a_foreign_back_edge":
            b["right"], c["left"], c["right"] = a, b, c
            vm.assertions.assert_ownedby(a, c)
            vm.assertions.assert_ownedby(c, b)
        else:
            d = vm.new(node)
            a["left"], a["right"], b["left"], b["right"] = b, c, a, d
            vm.assertions.assert_ownedby(a, c)
            vm.assertions.assert_ownedby(b, d)
    for _ in range(8):
        vm.gc("nothing is rooted")
    assert len(vm.heap) == 0


# -- the broken collector ---------------------------------------------------------------


class _DropOneMarkCollector(MarkSweepCollector):
    """Marks correctly, then silently unmarks one live object.

    The classic incremental-update bug shape: an object the trace proved
    live loses its mark before the sweep, so the sweep frees it.  The
    model checker must convict this collector of Soundness1 violations.
    """

    def _run_mark_phase(self, tracer):
        result = super()._run_mark_phase(tracer)
        marks = self.heap.marks
        if marks:
            marks.discard(max(marks))
        return result


def test_model_checker_convicts_a_mark_dropping_collector():
    def factory(cell):
        collector = _DropOneMarkCollector(MODEL_HEAP_BYTES)
        return VirtualMachine(
            heap_bytes=MODEL_HEAP_BYTES,
            collector=collector,
            assertions=False,
            telemetry=False,
        )

    cells = [Cell("marksweep", "eager", 0, False)]
    report = run_model_check(max_objects=2, max_edges=2, max_roots=1,
                             cells=cells, vm_factory=factory)
    assert not report.ok
    assert any("Soundness1" in v for v in report.violations), report.violations[:5]
    assert "FAIL" in report.render()


def test_report_renders_shape_census_and_verdict():
    report = run_model_check(max_objects=1, max_edges=1, max_roots=1)
    text = report.render()
    assert "shapes:" in text and "cells:" in text
    assert "PASS" in text
