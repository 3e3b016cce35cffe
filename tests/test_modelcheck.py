"""Small-heap model checker: enumeration, the full matrix, and a broken
collector it must catch.

The harness (:mod:`repro.verify.modelcheck`) is itself load-bearing — it
gates CI — so these tests pin three things: the shape enumerator really
is exhaustive-modulo-isomorphism, the real collectors pass the whole
matrix at a useful scope, and a deliberately unsound collector (one that
drops a mark bit before sweeping) is caught, not waved through.
"""

from __future__ import annotations

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
from repro.verify.modelcheck import MODEL_HEAP_BYTES, canonical_form


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
