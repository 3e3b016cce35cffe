"""The fault → invariant coverage matrix, unit-tested off the soak path.

The chaos runner exercises :mod:`repro.verify.coverage` end-to-end (and CI
greps its rendered table); these tests pin the pieces in isolation — the
catalog's key agreement with the injector, each detector's evidence rules
on synthetic cell results, and the matrix's gate/render behaviour.
"""

from __future__ import annotations

from repro.faults import FAULT_KINDS
from repro.faults.chaos import CellResult
from repro.gc.verify import Finding
from repro.verify import (
    FAULT_INVARIANTS,
    CoverageMatrix,
    detect_cell,
    detect_tenant_cell,
)


def _cell(**overrides) -> CellResult:
    result = CellResult(collector="marksweep", sweep_mode="eager",
                        workload="synthetic", seed=0)
    for name, value in overrides.items():
        setattr(result, name, value)
    return result


# -- the catalog ------------------------------------------------------------------------


def test_catalog_covers_exactly_the_injectors_fault_kinds():
    # coverage.py cannot import repro.faults (chaos.py imports coverage.py);
    # this test is the promised key-agreement check.
    assert set(FAULT_INVARIANTS) == set(FAULT_KINDS)


def test_every_catalog_entry_names_an_invariant_and_evidence():
    for kind, (invariant, how) in FAULT_INVARIANTS.items():
        assert invariant and " " not in invariant, (kind, invariant)
        assert how


# -- detect_cell evidence rules ---------------------------------------------------------


def test_injected_violation_discriminators_map_to_assert_verdicts():
    found = detect_cell(
        _cell(injected_dead_violations=3, injected_unshared_violations=1), [], 0
    )
    assert "3 site=None DEAD" in found["flip-dead"]
    assert "1 site=None UNSHARED" in found["flip-unshared"]


def test_dangling_reference_detected_via_fence_counter_or_probe():
    assert "dangle-ref" in detect_cell(_cell(recovery={"refs_fenced": 1}), [], 0)
    probe = [Finding("reference-closure", "x: dangling reference 0xdead0")]
    assert "dangle-ref" in detect_cell(_cell(), probe, 0)


def test_freelist_corruption_prefers_walker_evidence_over_fence_counter():
    probe = [
        Finding("freelist-live-disjointness", "space: free cell 0x40 (32B) aliases a live object")
    ]
    by_probe = detect_cell(_cell(recovery={"cells_fenced": 5}), probe, 0)
    assert "walker flagged" in by_probe["corrupt-freelist"]

    by_fence = detect_cell(_cell(recovery={"cells_fenced": 5}), [], 0)
    assert "fenced 5" in by_fence["corrupt-freelist"]


def test_alloc_fail_counts_only_when_the_armed_refusal_was_consumed():
    applied = _cell(kinds_applied={"alloc-fail"}, recovery={"oom_recoveries": 1})
    assert "alloc-fail" in detect_cell(applied, [], 0)
    # A refusal still pending means the ladder never absorbed it: no evidence.
    assert "alloc-fail" not in detect_cell(applied, [], 1)


def test_containment_counters_map_to_their_invariants():
    found = detect_cell(
        _cell(
            recovery={"engine_degradations": 1, "snapshot_failures": 2},
            sink_errors=4,
        ),
        [],
        0,
    )
    assert "engine-containment" in found["raise-reaction"]
    assert "4 sink error(s)" in found["raise-sink"]
    assert "2 capture failure(s)" in found["raise-snapshot"]


def test_a_degradation_streamed_as_an_event_is_counted_once():
    # ``note_degraded`` and a failed capture bump ``RecoveryStats`` and also
    # record a degraded event: the evidence reads the counter alone.
    found = detect_cell(
        _cell(
            recovery={"engine_degradations": 1, "snapshot_failures": 1},
            degradations={"engine": 1, "snapshot": 1},
        ),
        [],
        0,
    )
    assert "1 engine degradation(s)" in found["raise-reaction"]
    assert "1 capture failure(s)" in found["raise-snapshot"]


def test_clean_cell_produces_no_evidence():
    assert detect_cell(_cell(), [], 0) == {}


def test_tenant_cell_detects_session_faults():
    class Victim:
        connection_dropped = True
        outcome = "killed"

    found = detect_tenant_cell(None, Victim())
    assert "conn-drop" in found and "session-kill" in found

    class Bystander:
        connection_dropped = False
        outcome = "completed"

    assert detect_tenant_cell(None, Bystander()) == {}


# -- the matrix gate --------------------------------------------------------------------


def test_matrix_gates_on_full_coverage():
    matrix = CoverageMatrix()
    assert not matrix.ok
    assert set(matrix.missing()) == set(FAULT_INVARIANTS)

    for kind in FAULT_INVARIANTS:
        matrix.add(kind, "cell-a", "evidence")
    assert matrix.ok
    assert matrix.missing() == []


def test_merge_cell_folds_detections_under_the_cell_label():
    matrix = CoverageMatrix()
    matrix.merge_cell("marksweep x synthetic", {"dangle-ref": "nulled 1 slot"})
    assert matrix.covered("dangle-ref")
    assert matrix.evidence["dangle-ref"] == ["marksweep x synthetic: nulled 1 slot"]


def test_render_shows_coverage_and_calls_out_gaps():
    matrix = CoverageMatrix()
    for kind in FAULT_INVARIANTS:
        if kind != "session-kill":
            matrix.add(kind, "cell", "seen")
    text = matrix.render()
    assert "covered x1" in text
    assert "NOT COVERED" in text
    assert "UNCOVERED fault kind(s): session-kill" in text

    matrix.add("session-kill", "cell", "seen")
    full = matrix.render()
    assert f"all {len(FAULT_INVARIANTS)} fault kinds caught by a named invariant" in full
    assert "NOT COVERED" not in full
