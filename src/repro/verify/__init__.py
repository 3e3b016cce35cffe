"""Exhaustive collector verification: model checking, paranoia, coverage.

Three layers, one goal — turn "the collector seems fine" into "every
invariant we can name has been checked against every state we can reach".
The heap invariants themselves are named once, in :mod:`repro.gc.verify`
(the collectors import it; this package imports the VM, so it cannot):

* :mod:`repro.verify.modelcheck` — enumerate *all* heap shapes up to a
  small scope and run every collector configuration over each, asserting
  executable Soundness/Completeness against a brute-force oracle;
* :mod:`repro.verify.paranoid` — the catalogue's allocator tier by name:
  the allocator's own bookkeeping (free lists, chunk tables, bump records,
  zone routing) cross-checked against the object table;
* :mod:`repro.verify.coverage` — the fault → invariant matrix proving
  each injected fault kind is caught by a named invariant, the heap-level
  ones being catalogue entries.
"""

from repro.verify.coverage import (
    FAULT_INVARIANTS,
    CoverageMatrix,
    detect_cell,
    detect_tenant_cell,
)
from repro.verify.modelcheck import (
    Cell,
    HeapShape,
    ModelCheckReport,
    default_cells,
    enumerate_shapes,
    run_model_check,
)
from repro.verify.paranoid import iter_spaces, paranoid_problems

__all__ = [
    "FAULT_INVARIANTS",
    "CoverageMatrix",
    "detect_cell",
    "detect_tenant_cell",
    "Cell",
    "HeapShape",
    "ModelCheckReport",
    "default_cells",
    "enumerate_shapes",
    "run_model_check",
    "iter_spaces",
    "paranoid_problems",
]
