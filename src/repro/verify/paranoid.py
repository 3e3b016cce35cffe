"""The paranoid walk: the allocator tier of the invariant catalogue.

The ``debug.c`` school of collector debugging — walk *every* structure the
allocator owns and cross-check it against the object table.  The checks
are the ``ALLOCATOR`` entries of :data:`repro.gc.verify.CATALOGUE`; this
module is the name they are asked for by.  Read-only, and free when not
called: the collectors reach the walk only behind ``if self.paranoid``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gc.verify import ALLOCATOR, heap_findings, iter_spaces

if TYPE_CHECKING:
    from repro.runtime.vm import VirtualMachine

__all__ = ["iter_spaces", "paranoid_problems"]


def paranoid_problems(vm: "VirtualMachine") -> list[str]:
    """The allocator tier's findings as strings (empty = clean)."""
    return [finding.message for finding in heap_findings(vm, (ALLOCATOR,))]
