"""QVM-style heap probes — the §4.1 immediate-checking comparator.

The paper contrasts GC assertions with QVM's *heap probes* (Arnold, Vechev
& Yahav, OOPSLA 2008):

    "Heap probes are performed immediately at the point the probe is
    requested.  QVM triggers a garbage collection for each heap probe that
    must be checked, incurring a hefty overhead that is mitigated by
    sampling the heap probes rather than checking every single one.  Our
    system, on the other hand, batches assertions together and checks them
    all in a single heap traversal during a regularly scheduled collection.
    As a result, checking is much more efficient, but it cannot verify
    properties at the exact point the assertion is made."

:class:`HeapProbes` implements that semantics on our runtime so the
trade-off can be measured (see ``benchmarks/test_comparison_qvm.py``):
each executed probe forces a full-heap collection and answers the question
*at that exact program point*; a deterministic 1-in-N sampling rate
mitigates the cost exactly as QVM does — at the price of unchecked probes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.heap.object_model import ClassDescriptor, HeapObject

if TYPE_CHECKING:
    from repro.runtime.vm import VirtualMachine


class ProbeStats:
    __slots__ = ("requested", "executed", "sampled_out", "gcs_triggered")

    def __init__(self) -> None:
        self.requested = 0
        self.executed = 0
        self.sampled_out = 0
        self.gcs_triggered = 0

    def snapshot(self) -> dict:
        return {
            "requested": self.requested,
            "executed": self.executed,
            "sampled_out": self.sampled_out,
            "gcs_triggered": self.gcs_triggered,
        }


class HeapProbes:
    """Immediate, GC-triggering heap queries with 1-in-N sampling."""

    def __init__(self, vm: "VirtualMachine", sampling: int = 1):
        if sampling < 1:
            raise ValueError(f"sampling rate must be >= 1, got {sampling}")
        self.vm = vm
        self.sampling = sampling
        self.stats = ProbeStats()

    # -- sampling ------------------------------------------------------------------

    def _should_execute(self) -> bool:
        self.stats.requested += 1
        if (self.stats.requested - 1) % self.sampling != 0:
            self.stats.sampled_out += 1
            return False
        self.stats.executed += 1
        return True

    def _collect(self) -> None:
        self.stats.gcs_triggered += 1
        self.vm.gc(reason="heap probe")

    @staticmethod
    def _resolve(target) -> HeapObject:
        obj = getattr(target, "obj", target)
        if not isinstance(obj, HeapObject):
            raise TypeError(f"cannot probe {target!r}")
        return obj

    # -- probes ---------------------------------------------------------------------

    def probe_dead(self, target) -> Optional[bool]:
        """Is this object garbage *right now*?

        Triggers a full collection and reports whether the object was
        reclaimed by it.  Returns None when sampled out (the QVM
        mitigation: unchecked probes cost nothing but answer nothing).
        """
        obj = self._resolve(target)
        if not self._should_execute():
            return None
        self._collect()
        return obj.is_freed

    def probe_instances(self, cls: Union[ClassDescriptor, str]) -> Optional[int]:
        """How many instances of ``cls`` are live *right now*?"""
        if isinstance(cls, str):
            cls = self.vm.classes.get(cls)
        if not self._should_execute():
            return None
        self._collect()
        return sum(1 for obj in self.vm.heap if obj.cls.is_subclass_of(cls))

    def probe_unshared(self, target) -> Optional[bool]:
        """Does this object have at most one incoming heap reference
        *right now*?  Collects, then scans the live heap counting edges."""
        obj = self._resolve(target)
        if not self._should_execute():
            return None
        self._collect()
        if obj.is_freed:
            return True
        address = obj.address
        incoming = 0
        for other in self.vm.heap:
            for ref in other.reference_slots():
                if ref == address:
                    incoming += 1
                    if incoming > 1:
                        return False
        return True

    def probe_reachable_from(self, source, target) -> Optional[bool]:
        """Is ``target`` reachable from ``source``?  (The ownership question
        asked point-wise.)  Collects first so the answer reflects live state."""
        source_obj = self._resolve(source)
        target_obj = self._resolve(target)
        if not self._should_execute():
            return None
        self._collect()
        if source_obj.is_freed or target_obj.is_freed:
            return False
        return target_obj.address in self.vm.heap.closure([source_obj.address])
