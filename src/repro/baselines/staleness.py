"""Staleness-based leak detection (SWAT / Bell style).

"Some tools use the notion of staleness to identify potential leaks:
objects that have not been accessed in a long time are probably memory
leaks [14, 7]."  (§2.1)

:class:`StalenessDetector` installs a read barrier (the VM's
``access_hook``, driven by handle field reads) plus a gc-observer.  Each
live object's last-access time is tracked in GC epochs; objects idle for
``stale_after`` epochs become *candidates*.  The paper's two criticisms are
measurable here:

* **latency** — a leak is only suggested after it has been idle for the
  staleness window, whereas an assert-dead fires at the first GC;
* **false positives** — legitimately long-lived but rarely-touched data
  (caches, configuration) gets flagged too; "any violation [of a GC
  assertion] represents a mismatch between the programmer's expectations
  and the actual behavior", i.e. zero false positives by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.heap.object_model import HeapObject
    from repro.runtime.vm import VirtualMachine


@dataclass
class StaleCandidate:
    type_name: str
    address: int
    idle_epochs: int

    def render(self) -> str:
        return (
            f"{self.type_name}@{self.address:#x}: "
            f"not accessed for {self.idle_epochs} GC epochs"
        )


class StalenessDetector:
    """Track per-object last-access epochs through a read barrier."""

    def __init__(self, vm: "VirtualMachine", stale_after: int = 3):
        if stale_after < 1:
            raise ValueError("stale_after must be >= 1")
        if vm.access_hook is not None:
            raise RuntimeError("another access hook is already installed")
        self.vm = vm
        self.stale_after = stale_after
        self.epoch = 0
        #: address -> (occupant's ``alloc_seq``, GC epoch of its most recent
        #: access or first sighting).  The stamp tells a recycled address's
        #: new occupant from the dead one before it.
        self._last_access: dict[int, tuple[int, int]] = {}
        self.reads_observed = 0
        vm.access_hook = self._on_access
        vm.gc_observers.append(self._observe)

    def detach(self) -> None:
        self.vm.access_hook = None
        self.vm.gc_observers.remove(self._observe)

    # -- barriers --------------------------------------------------------------------

    def _on_access(self, obj: "HeapObject") -> None:
        self.reads_observed += 1
        self._last_access[obj.address] = (obj.alloc_seq, self.epoch)

    def _observe(self, vm: "VirtualMachine") -> None:
        """Keep the records of the objects the collection left live, and
        first-sight the ones never read through a handle (or new at their
        address); the dead drop out, swept yet or not."""
        self.epoch += 1
        seen = self._last_access
        kept: dict[int, tuple[int, int]] = {}
        for obj in vm.heap.live():
            record = seen.get(obj.address)
            if record is None or record[0] != obj.alloc_seq:
                record = (obj.alloc_seq, self.epoch)
            kept[obj.address] = record
        self._last_access = kept

    # -- reporting ---------------------------------------------------------------------

    def candidates(self) -> list[StaleCandidate]:
        """Live objects idle for at least ``stale_after`` epochs."""
        out: list[StaleCandidate] = []
        for obj in self.vm.heap.live():
            record = self._last_access.get(obj.address)
            if record is not None and record[0] == obj.alloc_seq:
                idle = self.epoch - record[1]
                if idle >= self.stale_after:
                    out.append(StaleCandidate(obj.cls.name, obj.address, idle))
        out.sort(key=lambda c: c.idle_epochs, reverse=True)
        return out

    def candidate_types(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for candidate in self.candidates():
            counts[candidate.type_name] = counts.get(candidate.type_name, 0) + 1
        return counts
