"""Cork-style type-growth leak detection (Jump & McKinley, POPL 2007).

Cork piggybacks on the collector like GC assertions do, but it is a
*heuristic*: it summarizes the live heap per type at each collection and
reports types whose volume grows persistently.  The paper's contrast
(§2.7): "Our information is similar to that provided by Cork, but much more
precise: our path consists of object instances, not just types."

:class:`TypeGrowthProfiler` installs as a VM gc-observer.  Its books are
the telemetry layer's census primitives
(:class:`~repro.telemetry.census.ClassCensus` fed by the heap's
:meth:`~repro.heap.heap.ObjectHeap.live_by_class`) rather than a private history
dict; :meth:`report` flags classes whose live volume rose in at least
``min_growth_fraction`` of the observed windows and grew overall by
``min_total_ratio``.  The output is a ranked list of *types* — no
instances, no paths, and a programmer still has to find the actual leak
site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.telemetry.census import ClassCensus

if TYPE_CHECKING:
    from repro.runtime.vm import VirtualMachine


@dataclass
class GrowthReport:
    """One suspicious type, Cork-style."""

    type_name: str
    first_bytes: int
    last_bytes: int
    rising_fraction: float
    samples: list[int] = field(default_factory=list)

    @property
    def total_ratio(self) -> float:
        return self.last_bytes / self.first_bytes if self.first_bytes else float("inf")

    def render(self) -> str:
        return (
            f"type {self.type_name}: {self.first_bytes} -> {self.last_bytes} bytes "
            f"over {len(self.samples)} GCs "
            f"(rising in {self.rising_fraction:.0%} of intervals)"
        )


class TypeGrowthProfiler:
    """Per-type live-volume census at every collection."""

    def __init__(self, vm: "VirtualMachine"):
        self.vm = vm
        #: Aligned per-class (count, bytes) time series, one sample per
        #: observed GC — the telemetry census, not private bookkeeping.
        self.census = ClassCensus()
        vm.gc_observers.append(self._observe)

    @property
    def collections_observed(self) -> int:
        return self.census.samples

    @property
    def history(self) -> dict[str, list[int]]:
        """Back-compat view: class name -> live-byte series per observed GC."""
        return {
            name: self.census.bytes_series(name)
            for name in self.census.class_names()
        }

    def detach(self) -> None:
        self.vm.gc_observers.remove(self._observe)

    # -- census ---------------------------------------------------------------------

    def _observe(self, vm: "VirtualMachine", freed: set[int]) -> None:
        self.census.observe(vm.heap.live_by_class(), gc_number=vm.stats.collections)

    # -- reporting -------------------------------------------------------------------

    def slopes(self) -> dict[str, float]:
        """Per-type byte-growth slopes (bytes per observed GC).

        A thin view over :meth:`ClassCensus.slopes` so consumers that want
        Cork's ranking — ``snapshot diff`` cites it next to its own — read
        it from the shared census instead of recomputing trend lines.
        """
        return self.census.slopes()

    def ranked_slopes(self) -> list[tuple[str, float]]:
        """Cork's ranking: types by growth slope, steepest first (name is
        the deterministic tie-break)."""
        return sorted(self.slopes().items(), key=lambda kv: (-kv[1], kv[0]))

    def report(
        self,
        min_samples: int = 3,
        min_growth_fraction: float = 0.75,
        min_total_ratio: float = 1.5,
    ) -> list[GrowthReport]:
        """Types whose live volume keeps growing — *potential* leaks only.

        Matches Cork's spirit: a type qualifies when its volume rose in at
        least ``min_growth_fraction`` of observed GC intervals and its
        final volume is ``min_total_ratio`` times its first non-zero one.
        """
        reports: list[GrowthReport] = []
        for name, samples in self.history.items():
            # Align histories: drop leading zeros before the type existed.
            trimmed = samples[:]
            while trimmed and trimmed[0] == 0:
                trimmed.pop(0)
            if len(trimmed) < min_samples:
                continue
            rises = sum(1 for a, b in zip(trimmed, trimmed[1:]) if b > a)
            intervals = len(trimmed) - 1
            rising_fraction = rises / intervals if intervals else 0.0
            first, last = trimmed[0], trimmed[-1]
            if (
                rising_fraction >= min_growth_fraction
                and first > 0
                and last / first >= min_total_ratio
            ):
                reports.append(
                    GrowthReport(
                        type_name=name,
                        first_bytes=first,
                        last_bytes=last,
                        rising_fraction=rising_fraction,
                        samples=trimmed,
                    )
                )
        reports.sort(key=lambda r: r.last_bytes - r.first_bytes, reverse=True)
        return reports
