"""Per-class live-instance census: one summary, many consumers.

This is the Cork idea (Jump & McKinley — summarize the live heap per type
at each collection) promoted to a first-class telemetry primitive.  The
heap produces each per-class ``(count, bytes)`` summary
(:meth:`~repro.heap.heap.ObjectHeap.live_by_class`, exact under lazy-sweep
debt too); :class:`ClassCensus` accumulates those summaries into aligned
time series.  The telemetry hub samples one at every collection, and the
Cork baseline (:mod:`repro.baselines.cork`) consumes the same machinery
instead of keeping its own books.
"""

from __future__ import annotations

from typing import Iterable

#: One class's live summary at a single sample: (instance count, live bytes).
CensusRow = tuple[int, int]


class ClassCensus:
    """Aligned per-class time series of live instance counts and bytes.

    Every class ever observed has a series exactly ``samples`` long —
    zero-filled before it first appeared and after it died out — so
    consumers can difference adjacent samples without alignment bookkeeping.
    """

    __slots__ = ("samples", "gc_numbers", "_series")

    def __init__(self) -> None:
        self.samples = 0
        #: Collection ordinal at which each sample was taken.
        self.gc_numbers: list[int] = []
        self._series: dict[str, list[CensusRow]] = {}

    # -- accumulation -----------------------------------------------------------------

    def observe(self, census: dict[str, CensusRow], gc_number: int = -1) -> None:
        """Append one sample (typically ``heap.live_by_class()``)."""
        for name in set(self._series) | set(census):
            series = self._series.setdefault(name, [(0, 0)] * self.samples)
            series.append(census.get(name, (0, 0)))
        self.samples += 1
        self.gc_numbers.append(gc_number)

    # -- queries ----------------------------------------------------------------------

    def class_names(self) -> Iterable[str]:
        return self._series.keys()

    def count_series(self, name: str) -> list[int]:
        return [count for count, _nbytes in self._series.get(name, [])]

    def bytes_series(self, name: str) -> list[int]:
        return [nbytes for _count, nbytes in self._series.get(name, [])]

    def slope(self, name: str) -> float:
        """Least-squares growth slope of ``name``'s live bytes, in bytes
        per census sample.

        This is the number Cork's type-growth ranking is built on: a
        steadily leaking class has a positive slope however bursty the
        individual samples are, while a healthy class oscillates around
        zero.  Classes with fewer than two samples have no trend (0.0).
        """
        series = self.bytes_series(name)
        n = len(series)
        if n < 2:
            return 0.0
        # x = 0..n-1, so the sums have closed forms.
        sum_x = n * (n - 1) / 2.0
        sum_xx = (n - 1) * n * (2 * n - 1) / 6.0
        sum_y = float(sum(series))
        sum_xy = float(sum(i * y for i, y in enumerate(series)))
        denom = n * sum_xx - sum_x * sum_x
        if denom == 0.0:
            return 0.0
        return (n * sum_xy - sum_x * sum_y) / denom

    def slopes(self) -> dict[str, float]:
        """Per-class byte-growth slopes over every observed class."""
        return {name: self.slope(name) for name in self._series}

    def latest(self) -> dict[str, CensusRow]:
        """The most recent sample, omitting classes with no live instances."""
        if not self.samples:
            return {}
        return {
            name: series[-1]
            for name, series in self._series.items()
            if series[-1] != (0, 0)
        }

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "gc_numbers": list(self.gc_numbers),
            "classes": {
                name: {
                    "counts": self.count_series(name),
                    "bytes": self.bytes_series(name),
                }
                for name in sorted(self._series)
            },
        }

    def __repr__(self) -> str:
        return f"<ClassCensus {len(self._series)} classes x {self.samples} samples>"
