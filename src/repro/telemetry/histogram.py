"""Streaming log-scale histograms for the telemetry layer.

The distributions we care about — GC pause times, allocation sizes, ownees
checked per collection — span several orders of magnitude, so fixed
*log-scale* buckets give constant relative resolution with a small, bounded
footprint (the classic HdrHistogram / Prometheus trade-off).  Bucket
boundaries are computed once at construction; recording is a binary search
(memoized for the repeated integer sizes an allocator produces) and
percentile queries interpolate within the owning bucket.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Optional

#: Relative resolution of every histogram (5 per decade ≈ ±29% per bucket).
BUCKETS_PER_DECADE = 5


class LogHistogram:
    """Fixed log-scale bucket histogram with streaming percentile summaries.

    ``lo``/``hi`` bound the well-resolved range; values below ``lo`` land in
    the first bucket and values above ``hi`` in a final overflow bucket, so
    no observation is ever lost.
    """

    __slots__ = (
        "lo",
        "hi",
        "bounds",
        "counts",
        "count",
        "total",
        "min_value",
        "max_value",
        "_bucket_memo",
    )

    def __init__(self, lo: float, hi: float):
        if lo <= 0 or hi <= lo:
            raise ValueError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
        decades = math.log10(hi / lo)
        n = max(1, math.ceil(decades * BUCKETS_PER_DECADE))
        ratio = (hi / lo) ** (1.0 / n)
        self.lo = lo
        self.hi = hi
        #: Upper (inclusive) bound of each regular bucket; the overflow
        #: bucket beyond ``bounds[-1]`` has no upper bound.
        self.bounds: list[float] = [lo * ratio**i for i in range(1, n + 1)]
        self.counts: list[int] = [0] * (n + 1)
        self.count = 0
        self.total = 0.0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None
        self._bucket_memo: dict[float, int] = {}

    # -- recording --------------------------------------------------------------------

    def record(self, value: float) -> None:
        idx = self._bucket_memo.get(value)
        if idx is None:
            idx = bisect_left(self.bounds, value)
            # Memoize only repeat-friendly values (ints: allocation sizes,
            # work counts) so float pause times don't grow the memo forever.
            if isinstance(value, int) and len(self._bucket_memo) < 4096:
                self._bucket_memo[value] = idx
        self.counts[idx] += 1
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    # -- queries ----------------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (0–100), interpolated within its bucket.

        Exact observed extremes are used for the edge buckets, so
        ``percentile(100) == max_value`` and percentiles never stray outside
        the recorded range.
        """
        if self.count == 0:
            return 0.0
        if p <= 0:
            return float(self.min_value)
        if p >= 100:
            return float(self.max_value)
        rank = p / 100.0 * self.count
        seen = 0
        for idx, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lower = self.bounds[idx - 1] if idx > 0 else self.lo
                upper = self.bounds[idx] if idx < len(self.bounds) else self.max_value
                lower = max(lower, self.min_value)
                upper = min(upper, self.max_value)
                if upper <= lower:
                    return float(upper)
                fraction = (rank - seen) / bucket_count
                return float(lower + (upper - lower) * fraction)
            seen += bucket_count
        return float(self.max_value)  # pragma: no cover - defensive

    def summary(self) -> dict:
        """The JSON-friendly rollup every exporter renders."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min_value if self.count else 0,
            "max": self.max_value if self.count else 0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def nonzero_buckets(self) -> list[tuple[float, int]]:
        """(upper_bound, count) for each occupied bucket, overflow last as
        ``inf`` — the shape Prometheus exposition needs."""
        out: list[tuple[float, int]] = []
        for idx, bucket_count in enumerate(self.counts):
            if bucket_count:
                upper = self.bounds[idx] if idx < len(self.bounds) else math.inf
                out.append((upper, bucket_count))
        return out

    def __repr__(self) -> str:
        return (
            f"<LogHistogram n={self.count} mean={self.mean:.4g} "
            f"p99={self.percentile(99):.4g}>"
        )
