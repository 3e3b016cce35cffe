"""Measurement methodology for the figure-regeneration harness.

Follows §3.1.1 of the paper where it transfers to a simulator:

* Each benchmark runs at a fixed heap of **2x its minimum** (calibrated in
  :mod:`repro.workloads.suite`).
* Each (benchmark, configuration) pair is measured over **N trials** on a
  fresh VM; we report means with **90% confidence intervals** (Student t).
* Ratios across benchmarks are combined with the **geometric mean**, like
  the paper's "2.75% (the geometric mean)".

Wall-clock numbers in a Python simulator are noisy relative to the paper's
single-digit percentages, so every measurement also carries deterministic
*work counters* (objects traced, header-bit checks, ownee binary-search
probes...) that decompose the overhead exactly and reproducibly.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.runtime.vm import VirtualMachine
from repro.workloads.suite import SuiteEntry

try:  # scipy is available in this environment; fall back to normal quantile.
    from scipy import stats as _scipy_stats
except ImportError:  # pragma: no cover
    _scipy_stats = None


class Config(enum.Enum):
    """The paper's three measured configurations (§3.1.1)."""

    BASE = "Base"                      # unmodified VM: no engine, no paths
    INFRASTRUCTURE = "Infrastructure"  # engine + path tracking, no assertions
    WITH_ASSERTIONS = "WithAssertions" # engine + the paper's assertion placements


@dataclass
class Measurement:
    """One trial of one (benchmark, configuration) pair."""

    total_s: float
    gc_s: float
    collections: int
    counters: dict

    @property
    def mutator_s(self) -> float:
        return max(self.total_s - self.gc_s, 0.0)


@dataclass
class Sample:
    """All trials of one (benchmark, configuration) pair."""

    benchmark: str
    config: Config
    measurements: list[Measurement] = field(default_factory=list)

    def totals(self) -> list[float]:
        return [m.total_s for m in self.measurements]

    def gcs(self) -> list[float]:
        return [m.gc_s for m in self.measurements]

    def mutators(self) -> list[float]:
        return [m.mutator_s for m in self.measurements]

    def counters(self) -> dict:
        """Counters from the last trial (deterministic across trials)."""
        return self.measurements[-1].counters if self.measurements else {}


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def geometric_mean(values: list[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def confidence_interval_90(values: list[float]) -> float:
    """Half-width of the 90% CI of the mean (0 for < 2 samples)."""
    n = len(values)
    if n < 2:
        return 0.0
    m = mean(values)
    var = sum((v - m) ** 2 for v in values) / (n - 1)
    sd = math.sqrt(var)
    if _scipy_stats is not None:
        t = float(_scipy_stats.t.ppf(0.95, n - 1))
    else:  # pragma: no cover
        t = 1.645
    return t * sd / math.sqrt(n)


def build_vm(entry: SuiteEntry, config: Config, collector: str = "marksweep") -> VirtualMachine:
    """A fresh VM in the requested configuration at the calibrated heap."""
    if config is Config.BASE:
        return VirtualMachine(
            heap_bytes=entry.heap_bytes,
            collector=collector,
            assertions=False,
            track_paths=False,
        )
    return VirtualMachine(
        heap_bytes=entry.heap_bytes, collector=collector, assertions=True
    )


_COUNTER_FIELDS = (
    "collections",
    "objects_traced",
    "edges_traced",
    "objects_swept",
    "header_bit_checks",
    "instance_count_increments",
    "ownee_lookups",
    "ownee_search_probes",
    "ownees_checked",
    "path_entries_tagged",
    "violations_detected",
)


def run_trial(entry: SuiteEntry, config: Config, collector: str = "marksweep") -> Measurement:
    """One trial: fresh VM, run the workload, read timers and counters."""
    vm = build_vm(entry, config, collector)
    if config is Config.WITH_ASSERTIONS:
        runner = entry.run_with_assertions
        if runner is None:
            raise ValueError(f"benchmark {entry.name!r} has no asserted variant")
    else:
        runner = entry.run
    start = time.perf_counter()
    runner(vm)
    total = time.perf_counter() - start
    stats = vm.stats
    counters = {name: getattr(stats, name) for name in _COUNTER_FIELDS}
    if vm.engine is not None:
        counters["assertion_calls"] = dict(
            (k.value, v) for k, v in vm.engine.registry.calls.items() if v
        )
    return Measurement(
        total_s=total,
        gc_s=stats.gc_seconds,
        collections=stats.collections,
        counters=counters,
    )


def run_sample(
    entry: SuiteEntry,
    config: Config,
    trials: int,
    collector: str = "marksweep",
    warmup: int = 1,
) -> Sample:
    """N measured trials (after ``warmup`` unrecorded ones)."""
    sample = Sample(entry.name, config)
    for _ in range(warmup):
        run_trial(entry, config, collector)
    for _ in range(trials):
        sample.measurements.append(run_trial(entry, config, collector))
    return sample


@dataclass
class OverheadRow:
    """One benchmark's Base-vs-other comparison for a figure."""

    benchmark: str
    base_mean: float
    other_mean: float
    base_ci: float
    other_ci: float
    counters_base: dict
    counters_other: dict

    @property
    def ratio(self) -> float:
        if self.base_mean <= 0:
            return float("nan")
        return self.other_mean / self.base_mean

    @property
    def overhead_pct(self) -> float:
        return (self.ratio - 1.0) * 100.0
