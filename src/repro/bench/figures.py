"""Regeneration of the paper's figures (2–5) and in-text tables.

Every entry point returns a :class:`FigureResult`: per-benchmark rows plus
suite-level aggregates, and can render itself as the ASCII analog of the
paper's bar charts.  Paper reference values are attached so EXPERIMENTS.md
can print paper-vs-measured side by side.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.bench.methodology import (
    Config,
    OverheadRow,
    Sample,
    confidence_interval_90,
    geometric_mean,
    mean,
    run_sample,
)
from repro.workloads.suite import SuiteEntry, build_suite

#: Paper-reported aggregates for each figure (for the shape comparison).
PAPER_REFERENCE = {
    "fig2": {
        "description": "run-time overhead of the assertion infrastructure",
        "geomean_overhead_pct": 2.75,
        "mutator_overhead_pct": 1.12,
    },
    "fig3": {
        "description": "GC-time overhead of the assertion infrastructure",
        "geomean_overhead_pct": 13.36,
        "worst_case": ("bloat", 30.0),
    },
    "fig4": {
        "description": "run-time overhead with assertions (vs Base)",
        "db_overhead_pct": 1.02,
        "pseudojbb_overhead_pct": 1.84,
    },
    "fig5": {
        "description": "GC-time overhead with assertions (vs Base)",
        "db_overhead_pct": 49.7,
        "pseudojbb_overhead_pct": 15.3,
        "db_vs_infrastructure_pct": 30.1,
        "pseudojbb_vs_infrastructure_pct": 4.40,
    },
    "counts": {
        "db_assert_dead_calls": 695,
        "db_assert_ownedby_calls": 15553,
        "db_ownees_per_gc": 15274,
        "pseudojbb_assert_ownedby_calls": 31038,
        "pseudojbb_assert_instances_calls": 1,
        "pseudojbb_ownees_per_gc": 420,
    },
}


@dataclass
class FigureResult:
    figure: str
    metric: str
    config_b: Config
    rows: list[OverheadRow] = field(default_factory=list)
    paper: dict = field(default_factory=dict)
    config_a: Config = Config.BASE

    @property
    def geomean_ratio(self) -> float:
        return geometric_mean([r.ratio for r in self.rows])

    @property
    def geomean_overhead_pct(self) -> float:
        return (self.geomean_ratio - 1.0) * 100.0

    def row(self, benchmark: str) -> OverheadRow:
        for r in self.rows:
            if r.benchmark == benchmark:
                return r
        raise KeyError(benchmark)

    def render(self, width: int = 40) -> str:
        """ASCII bar chart, normalized to Base = 100 (like the figures)."""
        lines = [
            f"{self.figure}: {self.metric} — {self.config_a.value} vs "
            f"{self.config_b.value} (normalized, {self.config_a.value} = 100)"
        ]
        max_ratio = max((r.ratio for r in self.rows), default=1.0)
        scale = width / max(max_ratio, 1.0)
        for r in self.rows:
            bar = "#" * max(1, int(r.ratio * scale))
            lines.append(
                f"  {r.benchmark:12} {r.ratio * 100:7.1f} |{bar}"
                f"  (+{r.overhead_pct:.1f}%)"
            )
        lines.append(
            f"  {'geomean':12} {self.geomean_ratio * 100:7.1f}  "
            f"(+{self.geomean_overhead_pct:.2f}%)"
        )
        if self.paper:
            lines.append(f"  paper: {self.paper}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "figure": self.figure,
            "metric": self.metric,
            "config": self.config_b.value,
            "geomean_overhead_pct": self.geomean_overhead_pct,
            "rows": {
                r.benchmark: {
                    "ratio": r.ratio,
                    "overhead_pct": r.overhead_pct,
                    "base_mean_s": r.base_mean,
                    "other_mean_s": r.other_mean,
                    "base_ci90_s": r.base_ci,
                    "other_ci90_s": r.other_ci,
                }
                for r in self.rows
            },
            "paper": self.paper,
        }


def _suite_subset(benchmarks: Optional[list[str]]) -> list[SuiteEntry]:
    suite = build_suite()
    if benchmarks is None:
        return list(suite.values())
    return [suite[name] for name in benchmarks]


#: Benchmarks the paper instruments with assertions (§3.1.1).
ASSERTED_BENCHMARKS = ["db", "pseudojbb"]


def _row_from_samples(sample_a: Sample, sample_b: Sample, metric: str) -> OverheadRow:
    pick = {"total": Sample.totals, "gc": Sample.gcs, "mutator": Sample.mutators}[metric]
    values_a, values_b = pick(sample_a), pick(sample_b)
    return OverheadRow(
        benchmark=sample_a.benchmark,
        base_mean=mean(values_a),
        other_mean=mean(values_b),
        base_ci=confidence_interval_90(values_a),
        other_ci=confidence_interval_90(values_b),
        counters_base=sample_a.counters(),
        counters_other=sample_b.counters(),
    )


def infrastructure_figures(
    trials: int = 5, benchmarks: Optional[list[str]] = None
) -> dict[str, FigureResult]:
    """Figures 2 and 3 from one shared set of Base/Infrastructure samples."""
    fig2 = FigureResult(
        "fig2", "total run time", Config.INFRASTRUCTURE, paper=PAPER_REFERENCE["fig2"]
    )
    fig2_mutator = FigureResult(
        "fig2-mutator", "mutator time", Config.INFRASTRUCTURE,
        paper=PAPER_REFERENCE["fig2"],
    )
    fig3 = FigureResult(
        "fig3", "GC time", Config.INFRASTRUCTURE, paper=PAPER_REFERENCE["fig3"]
    )
    for entry in _suite_subset(benchmarks):
        base = run_sample(entry, Config.BASE, trials)
        infra = run_sample(entry, Config.INFRASTRUCTURE, trials)
        fig2.rows.append(_row_from_samples(base, infra, "total"))
        fig2_mutator.rows.append(_row_from_samples(base, infra, "mutator"))
        fig3.rows.append(_row_from_samples(base, infra, "gc"))
    return {"fig2": fig2, "fig2-mutator": fig2_mutator, "fig3": fig3}


def withassertions_figures(trials: int = 5) -> dict[str, FigureResult]:
    """Figures 4 and 5 (plus the vs-Infrastructure comparison) from one
    shared set of Base/Infrastructure/WithAssertions samples."""
    fig4 = FigureResult(
        "fig4", "total run time", Config.WITH_ASSERTIONS, paper=PAPER_REFERENCE["fig4"]
    )
    fig5 = FigureResult(
        "fig5", "GC time", Config.WITH_ASSERTIONS, paper=PAPER_REFERENCE["fig5"]
    )
    fig4_infra = FigureResult(
        "fig4-infra", "total run time", Config.WITH_ASSERTIONS,
        paper=PAPER_REFERENCE["fig4"], config_a=Config.INFRASTRUCTURE,
    )
    fig5_infra = FigureResult(
        "fig5-infra", "GC time", Config.WITH_ASSERTIONS,
        paper=PAPER_REFERENCE["fig5"], config_a=Config.INFRASTRUCTURE,
    )
    for entry in _suite_subset(ASSERTED_BENCHMARKS):
        base = run_sample(entry, Config.BASE, trials)
        infra = run_sample(entry, Config.INFRASTRUCTURE, trials)
        asserted = run_sample(entry, Config.WITH_ASSERTIONS, trials)
        fig4.rows.append(_row_from_samples(base, asserted, "total"))
        fig5.rows.append(_row_from_samples(base, asserted, "gc"))
        fig4_infra.rows.append(_row_from_samples(infra, asserted, "total"))
        fig5_infra.rows.append(_row_from_samples(infra, asserted, "gc"))
    return {
        "fig4": fig4,
        "fig5": fig5,
        "fig4-infra": fig4_infra,
        "fig5-infra": fig5_infra,
    }


def figures_payload(
    results: dict[str, FigureResult], trials: Optional[int] = None
) -> dict:
    """Machine-readable form of a set of figure results, with enough
    provenance (timestamp, interpreter, trial count) to compare runs across
    PRs."""
    return {
        "schema": "repro-bench-figures/1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "trials": trials,
        "figures": {name: result.as_dict() for name, result in sorted(results.items())},
    }


def dump_figures(
    results: dict[str, FigureResult],
    path: str = "BENCH_figures.json",
    trials: Optional[int] = None,
) -> str:
    """Write :func:`figures_payload` as JSON; returns the path written.

    This is the perf-trajectory record: ``python -m repro figures
    --json-out BENCH_figures.json`` refreshes it so successive PRs can
    diff measured overheads, not just eyeball ASCII charts.
    """
    with open(path, "w") as handle:
        json.dump(figures_payload(results, trials), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
