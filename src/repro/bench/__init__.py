"""Benchmark harness: §3.1.1 methodology and figure regeneration."""

from repro.bench.methodology import (
    Config,
    Measurement,
    OverheadRow,
    Sample,
    confidence_interval_90,
    geometric_mean,
    mean,
    run_sample,
    run_trial,
)
from repro.bench.figures import (
    ASSERTED_BENCHMARKS,
    PAPER_REFERENCE,
    FigureResult,
    dump_figures,
    figures_payload,
    infrastructure_figures,
    withassertions_figures,
)

__all__ = [
    "Config",
    "Measurement",
    "OverheadRow",
    "Sample",
    "confidence_interval_90",
    "geometric_mean",
    "mean",
    "run_sample",
    "run_trial",
    "ASSERTED_BENCHMARKS",
    "PAPER_REFERENCE",
    "FigureResult",
    "dump_figures",
    "figures_payload",
    "infrastructure_figures",
    "withassertions_figures",
]
