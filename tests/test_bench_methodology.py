"""Benchmark-harness unit tests: statistics and configuration plumbing."""

import math

import pytest

from repro.bench.methodology import (
    Config,
    Measurement,
    OverheadRow,
    Sample,
    build_vm,
    confidence_interval_90,
    geometric_mean,
    mean,
    run_sample,
    run_trial,
)
from repro.workloads.suite import SuiteEntry, build_suite


class TestStatistics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_geometric_mean_ignores_nonpositive(self):
        assert geometric_mean([0.0, 4.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0

    def test_ci_zero_for_tiny_samples(self):
        assert confidence_interval_90([]) == 0.0
        assert confidence_interval_90([1.0]) == 0.0

    def test_ci_zero_for_constant_samples(self):
        assert confidence_interval_90([2.0, 2.0, 2.0]) == pytest.approx(0.0)

    def test_ci_scales_with_spread(self):
        tight = confidence_interval_90([1.0, 1.01, 0.99, 1.0])
        wide = confidence_interval_90([1.0, 2.0, 0.5, 1.5])
        assert wide > tight > 0

    def test_ci_shrinks_with_more_samples(self):
        few = confidence_interval_90([1.0, 2.0])
        many = confidence_interval_90([1.0, 2.0] * 8)
        assert many < few


class TestOverheadRow:
    def test_ratio_and_pct(self):
        row = OverheadRow("x", 2.0, 2.2, 0.0, 0.0, {}, {})
        assert row.ratio == pytest.approx(1.1)
        assert row.overhead_pct == pytest.approx(10.0)

    def test_zero_base_is_nan(self):
        row = OverheadRow("x", 0.0, 1.0, 0.0, 0.0, {}, {})
        assert math.isnan(row.ratio)


class TestConfigurations:
    def test_base_vm_has_no_infrastructure(self):
        entry = build_suite()["jess"]
        vm = build_vm(entry, Config.BASE)
        assert vm.engine is None
        assert not vm.collector.track_paths
        assert vm.collector.heap_bytes == entry.heap_bytes

    def test_infrastructure_vm_has_engine_and_paths(self):
        entry = build_suite()["jess"]
        vm = build_vm(entry, Config.INFRASTRUCTURE)
        assert vm.engine is not None
        assert vm.collector.track_paths

    def test_with_assertions_requires_asserted_runner(self):
        entry = build_suite()["jess"]  # no asserted variant
        with pytest.raises(ValueError):
            run_trial(entry, Config.WITH_ASSERTIONS)


class TestTrials:
    def test_run_trial_returns_measurement(self):
        entry = build_suite()["mpegaudio"]
        m = run_trial(entry, Config.BASE)
        assert isinstance(m, Measurement)
        assert m.total_s > 0
        assert m.gc_s >= 0
        assert m.mutator_s <= m.total_s
        assert m.counters["collections"] == m.collections

    def test_counters_deterministic_across_trials(self):
        entry = build_suite()["mpegaudio"]
        a = run_trial(entry, Config.BASE)
        b = run_trial(entry, Config.BASE)
        assert a.counters == b.counters

    def test_run_sample_collects_n(self):
        entry = build_suite()["mpegaudio"]
        sample = run_sample(entry, Config.BASE, trials=3, warmup=0)
        assert len(sample.measurements) == 3
        assert len(sample.totals()) == 3
        assert mean(sample.totals()) > 0

    def test_sample_counters_from_last_trial(self):
        entry = build_suite()["mpegaudio"]
        sample = run_sample(entry, Config.BASE, trials=2, warmup=0)
        assert sample.counters() == sample.measurements[-1].counters

    def test_empty_sample_counters(self):
        sample = Sample("x", Config.BASE)
        assert sample.counters() == {}
