"""Sweep statistics: speedups, crossovers, scaling efficiency."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.harness.stats import (
    crossover,
    latency_summary,
    p50,
    p99,
    p999,
    percentile,
    scaling_efficiency,
    speedup_vs_suboptimal,
)


class TestPercentile:
    def test_linear_interpolation(self):
        assert percentile([0.0, 10.0], 50.0) == pytest.approx(5.0)
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)

    def test_exact_on_dense_grid(self):
        values = [float(v) for v in range(101)]
        for p in (0.0, 25.0, 50.0, 99.0, 100.0):
            assert percentile(values, p) == pytest.approx(p)

    def test_order_independent(self):
        shuffled = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        assert percentile(shuffled, 100.0) == 9.0
        assert percentile(shuffled, 0.0) == 1.0

    def test_single_sample(self):
        assert percentile([7.0], 99.9) == 7.0

    def test_tail_quantiles_distinguish(self):
        # 999 fast samples and one slow one: p99 interpolates near the
        # fast cluster while p999 reaches toward the outlier.
        values = [1.0] * 999 + [100.0]
        assert p50(values) == 1.0
        assert p99(values) == pytest.approx(1.0)
        assert p999(values) > 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            percentile([], 50.0)
        with pytest.raises(ConfigError):
            percentile([1.0], 101.0)
        with pytest.raises(ConfigError):
            percentile([1.0], -0.1)


class TestLatencySummary:
    def test_keys_and_values(self):
        summary = latency_summary([2.0, 4.0])
        assert summary == {
            "count": 2,
            "p50": pytest.approx(3.0),
            "p99": pytest.approx(3.98),
            "p999": pytest.approx(3.998),
            "mean": pytest.approx(3.0),
            "max": 4.0,
        }

    def test_empty_sample_is_zeros(self):
        summary = latency_summary([])
        assert summary["count"] == 0
        assert all(summary[k] == 0.0 for k in ("p50", "p99", "p999", "mean", "max"))


class TestSpeedup:
    def test_against_best_of_the_rest(self):
        totals = {"MSR": 1.0, "CKPT": 3.0, "WAL": 10.0}
        assert speedup_vs_suboptimal(totals, "MSR") == pytest.approx(3.0)

    def test_best_can_actually_be_worse(self):
        totals = {"MSR": 4.0, "CKPT": 2.0}
        assert speedup_vs_suboptimal(totals, "MSR") == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            speedup_vs_suboptimal({"MSR": 1.0}, "MSR")
        with pytest.raises(ConfigError):
            speedup_vs_suboptimal({"A": 1.0, "B": 2.0}, "C")
        with pytest.raises(ConfigError):
            speedup_vs_suboptimal({"A": 0.0, "B": 2.0}, "A")


class TestCrossover:
    def test_interpolated_crossing(self):
        a = [(0.0, 0.0), (1.0, 2.0)]
        b = [(0.0, 1.0), (1.0, 1.0)]
        assert crossover(a, b) == pytest.approx(0.5)

    def test_exact_touch_returns_that_x(self):
        a = [(0.0, 1.0), (1.0, 2.0)]
        b = [(0.0, 1.0), (1.0, 0.0)]
        assert crossover(a, b) == pytest.approx(0.0)

    def test_no_crossover(self):
        a = [(0.0, 2.0), (1.0, 3.0)]
        b = [(0.0, 1.0), (1.0, 1.5)]
        assert crossover(a, b) is None

    def test_crossing_at_final_point(self):
        a = [(0.0, 0.0), (1.0, 1.0)]
        b = [(0.0, 1.0), (1.0, 1.0)]
        assert crossover(a, b) == pytest.approx(1.0)

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ConfigError):
            crossover([(0.0, 1.0)], [(1.0, 1.0)])

    def test_empty_series(self):
        assert crossover([], []) is None


class TestScalingEfficiency:
    def test_perfect_scaling(self):
        points = [(1, 100.0), (8, 800.0)]
        assert scaling_efficiency(points) == pytest.approx(1.0)

    def test_flat_is_inverse_of_cores(self):
        points = [(1, 100.0), (4, 100.0)]
        assert scaling_efficiency(points) == pytest.approx(0.25)

    def test_order_independent(self):
        assert scaling_efficiency([(8, 400.0), (1, 100.0)]) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            scaling_efficiency([(1, 100.0)])
        with pytest.raises(ConfigError):
            scaling_efficiency([(1, 0.0), (2, 10.0)])
