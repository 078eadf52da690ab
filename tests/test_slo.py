"""SLO evaluation, error budgets and the BENCH trajectory gate."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.harness.slo import (
    BENCH_SCHEMA,
    REQUIRED_METRICS,
    GateTolerance,
    SLOTargets,
    append_record,
    baseline_for,
    evaluate_slo,
    load_trajectory,
    new_trajectory,
    regression_gate,
    validate_record,
)


def _metrics(**overrides):
    base = {
        "throughput_eps": 1000.0,
        "latency_p50_seconds": 0.01,
        "latency_p99_seconds": 0.1,
        "latency_p999_seconds": 0.2,
        "mttr_mean_seconds": 1.0,
        "mttr_max_seconds": 2.0,
        "rto_max_seconds": 2.5,
        "rpo_events": 0,
        "availability": 0.999,
        "degraded_reads": 8,
    }
    base.update(overrides)
    return base


def _record(cell="single/MSR/test", **metric_overrides):
    return {"cell": cell, "metrics": _metrics(**metric_overrides)}


def _grade(**overrides):
    kwargs = dict(
        targets=SLOTargets(
            p99_latency_seconds=1.0,
            p999_latency_seconds=2.0,
            availability=0.99,
            max_mttr_seconds=5.0,
            max_rpo_events=0,
            min_throughput_eps=100.0,
        ),
        duration_seconds=100.0,
        outage_seconds=0.5,
        latency_p99_seconds=0.5,
        latency_p999_seconds=1.0,
        mttr_max_seconds=1.0,
        rpo_events=0,
        throughput_eps=500.0,
    )
    kwargs.update(overrides)
    return evaluate_slo(**kwargs)


class TestTargets:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SLOTargets(availability=0.0)
        with pytest.raises(ConfigError):
            SLOTargets(availability=1.5)
        with pytest.raises(ConfigError):
            SLOTargets(p99_latency_seconds=0.0)
        with pytest.raises(ConfigError):
            SLOTargets(max_rpo_events=-1)


class TestEvaluate:
    def test_all_objectives_met(self):
        verdict = _grade()
        assert verdict.passed
        assert verdict.breaches == []
        assert "SLO met" in verdict.describe()

    def test_error_budget_accounting(self):
        verdict = _grade()
        # 99% over 100s allows 1s of outage; 0.5s spent = 50% burn.
        assert verdict.budget.allowed_outage_seconds == pytest.approx(1.0)
        assert verdict.budget.spent_outage_seconds == pytest.approx(0.5)
        assert verdict.budget.burn_fraction == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "override, objective",
        [
            ({"latency_p99_seconds": 1.5}, "p99 latency"),
            ({"latency_p999_seconds": 3.0}, "p999 latency"),
            ({"outage_seconds": 5.0}, "availability"),
            ({"mttr_max_seconds": 10.0}, "max MTTR"),
            ({"rpo_events": 3}, "RPO events"),
            ({"throughput_eps": 50.0}, "throughput"),
        ],
    )
    def test_each_breach_detected(self, override, objective):
        verdict = _grade(**override)
        assert not verdict.passed
        assert [b.objective for b in verdict.breaches] == [objective]
        assert "SLO BREACH" in verdict.describe()

    def test_perfect_availability_target_has_zero_budget(self):
        verdict = _grade(
            targets=SLOTargets(availability=1.0), outage_seconds=0.1
        )
        assert verdict.budget.burn_fraction == float("inf")
        assert not verdict.passed


class TestTrajectory:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_soak.json"
        append_record(path, _record())
        append_record(path, _record(cell="cluster/MSR/test"))
        doc = load_trajectory(path)
        assert doc["schema"] == BENCH_SCHEMA
        assert len(doc["records"]) == 2
        assert doc == json.loads(path.read_text())

    def test_unknown_fields_tolerated_and_preserved(self, tmp_path):
        path = tmp_path / "BENCH_soak.json"
        doc = new_trajectory()
        record = _record()
        record["future_field"] = {"nested": True}
        record["metrics"]["future_metric"] = 42
        doc["records"].append(record)
        doc["future_top_level"] = "keep me"
        path.write_text(json.dumps(doc))
        loaded = load_trajectory(path)
        assert loaded["future_top_level"] == "keep me"
        append_record(path, _record(cell="other"))
        reloaded = load_trajectory(path)
        assert reloaded["future_top_level"] == "keep me"
        assert reloaded["records"][0]["future_field"] == {"nested": True}
        assert reloaded["records"][0]["metrics"]["future_metric"] == 42

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/v9", "records": []}))
        with pytest.raises(ConfigError):
            load_trajectory(path)

    def test_malformed_record_rejected(self, tmp_path):
        incomplete = {"cell": "x", "metrics": {"throughput_eps": 1.0}}
        with pytest.raises(ConfigError):
            validate_record(incomplete)
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"schema": BENCH_SCHEMA, "records": [incomplete]})
        )
        with pytest.raises(ConfigError):
            load_trajectory(path)

    def test_baseline_is_newest_matching_cell(self):
        doc = new_trajectory()
        doc["records"] = [
            _record(throughput_eps=100.0),
            _record(cell="other"),
            _record(throughput_eps=200.0),
        ]
        base = baseline_for(doc, "single/MSR/test")
        assert base["metrics"]["throughput_eps"] == 200.0
        assert baseline_for(doc, "missing") is None

    def test_required_metrics_all_present_in_helper(self):
        # Guard: the test helper stays in sync with the schema contract.
        assert set(REQUIRED_METRICS) <= set(_metrics())


class TestGate:
    def _trajectory_with(self, **metric_overrides):
        doc = new_trajectory()
        doc["records"].append(_record(**metric_overrides))
        return doc

    def test_no_baseline_passes_vacuously(self):
        result = regression_gate(new_trajectory(), _record())
        assert result.passed and result.no_baseline
        assert "no committed baseline" in result.describe()

    def test_within_band_passes(self):
        doc = self._trajectory_with()
        candidate = _record(
            throughput_eps=950.0,  # -5% within the 10% band
            latency_p99_seconds=0.11,  # +10% within the 25% band
            mttr_max_seconds=2.2,  # +10% within the 25% band
        )
        result = regression_gate(doc, candidate)
        assert result.passed
        assert all(c.verdict == "within-band" for c in result.comparisons)

    def test_improvement_reported(self):
        doc = self._trajectory_with()
        candidate = _record(
            throughput_eps=1500.0, latency_p99_seconds=0.05,
            mttr_max_seconds=1.0,
        )
        result = regression_gate(doc, candidate)
        assert result.passed
        assert all(c.verdict == "improved" for c in result.comparisons)

    @pytest.mark.parametrize(
        "override, metric",
        [
            ({"throughput_eps": 800.0}, "throughput_eps"),
            ({"latency_p99_seconds": 0.2}, "latency_p99_seconds"),
            ({"mttr_max_seconds": 3.0}, "mttr_max_seconds"),
        ],
    )
    def test_each_regression_fails(self, override, metric):
        result = regression_gate(self._trajectory_with(), _record(**override))
        assert not result.passed
        regressed = [c.metric for c in result.comparisons if c.regressed]
        assert regressed == [metric]
        assert "PERF REGRESSION" in result.describe()
        assert "REGRESSED" in result.describe()

    def test_zero_baseline_only_strict_worsening_regresses(self):
        doc = self._trajectory_with(mttr_max_seconds=0.0)
        same = regression_gate(doc, _record(mttr_max_seconds=0.0))
        assert same.passed
        worse = regression_gate(doc, _record(mttr_max_seconds=0.5))
        assert not worse.passed

    def test_custom_tolerance(self):
        doc = self._trajectory_with()
        candidate = _record(throughput_eps=850.0)  # -15%
        assert not regression_gate(doc, candidate).passed
        loose = GateTolerance(throughput_drop=0.20)
        assert regression_gate(doc, candidate, loose).passed
