"""SLO evaluation, error budgets and the BENCH trajectory gate."""

from __future__ import annotations

import json
import math
import shutil

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.harness.calibration import all_hold, soak_claims
from repro.harness.export import MISSING, diff_records
from repro.harness.slo import (
    BENCH_SCHEMA,
    REQUIRED_METRICS,
    SLOTargets,
    append_record,
    baseline_for,
    describe_slo,
    evaluate_slo,
    load_trajectory,
    new_trajectory,
    slo_payload,
    validate_record,
)
from repro.harness.soak import smoke_configs
from tests.conftest import REPO_ROOT, nudged, numeric_leaves

TRAJECTORY_PATH = REPO_ROOT / "BENCH_soak.json"
#: The newest committed record of each smoke cell, which ``repro gate
#: soak`` requires the cell to regenerate.
NEWEST = {
    cfg.mode: baseline_for(load_trajectory(TRAJECTORY_PATH), cfg.cell())
    for cfg in smoke_configs()
}


def _metrics(**overrides):
    base = {
        "throughput_eps": 1000.0,
        "latency_p50_seconds": 0.01,
        "latency_p99_seconds": 0.1,
        "latency_p999_seconds": 0.2,
        "mttr_mean_seconds": 1.0,
        "mttr_max_seconds": 2.0,
        "rto_max_seconds": 2.5,
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
        ),
        duration_seconds=100.0,
        outage_seconds=0.5,
        latency_p99_seconds=0.5,
        latency_p999_seconds=1.0,
        mttr_max_seconds=1.0,
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


class TestEvaluate:
    def test_all_objectives_met(self):
        verdict = _grade()
        assert verdict.passed
        assert verdict.breaches == []
        assert "SLO met" in describe_slo(slo_payload(verdict))

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
        ],
    )
    def test_each_breach_detected(self, override, objective):
        verdict = _grade(**override)
        assert not verdict.passed
        assert [b.objective for b in verdict.breaches] == [objective]
        assert "SLO BREACH" in describe_slo(slo_payload(verdict))

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


def _failed(checks):
    return [check.claim for check in checks if not check.holds]


@pytest.fixture
def trajectory_dir(tmp_path, monkeypatch):
    """A working directory holding a copy of the committed trajectory."""
    shutil.copy(TRAJECTORY_PATH, tmp_path / TRAJECTORY_PATH.name)
    monkeypatch.chdir(tmp_path)
    return tmp_path / TRAJECTORY_PATH.name


def _rewrite_newest(path, mode, **metric_overrides):
    """Override metrics of the newest committed record of a smoke cell."""
    doc = load_trajectory(path)
    newest = baseline_for(doc, NEWEST[mode]["cell"])
    newest["metrics"].update(metric_overrides)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


class TestGate:
    """The soak record's exact comparison and the bands of a deliberate move."""

    def test_missing_cell_fails(self, trajectory_dir, capsys):
        cluster_cell = NEWEST["cluster"]["cell"]
        doc = load_trajectory(trajectory_dir)
        doc["records"] = [r for r in doc["records"] if r["cell"] != cluster_cell]
        trajectory_dir.write_text(json.dumps(doc))
        assert main(["gate", "soak"]) == 1
        out = capsys.readouterr().out
        assert cluster_cell in out and MISSING in out
        assert "SOAK GATE FAILED" in out
        assert diff_records({}, NEWEST["cluster"])

    def test_within_band_passes(self):
        candidate = _record(
            throughput_eps=950.0,  # -5% within the 10% band
            latency_p99_seconds=0.11,  # +10% within the 25% band
            mttr_max_seconds=2.2,  # +10% within the 25% band
        )
        assert all_hold(soak_claims(_record(), candidate))

    def test_improvement_reported(self):
        """An improvement holds every band, and the exact comparison
        still reports each number that moved."""
        candidate = _record(
            throughput_eps=1500.0, latency_p99_seconds=0.05,
            mttr_max_seconds=1.0,
        )
        assert all_hold(soak_claims(_record(), candidate))
        assert [path for path, _was, _now in diff_records(_record(), candidate)] == [
            "metrics.throughput_eps",
            "metrics.latency_p99_seconds",
            "metrics.mttr_max_seconds",
        ]

    @pytest.mark.parametrize(
        "override, metric",
        [
            ({"throughput_eps": 800.0}, "throughput_eps"),
            ({"latency_p99_seconds": 0.2}, "latency_p99_seconds"),
            ({"mttr_max_seconds": 3.0}, "mttr_max_seconds"),
        ],
    )
    def test_each_regression_fails(self, override, metric):
        assert _failed(soak_claims(_record(), _record(**override))) == [f"soak-{metric}"]

    @pytest.mark.parametrize(
        "metric, committed, at_bound, past_bound",
        [
            # throughput >= 0.9 x, p99 and worst MTTR <= 1.25 x committed.
            ("throughput_eps", 1000.0, 900.0, math.nextafter(900.0, 0.0)),
            ("latency_p99_seconds", 1.0, 1.25, math.nextafter(1.25, math.inf)),
            ("mttr_max_seconds", 2.0, 2.5, math.nextafter(2.5, math.inf)),
        ],
    )
    def test_each_band_holds_at_its_bound_and_fails_one_step_past(
        self, metric, committed, at_bound, past_bound
    ):
        baseline = _record(**{metric: committed})
        assert all_hold(soak_claims(baseline, _record(**{metric: at_bound})))
        past = soak_claims(baseline, _record(**{metric: past_bound}))
        assert _failed(past) == [f"soak-{metric}"]

    def test_zero_baseline_only_strict_worsening_regresses(self):
        baseline = _record(mttr_max_seconds=0.0)
        assert all_hold(soak_claims(baseline, _record(mttr_max_seconds=0.0)))
        worse = soak_claims(baseline, _record(mttr_max_seconds=0.5))
        assert _failed(worse) == ["soak-mttr_max_seconds"]

    @pytest.mark.parametrize(
        "mode, keys",
        [(mode, keys) for mode, record in NEWEST.items() for keys in numeric_leaves(record)],
        ids=lambda case: case if isinstance(case, str) else ".".join(case),
    )
    def test_one_ulp_move_is_named(self, mode, keys):
        moved, old, new = nudged(NEWEST[mode], keys)
        assert diff_records(NEWEST[mode], moved) == [(".".join(keys), old, new)]

    def test_update_with_a_failing_claim_leaves_the_trajectory_untouched(
        self, trajectory_dir, capsys
    ):
        throughput = NEWEST["single"]["metrics"]["throughput_eps"]
        _rewrite_newest(trajectory_dir, "single", throughput_eps=throughput * 10)
        before = trajectory_dir.read_bytes()
        assert main(["gate", "soak", "--update"]) == 1
        assert trajectory_dir.read_bytes() == before
        out = capsys.readouterr().out
        assert "soak-throughput_eps" in out and "left untouched" in out

    def test_update_within_the_bands_appends_the_moved_cell(self, trajectory_dir):
        p99 = NEWEST["single"]["metrics"]["latency_p99_seconds"]
        _rewrite_newest(trajectory_dir, "single", latency_p99_seconds=p99 * 1.1)
        before = load_trajectory(trajectory_dir)["records"]
        assert main(["gate", "soak", "--update"]) == 0
        after = load_trajectory(trajectory_dir)["records"]
        assert after[:-1] == before
        assert after[-1] == NEWEST["single"]
        assert main(["gate", "soak"]) == 0
