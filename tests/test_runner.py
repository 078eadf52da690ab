"""Experiment runner: sizing, verification, and fault detection."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, RecoveryError
from repro.ft.checkpoint import GlobalCheckpoint
from repro.ft.native import Native
from repro.harness.report import (
    format_seconds,
    format_throughput,
    render_table,
)
from repro.harness.runner import ExperimentConfig, ground_truth, run_experiment
from repro.workloads.grep_sum import GrepSum


def gs_factory():
    return GrepSum(128, num_partitions=4, abort_ratio=0.1)


def config(**overrides):
    params = dict(
        workload_factory=gs_factory,
        scheme=GlobalCheckpoint,
        num_workers=4,
        epoch_len=50,
        snapshot_interval=3,
        recover_epochs=2,
        seed=7,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


class TestExperimentConfig:
    def test_crash_lands_between_checkpoints(self):
        cfg = config()
        assert cfg.total_epochs == 5
        assert cfg.num_events == 250

    def test_recover_epochs_must_stay_below_interval(self):
        with pytest.raises(ConfigError):
            config(recover_epochs=3)
        with pytest.raises(ConfigError):
            config(recover_epochs=-1)


class TestRunExperiment:
    def test_verified_result(self):
        result = run_experiment(config())
        assert result.state_verified and result.outputs_verified
        assert result.recovery is not None
        assert result.recovery.events_replayed == 100
        assert result.runtime.events_processed == 250

    def test_native_runs_runtime_only(self):
        result = run_experiment(config(scheme=Native))
        assert result.recovery is None
        assert result.runtime.throughput_eps > 0

    def test_corrupted_recovery_detected(self):
        class BrokenCheckpoint(GlobalCheckpoint):
            name = "BROKEN"

            def recover(self):
                report = super().recover()
                # Corrupt one record after recovery "succeeds".
                ref = next(iter(self.store.refs()))
                self.store.set(ref, self.store.get(ref) + 1.0)
                return report

        with pytest.raises(RecoveryError):
            run_experiment(config(scheme=BrokenCheckpoint))

    def test_ground_truth_deterministic(self):
        workload = gs_factory()
        events = workload.generate(100, seed=1)
        store1, outputs1 = ground_truth(workload, events)
        store2, outputs2 = ground_truth(gs_factory(), events)
        assert store1.equals(store2)
        assert outputs1 == outputs2


class TestReportFormatting:
    def test_format_seconds_scales(self):
        assert format_seconds(5e-7) == "0.5us"
        assert format_seconds(2.5e-3) == "2.50ms"
        assert format_seconds(3.0) == "3.00s"

    def test_format_throughput_scales(self):
        assert format_throughput(500) == "500/s"
        assert format_throughput(25_000) == "25.0k/s"
        assert format_throughput(2_500_000) == "2.50M/s"

    def test_render_table_alignment(self):
        table = render_table(["a", "bb"], [["1", "22"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows same width
