"""Sustained-traffic soak: determinism, degraded serving, SLO grading."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import SCHEMES
from repro.cluster import ShardedCluster
from repro.engine.refs import StateRef
from repro.errors import ConfigError, RecoveryError
from repro.harness.slo import REQUIRED_METRICS, SLOTargets, baseline_for, load_trajectory
from repro.harness.soak import (
    DEGRADED_READS_PER_OUTAGE,
    SOAK_SCHEMA,
    SoakConfig,
    TokenBucketAdmission,
    bench_record,
    run_soak,
    smoke_configs,
    soak_payload,
)
from repro.workloads.grep_sum import TABLE, GrepSum

#: Generous targets so the tiny test cells grade on mechanism, not speed.
LOOSE_SLO = SLOTargets(
    p99_latency_seconds=10.0,
    p999_latency_seconds=60.0,
    availability=0.2,
    max_mttr_seconds=60.0,
)

SINGLE = SoakConfig(
    mode="single",
    num_keys=128,
    epoch_len=32,
    epochs=8,
    crashes=2,
    num_workers=2,
    snapshot_interval=3,
    detection_seconds=0.0001,
    seed=11,
    slo=LOOSE_SLO,
)

CLUSTER = SoakConfig(
    mode="cluster",
    num_keys=128,
    epoch_len=32,
    epochs=8,
    crashes=1,
    num_workers=2,
    snapshot_interval=3,
    shards=4,
    racks=2,
    nodes_per_rack=2,
    replication=1,
    detection_seconds=0.0001,
    seed=11,
    slo=LOOSE_SLO,
)


@pytest.fixture(scope="module")
def single_result():
    return run_soak(SINGLE)


@pytest.fixture(scope="module")
def cluster_result():
    return run_soak(CLUSTER)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SoakConfig(mode="galaxy")
        with pytest.raises(ConfigError):
            SoakConfig(scheme="NAT")
        with pytest.raises(ConfigError):
            SoakConfig(epochs=4, snapshot_interval=4)
        with pytest.raises(ConfigError):
            SoakConfig(epochs=6, snapshot_interval=4, crashes=5)
        with pytest.raises(ConfigError):
            SoakConfig(mode="cluster", chaos=True)

    def test_crash_schedule_is_seeded_and_eligible(self):
        first = SINGLE.crash_schedule()
        assert first == SINGLE.crash_schedule()
        assert len(first) == SINGLE.crashes
        assert all(
            SINGLE.snapshot_interval <= e < SINGLE.epochs for e in first
        )
        other = SoakConfig(
            mode="single",
            num_keys=128,
            epoch_len=32,
            epochs=8,
            crashes=2,
            snapshot_interval=3,
            seed=12,
            slo=LOOSE_SLO,
        )
        # Different seed, different schedule (for these two seeds).
        assert other.crash_schedule() != first

    def test_cell_fingerprint(self):
        cell = SINGLE.cell()
        assert cell.startswith("single/MSR/")
        assert "k128" in cell and "E8" in cell and "s11" in cell
        assert "sh" not in cell
        cluster_cell = CLUSTER.cell()
        assert "sh4x2x2r1-checkpoint_spread" in cluster_cell
        chaos_cell = SoakConfig(
            num_keys=128, epoch_len=32, epochs=8, snapshot_interval=3,
            chaos=True, slo=LOOSE_SLO,
        ).cell()
        assert chaos_cell.endswith("/chaos")


class TestTokenBucket:
    def test_conformant_arrivals_pass_through(self):
        bucket = TokenBucketAdmission(rate_eps=10.0, burst=1)
        for i in range(5):
            arrival = i * 0.2  # half the admitted rate
            assert bucket.admit(arrival) == arrival
        assert bucket.deferred == 0

    def test_burst_tolerated_then_deferred(self):
        bucket = TokenBucketAdmission(rate_eps=10.0, burst=3)
        admits = [bucket.admit(0.0) for _ in range(6)]
        # burst+1 conformant at t=0 (the boundary event still conforms),
        # then the queue spaces out at the admitted rate.
        assert admits[:4] == [0.0, 0.0, 0.0, 0.0]
        assert admits[4:] == pytest.approx([0.1, 0.2])
        assert bucket.deferred == 2
        assert bucket.max_delay_seconds == pytest.approx(0.2)

    def test_gate_backs_arrivals_off(self):
        bucket = TokenBucketAdmission(rate_eps=10.0, burst=1)
        bucket.gate = 5.0  # recovery completes at t=5
        # Backlogged arrivals drain from the gate onward at the bounded
        # admitted rate (one burst slot, then rate-spaced).
        assert bucket.admit(1.0) == 5.0
        assert bucket.admit(1.1) == pytest.approx(5.0)
        assert bucket.admit(1.2) == pytest.approx(5.1)
        assert bucket.deferred == 3

    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigError):
            TokenBucketAdmission(rate_eps=0.0, burst=1)


class TestSingleSoak:
    def test_verified_and_slo(self, single_result):
        r = single_result
        v = r.verification
        assert v.ran
        assert v.state and v.outputs and v.degraded_reads
        assert r.slo.passed
        assert r.ok

    def test_metrics_shape(self, single_result):
        r, m = single_result, single_result.metrics
        assert m.throughput_eps > 0
        assert 0.0 < m.availability <= 1.0
        # Every event of the stream got a latency sample.
        assert sum(e["events"] for e in r.epoch_series) == SINGLE.num_events
        assert (
            0
            < m.latency_p50_seconds
            <= m.latency_p99_seconds
            <= m.latency_p999_seconds
            <= m.latency_max_seconds
        )
        assert len(r.epoch_series) == SINGLE.epochs
        assert m.capacity_eps > m.offered_eps > 0

    def test_outages_follow_the_seeded_schedule(self, single_result):
        r = single_result
        assert [o.epoch for o in r.outages] == SINGLE.crash_schedule()
        flagged = [e["epoch"] for e in r.epoch_series if e["outage_after"]]
        assert flagged == SINGLE.crash_schedule()
        for outage in r.outages:
            assert outage.mttr_seconds > 0
            assert outage.rto_seconds >= outage.mttr_seconds

    def test_every_degraded_read_is_stale_tagged(self, single_result):
        r = single_result
        expected = SINGLE.crashes * DEGRADED_READS_PER_OUTAGE
        assert r.metrics.degraded_reads == expected
        assert r.metrics.stale_reads == expected  # single node: never fresh
        assert len(r.degraded_samples) == expected
        for _table, _key, value, ckpt, staleness, stale in r.degraded_samples:
            assert stale is True
            assert staleness >= 0
            assert ckpt >= 0
            assert value is not None

    def test_outage_backlog_defers_admissions(self, single_result):
        r = single_result
        assert r.metrics.deferred_events > 0
        assert r.max_admission_delay_seconds > 0

    def test_deterministic_rerun_is_bit_identical(self, single_result):
        again = run_soak(SINGLE)
        assert again.degraded_samples == single_result.degraded_samples
        assert again.metrics == single_result.metrics
        assert again.outages == single_result.outages
        assert again.epoch_series == single_result.epoch_series
        assert bench_record(again) == bench_record(single_result)

    def test_degraded_read_requires_a_crash(self):
        workload = GrepSum(64, list_len=2, skew=0.5)
        scheme = SCHEMES["MSR"](workload, num_workers=2, epoch_len=16)
        scheme.process_stream(workload.generate(16, seed=3))
        with pytest.raises(RecoveryError):
            scheme.degraded_read(StateRef(TABLE, 0))


class TestClusterSoak:
    def test_verified_and_slo(self, cluster_result):
        r = cluster_result
        v = r.verification
        assert v.ran
        assert v.state and v.outputs and v.degraded_reads
        assert r.slo.passed
        assert r.ok

    def test_outages_and_serving_mix(self, cluster_result):
        r = cluster_result
        assert len(r.outages) == CLUSTER.crashes
        for outage in r.outages:
            assert outage.kind.startswith("kill:")
            assert outage.rto_seconds > 0
        # Reads routed to dead shards are stale-tagged; reads landing on
        # survivors are fresh with a zero staleness bound.
        m = r.metrics
        fresh_reads = sum(o.fresh_reads for o in r.outages)
        assert m.degraded_reads == m.stale_reads + fresh_reads
        assert m.degraded_reads == (
            CLUSTER.crashes * DEGRADED_READS_PER_OUTAGE
        )
        for _t, _k, _v, _ckpt, staleness, stale in r.degraded_samples:
            if stale:
                assert staleness >= 0
            else:
                assert staleness == 0


class TestModeTranslation:
    """What the one loop relies on each per-mode driver to translate."""

    def test_single_rto_is_detection_plus_mttr(self, single_result):
        assert single_result.outages
        for outage in single_result.outages:
            assert outage.kind == "crash"
            assert outage.detection_seconds == SINGLE.detection_seconds
            assert outage.rto_seconds == (
                outage.detection_seconds + outage.mttr_seconds
            )

    def test_cluster_outage_quotes_the_cluster_report(self, monkeypatch):
        reports = []
        recover = ShardedCluster.recover

        def spy(cluster):
            reports.append(recover(cluster))
            return reports[-1]

        monkeypatch.setattr(ShardedCluster, "recover", spy)
        result = run_soak(CLUSTER)
        assert len(reports) == len(result.outages) == CLUSTER.crashes
        for outage, report in zip(result.outages, reports):
            assert outage.mttr_seconds == report.max_mttr_seconds
            assert outage.rto_seconds == report.rto_seconds
            assert outage.detection_seconds == report.detection_seconds
            assert outage.kind == "kill:" + ",".join(
                map(str, report.shards_killed)
            )


#: The committed export schema: exact key sets, listed once, here.
DOCUMENT_KEYS = {
    "schema", "cell", "config", "metrics", "slo", "verification",
    "admission", "outages", "epoch_series", "ok",
}
METRIC_KEYS = {
    "throughput_eps", "capacity_eps", "offered_eps", "latency_p50_seconds",
    "latency_p99_seconds", "latency_p999_seconds", "latency_max_seconds",
    "mttr_mean_seconds", "mttr_max_seconds", "rto_max_seconds", "availability",
    "outage_seconds", "duration_seconds", "degraded_reads", "stale_reads",
    "deferred_events",
}
SINGLE_CONFIG_KEYS = {
    "mode", "scheme", "num_keys", "epoch_len", "epochs", "crashes",
    "num_workers", "snapshot_interval", "skew", "seed", "chaos",
}
TOPOLOGY_KEYS = {"shards", "racks", "nodes_per_rack", "replication", "placement"}
OUTAGE_KEYS = {
    "epoch", "kind", "mttr_seconds", "detection_seconds", "rto_seconds",
    "degraded_reads", "stale_reads", "fresh_reads",
    "max_staleness_epochs", "attempts", "resumed", "ladder",
}


class TestPayloads:
    @pytest.mark.parametrize("mode", ["single", "cluster"])
    def test_soak_payload_exact_key_sets(
        self, mode, single_result, cluster_result
    ):
        result = single_result if mode == "single" else cluster_result
        payload = soak_payload(result)
        assert set(payload) == DOCUMENT_KEYS
        assert set(payload["metrics"]) == METRIC_KEYS
        assert len(METRIC_KEYS) == 16
        expected_config = SINGLE_CONFIG_KEYS | (
            TOPOLOGY_KEYS if mode == "cluster" else set()
        )
        assert set(payload["config"]) == expected_config
        assert len(expected_config) == (16 if mode == "cluster" else 11)
        assert payload["outages"]
        for outage in payload["outages"]:
            assert set(outage) == OUTAGE_KEYS
        assert set(payload["verification"]) == {
            "ran", "state", "outputs", "degraded_reads",
        }
        assert set(payload["admission"]) == {"max_delay_seconds"}
        assert set(payload["slo"]) == {"passed", "breaches", "error_budget"}
        assert set(payload["slo"]["error_budget"]) == {
            "allowed_outage_seconds", "spent_outage_seconds", "burn_fraction",
        }
        json.dumps(payload)  # must be JSON-serializable as-is

    @pytest.mark.parametrize("cfg", smoke_configs(), ids=lambda c: c.mode)
    def test_bench_record_reproduces_the_committed_trajectory(self, cfg):
        """``bench_record``'s "bit for bit", as an assertion: the smoke
        cells regenerate their newest committed BENCH_soak.json record.

        The trajectory is appended to, never rewritten.  Its newest pair
        was appended when the admission constants (offered load factor,
        headroom, burst) left the record's ``config``: every other
        number equals the pair before it, and the older records are the
        history of the numbers that did move."""
        trajectory = load_trajectory(
            Path(__file__).resolve().parent.parent / "BENCH_soak.json"
        )
        assert bench_record(run_soak(cfg)) == baseline_for(trajectory, cfg.cell())

    def test_soak_payload_schema(self, single_result):
        payload = soak_payload(single_result)
        assert payload["schema"] == SOAK_SCHEMA
        assert payload["cell"] == single_result.cell
        assert payload["ok"] is True
        assert payload["verification"]["state"] is True
        assert len(payload["outages"]) == SINGLE.crashes
        assert len(payload["epoch_series"]) == SINGLE.epochs
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_bench_record_contract(self, single_result):
        record = bench_record(single_result)
        assert record["cell"] == single_result.cell
        assert set(REQUIRED_METRICS) <= set(record["metrics"])
        assert record["slo_passed"] is True
        # The trajectory must be reproducible: no wall-clock anywhere.
        flat = json.dumps(record)
        assert "timestamp" not in flat and "time_utc" not in flat

    def test_smoke_configs_cover_both_modes(self):
        modes = [cfg.mode for cfg in smoke_configs()]
        assert modes == ["single", "cluster"]
        for cfg in smoke_configs(seed=5):
            assert cfg.seed == 5
            assert cfg.crashes >= 1
