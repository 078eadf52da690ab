"""Chaos layer: every injected failure recovers exactly or fails loud."""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.morphstreamr import MorphStreamR
from repro.errors import InjectedCrash, MissingSegmentError
from repro.ft.wal import WriteAheadLog
from repro.check.runner import OUTCOME_FAILED_LOUD as RUN_FAILED_LOUD
from repro.check.runner import OUTCOME_RECOVERED as RUN_RECOVERED
from repro.check.schedule import FaultAtom, Schedule
from repro.harness import chaos
from repro.harness.chaos import (
    CRASH_POINTS,
    FAULT_KINDS,
    CHAOS_SCHEMA,
    FAMILY_NAMES,
    NESTED_CELL,
    ChaosConfig,
    ChaosReport,
    cells,
    chaos_payload,
    run_cell,
    run_chaos,
)
from repro.harness.runner import ground_truth
from repro.storage.faults import FaultInjector, FaultSpec
from repro.storage.filedisk import FileBackedDisk
from repro.storage.integrity import protect
from repro.storage.stores import Disk
from repro.workloads.streaming_ledger import StreamingLedger

DOCUMENTED_OUTCOMES = ("exact", "exact-degraded", "failed-loud")
#: The sweep CI runs on every push.
SMOKE = ChaosConfig(smoke=True)


def chaos_workload():
    return StreamingLedger(
        64,
        transfer_ratio=0.6,
        multi_partition_ratio=0.4,
        skew=0.4,
        forced_abort_ratio=0.05,
        num_partitions=4,
    )


class TestChaosProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        scheme=st.sampled_from(("MSR", "WAL", "DL", "LV", "CKPT")),
        fault=st.sampled_from(FAULT_KINDS),
        point=st.sampled_from(CRASH_POINTS),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_every_cell_recovers_exactly_or_fails_loud(
        self, scheme, fault, point, seed
    ):
        """The chaos contract: under any seeded fault × crash-point
        combination, every scheme either recovers bit-exactly (possibly
        via the fallback ladder) or raises a documented StorageError
        subclass without installing state.  No silent divergence, no
        undocumented exceptions."""
        cell = next(
            c
            for c in cells(ChaosConfig(schemes=(scheme,), seed=seed))
            if (c.fault, c.crash_point) == (fault, point)
        )
        assert cell.schedule.scheme == scheme
        run = run_cell(cell)
        assert run.ok, f"{scheme}/{fault}/{point}: {run.outcome} {run.detail}"
        assert run.outcome in DOCUMENTED_OUTCOMES


class TestMSRTornViewLog:
    def test_torn_view_segment_triggers_ladder_and_recovers_exact(self):
        """The acceptance scenario: a torn tail segment in MSR's view
        log visibly takes the replay rung and still recovers exactly."""
        workload = chaos_workload()
        injector = FaultInjector(
            [FaultSpec("torn", target="log", nth=6, stream="msr")]
        )
        scheme = MorphStreamR(
            workload,
            num_workers=4,
            epoch_len=48,
            snapshot_interval=4,
            disk=Disk(faults=injector),
            gc_keep_checkpoints=2,
        )
        events = workload.generate(48 * 6, seed=7)
        scheme.process_stream(events)
        scheme.crash()
        report = scheme.recover()
        # The ladder stepped down for the torn epoch and says so.
        assert report.ladder.get("replay", 0) >= 1
        assert report.degraded()
        assert any(f.error == "TornSegmentError" for f in report.fallbacks)
        assert any("torn" in f.detail for f in report.fallbacks)
        # ... and exactness still holds.
        expected_state, expected_outputs = ground_truth(workload, events)
        assert scheme.store.equals(expected_state)
        assert scheme.sink.outputs() == expected_outputs


class TestUndecodableLogSegment:
    @pytest.mark.parametrize(
        "scheme_cls, stream",
        [(MorphStreamR, "msr"), (WriteAheadLog, "wal")],
        ids=["MSR", "WAL"],
    )
    def test_crc_valid_garbage_takes_the_replay_rung(self, scheme_cls, stream):
        """A segment whose checksum holds but whose payload is not codec
        output (here: a string that is not UTF-8) reaches the ladder as
        a corrupt segment: that epoch is replayed from its events, the
        others stay on the fast rung, and the result is exact."""
        workload = chaos_workload()
        scheme = scheme_cls(
            workload, num_workers=4, epoch_len=48, snapshot_interval=4
        )
        events = workload.generate(48 * 6, seed=7)
        scheme.process_stream(events)
        assert scheme.disk.logs.has_epoch(stream, 5)
        scheme.disk.logs._segments[(stream, 5)] = protect(b"\x05\x01\x80")
        scheme.crash()
        report = scheme.recover()
        assert report.ladder == {"fast": 1, "replay": 1}
        assert [(f.epoch_id, f.error) for f in report.fallbacks] == [
            (5, "CorruptSegmentError")
        ]
        assert "does not decode" in report.fallbacks[0].detail
        expected_state, expected_outputs = ground_truth(workload, events)
        assert scheme.store.equals(expected_state)
        assert scheme.sink.outputs() == expected_outputs


class TestMidEpochCrash:
    def test_crash_during_group_commit_reprocesses_the_sealed_epoch(self):
        workload = chaos_workload()
        injector = FaultInjector(
            [FaultSpec("crash", target="log", nth=6, stream="msr")]
        )
        scheme = MorphStreamR(
            workload,
            num_workers=4,
            epoch_len=48,
            snapshot_interval=4,
            disk=Disk(faults=injector),
        )
        events = workload.generate(48 * 6, seed=7)
        with pytest.raises(InjectedCrash):
            scheme.process_stream(events)
        assert scheme.crash_epoch == 4  # epoch 5's commit tore mid-flush
        scheme.recover()
        injector.disarm()
        # The sealed-but-unprocessed epoch went back to the ingress
        # tail; an empty push drains it through the ordinary pipeline.
        scheme.process_stream([])
        expected_state, expected_outputs = ground_truth(workload, events)
        assert scheme.store.equals(expected_state)
        assert scheme.sink.outputs() == expected_outputs

    def test_crash_during_checkpoint_falls_back_to_older_checkpoint(self):
        workload = chaos_workload()
        injector = FaultInjector(
            [FaultSpec("crash", target="snapshot", nth=2)]
        )
        scheme = MorphStreamR(
            workload,
            num_workers=4,
            epoch_len=48,
            snapshot_interval=4,
            disk=Disk(faults=injector),
        )
        events = workload.generate(48 * 6, seed=7)
        with pytest.raises(InjectedCrash):
            scheme.process_stream(events)
        assert scheme.crash_epoch == 2  # epoch 3's checkpoint tore
        report = scheme.recover()
        # The torn interval checkpoint was discarded as crash debris;
        # recovery restored from the initial checkpoint.
        assert report.checkpoint_epoch == -1
        injector.disarm()
        scheme.process_stream([])
        expected_state, _outputs = ground_truth(workload, events)
        assert scheme.store.equals(expected_state)


class TestFileDiskTornTail:
    RUN = dict(num_workers=3, epoch_len=50, snapshot_interval=3)

    def test_physically_truncated_tail_segment_recovers_via_ladder(
        self, tmp_path, gs
    ):
        """A real torn flush on a real file: the dying process leaves a
        half-written WAL segment; reopening truncates the torn tail and
        recovery degrades to event replay — still exact."""
        events = gs.generate(350, seed=0)  # epochs 0..6
        disk = FileBackedDisk(tmp_path)
        scheme = WriteAheadLog(gs, disk=disk, **self.RUN)
        scheme.process_stream(events)
        # The "process" dies mid-flush of its newest WAL segment.
        seg = tmp_path / "logs" / "wal" / "6.bin"
        blob = seg.read_bytes()
        seg.write_bytes(blob[: len(blob) // 2])

        reopened = FileBackedDisk(tmp_path)
        assert ("wal", 6) in reopened.logs.truncated_tails
        assert not seg.exists()  # the torn tail was truncated away
        fresh = WriteAheadLog(gs, disk=reopened, **self.RUN)
        fresh.adopt_crash_state()
        report = fresh.recover()
        assert report.ladder.get("replay", 0) == 1
        assert report.fallbacks[0].error == "MissingSegmentError"
        expected, _txns, _outcome = serial_state(gs, events[:350])
        assert fresh.store.equals(expected)

    def test_mid_history_corruption_is_kept_for_the_ladder(self, tmp_path):
        """Only trailing unreadable segments are tail debris; damage
        behind a readable segment is kept and must fail loudly at read
        time (the ladder decides what to do with it)."""
        disk = FileBackedDisk(tmp_path)
        for epoch in (1, 2, 3):
            disk.logs.commit_epoch("wal", epoch, [f"r{epoch}"])
        mid = tmp_path / "logs" / "wal" / "2.bin"
        blob = mid.read_bytes()
        mid.write_bytes(blob[: len(blob) // 2])

        reopened = FileBackedDisk(tmp_path)
        assert reopened.logs.truncated_tails == []
        assert reopened.logs.has_epoch("wal", 2)  # kept, not hidden
        from repro.errors import TornSegmentError

        with pytest.raises(TornSegmentError):
            reopened.logs.read_epoch("wal", 2)
        reopened.logs.read_epoch("wal", 3)  # the readable tail survives


class TestChaosSweep:
    def test_smoke_sweep_passes_with_all_documented_outcomes(self):
        payload = chaos_payload(run_chaos(SMOKE))
        assert payload["passed"], [
            (c["scheme"], c["fault"], c["crash_point"], c["detail"])
            for c in payload["cells"]
            if not c["ok"]
        ]
        counts = payload["outcome_counts"]
        assert set(counts) <= set(DOCUMENTED_OUTCOMES)
        # The sweep exercises the ladder, not just clean recoveries.
        assert counts.get("exact-degraded", 0) >= 1
        # MSR's torn view log visibly took the replay rung.
        msr_torn = [
            c
            for c in payload["cells"]
            if c["scheme"] == "MSR" and c["fault"] == "torn"
        ]
        assert msr_torn
        assert all(c["ladder"].get("replay", 0) >= 1 for c in msr_torn)
        # Every recovering cell reports a positive MTTR; loud-failure
        # cells (e.g. the cluster overwhelm cell, where an expected
        # data loss IS the pass condition) recover nothing.
        assert all(
            c["mttr_seconds"] > 0
            for c in payload["cells"]
            if c["ok"] and c["outcome"] != "failed-loud"
        )

    def test_undocumented_repro_error_fails_the_cell(self, monkeypatch):
        from repro.errors import RecoveryError
        from repro.ft.checkpoint import GlobalCheckpoint

        def recover(self):
            raise RecoveryError("boom")

        monkeypatch.setattr(GlobalCheckpoint, "recover", recover)
        cfg = ChaosConfig(schemes=("CKPT",))
        run = run_cell(cells(cfg)[0])
        assert (run.ok, run.outcome) == (False, "UNEXPECTED")
        assert run.detail == "RecoveryError: boom"
        # With no converged report the export holds an empty report's
        # values: one attempt, no rungs, no time, nothing wasted.
        assert run.obs.report is None
        payload = chaos_payload(ChaosReport(cfg, [run]))
        entry = payload["cells"][0]
        assert entry["attempts"] == 1
        assert entry["ladder"] == {}
        assert entry["mttr_seconds"] == 0.0
        assert entry["resumed"] is False
        assert entry["wasted_events"] == 0
        assert entry["wasted_chains"] == 0
        assert entry["wasted_ratio"] == 0.0
        assert payload["passed"] is False
        assert payload["summary"]["failures"] == 1
        assert payload["summary"]["mttr"]["count"] == 0

    @staticmethod
    def _graded(monkeypatch, cell, **observed):
        """``run_cell``'s grade of ``cell`` when the driver's observation
        is overridden by ``observed``."""
        real = chaos.run_schedule
        monkeypatch.setattr(
            chaos,
            "run_schedule",
            lambda schedule, scenario: replace(real(schedule, scenario), **observed),
        )
        return run_cell(cell)

    def test_data_loss_the_cell_does_not_expect_fails_it(self, monkeypatch):
        cell = next(
            c for c in cells(SMOKE) if c.family == "cluster-kill"
        )
        assert not cell.expect_loss
        run = self._graded(
            monkeypatch,
            cell,
            outcome=RUN_FAILED_LOUD,
            data_loss=True,
            detail="lost shards [0] (96 events)",
        )
        assert (run.ok, run.outcome) == (False, "failed-loud")
        assert run.detail == "unexpected data loss: lost shards [0] (96 events)"

    def test_expected_data_loss_that_recovers_fails_the_cell(self, monkeypatch):
        cell = next(c for c in cells(SMOKE) if c.expect_loss)
        run = self._graded(
            monkeypatch,
            cell,
            outcome=RUN_RECOVERED,
            data_loss=False,
            state_exact=True,
            outputs_exact=True,
        )
        assert (run.ok, run.outcome) == (False, "UNEXPECTED")
        assert run.detail == (
            "under-replicated correlated kill recovered instead of "
            "reporting data loss"
        )

    def test_exact_run_with_a_wrong_stale_read_fails_the_cell(self, monkeypatch):
        cell = cells(ChaosConfig(schemes=("CKPT",)))[0]
        broken = "stale value 1.0 is not the ground truth 2.0 at checkpoint 3"
        run = self._graded(monkeypatch, cell, degraded_probe=broken)
        assert run.obs.outcome == RUN_RECOVERED
        assert run.obs.state_exact and run.obs.outputs_exact
        assert (run.ok, run.outcome) == (False, "UNEXPECTED")
        assert run.detail == f"degraded-staleness-bounded: {broken}"

    def test_config_rejects_nat(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ChaosConfig(schemes=("NAT",))



class TestCells:
    """The sweep is data: every cell is a schedule the one driver runs."""

    @pytest.mark.parametrize("cfg", [ChaosConfig(), SMOKE], ids=["full", "smoke"])
    def test_every_cell_is_a_uniquely_labelled_valid_schedule(self, cfg):
        sweep = cells(cfg)
        labels = [cell.label for cell in sweep]
        assert len(labels) == len(set(labels))
        for cell in sweep:
            # Re-validates the atoms against the explorer's vocabulary.
            assert Schedule.from_payload(cell.schedule.to_payload()) == cell.schedule
            assert cell.family in FAMILY_NAMES

    @pytest.mark.parametrize(
        "cfg, expected",
        [(ChaosConfig(), (105, 21, 36, 7)), (SMOKE, (20, 10, 15, 5))],
        ids=["full", "smoke"],
    )
    def test_family_counts(self, cfg, expected):
        # The four numbers of the ``repro chaos`` banner (tests/test_cli.py
        # pins that the banner is counted off this same list).
        sweep = cells(cfg)
        counts = tuple(
            sum(cell.family == name for cell in sweep) for name in FAMILY_NAMES
        )
        assert counts == expected
        assert len(sweep) == sum(expected)

    def test_recovery_chain_cell_exists_for_msr_only(self):
        chain = [
            c.schedule.scheme
            for c in cells(ChaosConfig())
            if c.crash_point == "recovery.chain"
        ]
        assert chain == ["MSR"]

    def test_nested_cell_is_the_same_milestone_twice(self):
        nested = next(
            c for c in cells(ChaosConfig()) if c.crash_point == NESTED_CELL
        )
        assert [a.label for a in nested.schedule.atoms] == [
            "rpoint:recovery.epoch-replayed",
            "rpoint:recovery.epoch-replayed#2",
        ]

    def test_overwhelm_cell_is_two_kills_at_replication_one(self):
        cell = cells(ChaosConfig())[-1]
        assert cell.expect_loss
        assert cell.scenario.cluster_replication == 1
        assert [a.kind for a in cell.schedule.atoms] == ["node:0.0", "node:1.0"]

    def test_kill_outside_the_schedule_vocabulary_is_a_config_error(self):
        # A cell's kills are fault atoms; the atom refuses a domain the
        # schedule vocabulary does not name.
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="kill"):
            FaultAtom("kill", "rack:7")


class TestChaosRecoveryDimensions:
    """The worker-failure and crash-during-recovery sweep families."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_chaos(SMOKE)

    @pytest.fixture(scope="class")
    def entries(self, report):
        return chaos_payload(report)["cells"]

    def test_smoke_includes_worker_failure_cells(self, report, entries):
        worker_cells = [
            c for c in entries if c["fault"].startswith("worker:")
        ]
        assert len(worker_cells) >= 2
        assert chaos_payload(report)["passed"]
        # At least one death was observed and re-assigned somewhere.
        deaths = [c for c in worker_cells if c["dead_workers"]]
        assert deaths
        assert all(c["reassign_rounds"] >= 1 for c in deaths)
        assert all(c["tasks_reassigned"] > 0 for c in deaths)

    def test_smoke_includes_crash_during_recovery_cells(self, entries):
        recovery_cells = [
            c for c in entries if c["crash_point"].startswith("recovery.")
        ]
        assert recovery_cells
        converged = [
            c for c in recovery_cells if c["crash_point"] != NESTED_CELL
        ]
        assert all(c["attempts"] == 2 for c in converged)
        assert all(c["outcome"] == "exact" for c in recovery_cells)

    def test_nested_cell_converges_in_three_attempts(self, entries):
        nested = [c for c in entries if c["crash_point"] == NESTED_CELL]
        assert nested
        assert all(c["attempts"] == 3 for c in nested)
        assert all(c["ok"] for c in nested)
        # Wasted re-execution is measured, not hidden.
        assert all(c["wasted_ratio"] > 0 for c in nested)

    def test_payload_reports_histogram_and_wasted_work(self, report):
        import json

        payload = chaos_payload(report)
        assert payload["passed"] is True
        assert payload["summary"]["cells"] == len(report.runs)
        assert payload["summary"]["ladder_histogram"].get("fast", 0) > 0
        assert 0 < payload["summary"]["wasted_ratio"] < 1
        cell = payload["cells"][0]
        for key in (
            "ladder",
            "attempts",
            "resumed",
            "reassign_rounds",
            "tasks_reassigned",
            "wasted_ratio",
            "mttr_seconds",
        ):
            assert key in cell
        # Every entry has the same 21 keys: the cell, its grade and the
        # facts of its converged report.
        assert {len(entry) for entry in payload["cells"]} == {21}
        json.dumps(payload)  # exportable as-is

    def test_cluster_cell_mttr_is_the_rto(self, report, entries):
        # A chaos cluster cell's MTTR is the cluster's RTO (detection +
        # parallel makespan), unlike a soak outage's slowest-shard MTTR.
        pairs = [
            (run.obs.report, entry)
            for run, entry in zip(report.runs, entries)
            if entry["scheme"] == "CLUSTER" and run.obs.report is not None
        ]
        assert pairs
        for cluster_report, entry in pairs:
            assert entry["mttr_seconds"] == cluster_report.rto_seconds
            assert entry["wasted_ratio"] == 0.0

    def test_export_states_the_scenario_every_cell_ran(self, report):
        # The run knobs are stated once, under config.scenario: every
        # single-scheme cell ran exactly that scenario, and a cluster
        # cell differs from it only by its placement.
        config = chaos_payload(report)["config"]
        assert set(config) == {
            "schemes", "seed", "smoke", "include_cluster", "scenario",
        }
        scenario = config["scenario"]
        assert scenario["epoch_len"] == 48
        placements = set()
        for run in report.runs:
            cell = asdict(run.cell.scenario)
            if run.cell.family == "cluster-kill":
                placements.add(cell["cluster_placement"])
                cell["cluster_placement"] = scenario["cluster_placement"]
            assert cell == scenario, run.cell.label
        assert placements == {"checkpoint_spread", "standby_replay"}

    def test_payload_is_schema_tagged_and_round_trips(self, report):
        import json

        payload = chaos_payload(report)
        assert payload["schema"] == CHAOS_SCHEMA
        loaded = json.loads(json.dumps(payload))
        assert loaded["passed"] is payload["passed"]

    def test_mttr_covers_crashed_attempts(self, entries):
        # A cell that needed N attempts spent more virtual time than its
        # final successful pass alone; MTTR must reflect the whole story.
        nested = [c for c in entries if c["crash_point"] == NESTED_CELL]
        single = [
            c
            for c in entries
            if c["scheme"] == nested[0]["scheme"]
            and c["fault"] == "none"
            and c["crash_point"] == "boundary"
        ]
        assert nested[0]["mttr_seconds"] > single[0]["mttr_seconds"]


def serial_state(workload, events):
    from tests.conftest import serial_ground_truth

    return serial_ground_truth(workload, events)
