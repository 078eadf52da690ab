"""Resumable recovery: watermarks, crash-during-recovery, convergence.

The acceptance contract of the resumable-recovery machinery:

- killing the recovering process at *any* ``recovery.*`` milestone and
  re-running ``recover()`` converges on a state bit-identical to an
  uninterrupted recovery (idempotent re-execution of the in-flight
  chain included);
- nested failures (the retry crashes too) still converge;
- a damaged watermark degrades to a fresh-start recovery, never to a
  wrong state;
- killing any single recovery worker yields the same final state hash
  as a failure-free recovery.
"""

from __future__ import annotations

import pytest

from repro import SCHEMES
from repro.core.morphstreamr import MorphStreamR
from repro.errors import InjectedCrash, StorageError
from repro.ft.checkpoint import GlobalCheckpoint
from repro.ft.recovery import WATERMARK_FORMAT, Recovery
from repro.ft.wal import WriteAheadLog
from repro.harness.chaos import RECOVERY_CRASH_POINTS
from repro.harness.runner import ground_truth
from repro.sim.executor import WorkerFault
from repro.storage.codec import decode, encode
from repro.storage.device import StorageDevice
from repro.storage.faults import FaultInjector, FaultSpec
from repro.storage.filedisk import FileBackedDisk
from repro.storage.integrity import protect, verify
from repro.storage.stores import Disk, ProgressStore
from repro.workloads.grep_sum import GrepSum
from repro.workloads.streaming_ledger import StreamingLedger
from tests.reference_codec_v2 import reference_encode_v2

RUN = dict(
    num_workers=4, epoch_len=48, snapshot_interval=4, gc_keep_checkpoints=2
)
EPOCHS = 6


def make_workload():
    return StreamingLedger(
        64,
        transfer_ratio=0.6,
        multi_partition_ratio=0.4,
        skew=0.4,
        forced_abort_ratio=0.05,
        num_partitions=4,
    )


def run_to_crash(scheme_cls, injector=None, **kwargs):
    workload = make_workload()
    events = workload.generate(48 * EPOCHS, seed=7)
    scheme = scheme_cls(
        workload, disk=Disk(faults=injector), **RUN, **kwargs
    )
    try:
        scheme.process_stream(events)
        scheme.crash()
    except InjectedCrash:
        pass
    return scheme, workload, events


def recover_until_converged(scheme, max_attempts=6):
    for _attempt in range(max_attempts):
        try:
            return scheme.recover()
        except InjectedCrash:
            continue
    raise AssertionError(f"no convergence within {max_attempts} attempts")


def state_hash(scheme):
    return encode(scheme.store.snapshot())


def baseline_hash(scheme_cls):
    scheme, _wl, _events = run_to_crash(scheme_cls)
    scheme.recover()
    return state_hash(scheme)


def crash_at(point, nth=1):
    return FaultSpec("crash_point", target="any", nth=nth, point=point)


class TestProgressStore:
    def test_round_trip(self):
        store = ProgressStore(StorageDevice())
        assert not store.exists
        record = {"scheme": "MSR", "next_epoch": 3, "state": {"t": [1, 2]}}
        store.save(record)
        assert store.exists
        loaded, seconds = store.load()
        assert loaded == record
        assert seconds > 0

    def test_load_when_absent_returns_none(self):
        store = ProgressStore(StorageDevice())
        assert store.load() == (None, 0.0)

    def test_clear_drops_slot_and_mark(self):
        store = ProgressStore(StorageDevice())
        store.save({"next_epoch": 1})
        store.save_chain_mark({"epoch": 1, "chains_done": 2})
        store.clear()
        assert not store.exists
        assert store.load_chain_mark()[0] is None

    def test_save_clears_stale_chain_mark(self):
        # A watermark supersedes the in-flight epoch's chain mark: the
        # mark describes progress *within* the epoch the watermark just
        # sealed past.
        store = ProgressStore(StorageDevice())
        store.save_chain_mark({"epoch": 1, "chains_done": 5})
        store.save({"next_epoch": 2})
        assert store.load_chain_mark()[0] is None

    def test_torn_slot_raises_loudly(self):
        injector = FaultInjector(
            [FaultSpec("torn", target="progress", nth=1)]
        )
        store = ProgressStore(StorageDevice(), injector)
        store.save({"next_epoch": 1})
        with pytest.raises(StorageError):
            store.load()

    def test_damaged_chain_mark_treated_as_absent(self):
        injector = FaultInjector(
            [FaultSpec("bitflip", target="progress", nth=1)]
        )
        store = ProgressStore(StorageDevice(), injector)
        store.save_chain_mark({"epoch": 1, "chains_done": 5})
        mark, _seconds = store.load_chain_mark()
        assert mark is None

    def test_delta_charging_bills_fewer_bytes(self):
        store = ProgressStore(StorageDevice())
        record = {"state": {"t": list(range(500))}, "next_epoch": 1}
        full = store.save(record)
        incremental = store.save(record, charge_bytes=64)
        assert incremental < full


class TestFileProgressStore:
    def test_watermark_survives_process_restart(self, tmp_path):
        disk = FileBackedDisk(tmp_path)
        disk.progress.save({"scheme": "MSR", "next_epoch": 2})
        disk.progress.save_chain_mark({"epoch": 2, "chains_done": 1})
        reopened = FileBackedDisk(tmp_path)
        assert reopened.progress.exists
        assert reopened.progress.load()[0]["next_epoch"] == 2
        assert reopened.progress.load_chain_mark()[0] == {
            "epoch": 2,
            "chains_done": 1,
        }

    def test_clear_removes_files(self, tmp_path):
        disk = FileBackedDisk(tmp_path)
        disk.progress.save({"next_epoch": 2})
        disk.progress.clear()
        assert not (tmp_path / "progress" / "progress.bin").exists()
        assert not FileBackedDisk(tmp_path).progress.exists


class TestCrashDuringRecoveryConverges:
    @pytest.mark.parametrize("point", RECOVERY_CRASH_POINTS)
    def test_every_point_converges_to_uninterrupted_state(self, point):
        clean, _wl, _events = run_to_crash(MorphStreamR)
        clean_report = clean.recover()
        injector = FaultInjector([crash_at(point)])
        scheme, workload, events = run_to_crash(MorphStreamR, injector)
        report = recover_until_converged(scheme)
        assert state_hash(scheme) == state_hash(clean)
        assert report.attempts == 2
        # Resume fidelity: what the watermark carried across the death
        # plus what the retry counted is what one uninterrupted attempt
        # counts.
        for name in (
            "ladder",
            "fallbacks",
            "events_replayed",
            "epochs_replayed",
            "checkpoint_epoch",
            "checkpoint_fallbacks",
        ):
            assert getattr(report, name) == getattr(clean_report, name), name
        # The slate is clean: a later crash starts recovery afresh.
        assert not scheme.disk.progress.exists

    def test_resume_restores_from_watermark_not_scratch(self):
        injector = FaultInjector([crash_at("recovery.epoch-replayed")])
        scheme, _wl, _events = run_to_crash(MorphStreamR, injector)
        report = recover_until_converged(scheme)
        assert report.resumed
        assert report.resumed_from_epoch is not None
        # One replayed epoch died unwatermarked and was re-executed.
        assert report.wasted_events == 48

    def test_delta_checkpoint_watermark_is_encoded_from_the_state(self):
        """A watermark whose base checkpoint is a delta chain resumes
        like any other: the base is whatever ``snapshots.load`` rebuilds."""
        injector = FaultInjector([crash_at("recovery.epoch-replayed")])
        scheme, workload, events = run_to_crash(
            GlobalCheckpoint, injector, incremental_snapshots=True
        )
        assert scheme.disk.snapshots.is_delta(scheme.disk.snapshots.latest_epoch())
        with pytest.raises(InjectedCrash):
            scheme.recover()
        slot = scheme.disk.progress._slots["progress"]
        assert slot == protect(reference_encode_v2(decode(verify(slot, "test"))))
        scheme.recover()
        expected_state, _outputs = ground_truth(workload, events)
        assert scheme.store.equals(expected_state)

    def test_nested_double_crash_converges(self):
        expected = baseline_hash(MorphStreamR)
        injector = FaultInjector(
            [
                crash_at("recovery.epoch-replayed", nth=1),
                crash_at("recovery.epoch-replayed", nth=2),
            ]
        )
        scheme, _wl, _events = run_to_crash(MorphStreamR, injector)
        report = recover_until_converged(scheme)
        assert report.attempts == 3
        assert state_hash(scheme) == expected

    def test_outputs_exactly_once_across_attempts(self):
        injector = FaultInjector([crash_at("recovery.epoch-replayed")])
        scheme, workload, events = run_to_crash(MorphStreamR, injector)
        recover_until_converged(scheme)
        injector.disarm()
        scheme.process_stream([])
        expected_state, expected_outputs = ground_truth(workload, events)
        assert scheme.store.equals(expected_state)
        assert scheme.sink.outputs() == expected_outputs
        # The re-executed epoch re-delivered its outputs; the sink must
        # have deduplicated them.
        assert scheme.sink.duplicates_suppressed > 0

    def test_damaged_watermark_falls_back_to_fresh_start(self):
        expected = baseline_hash(MorphStreamR)
        injector = FaultInjector(
            [
                FaultSpec("torn", target="progress", nth=1),
                crash_at("recovery.epoch-replayed"),
            ]
        )
        scheme, _wl, _events = run_to_crash(MorphStreamR, injector)
        report = recover_until_converged(scheme)
        # The torn watermark was rejected; attempt 2 started afresh and
        # still landed on the exact state.
        assert not report.resumed
        assert state_hash(scheme) == expected


class TestWatermarkIsADeltaLog:
    """The slot stores what it is billed: increments over a checkpoint."""

    @staticmethod
    def reference_delta_bytes(prev, cur):
        """The bill of the full-state diff the delta log replaced
        (``Recovery._watermark_delta_bytes``, frozen when it was
        deleted): encoded size of the records of ``cur`` that differ
        from ``prev``, one ``{table: changed}`` blob per table."""
        total = 0
        for table, records in cur.items():
            prev_records = prev[table]
            changed = {
                k: v for k, v in records.items() if prev_records.get(k) != v
            }
            if changed:
                total += len(encode({table: changed}))
        return total

    @pytest.mark.parametrize("point", RECOVERY_CRASH_POINTS)
    @pytest.mark.parametrize("name", sorted(set(SCHEMES) - {"NAT"}))
    def test_every_save_rebuilds_the_state_and_bills_its_increment(
        self, name, point, monkeypatch
    ):
        states, saves = [], []
        save_progress, save = Recovery._save_progress, ProgressStore.save

        def spy_save_progress(self, scheme, machine, store, report, next_epoch):
            states.append(store.snapshot())
            save_progress(self, scheme, machine, store, report, next_epoch)

        def spy_save(self, record, charge_bytes=None):
            seconds = save(self, record, charge_bytes)
            saves.append((record, charge_bytes, self._slots["progress"]))
            return seconds

        monkeypatch.setattr(Recovery, "_save_progress", spy_save_progress)
        monkeypatch.setattr(ProgressStore, "save", spy_save)
        injector = FaultInjector([crash_at(point)])
        scheme, workload, events = run_to_crash(SCHEMES[name], injector)
        report = recover_until_converged(scheme)
        assert report.attempts == 1 + injector.crashes_fired
        assert len(states) == len(saves) == report.watermark_saves >= 3

        appended_before = 0
        for i, (state, (record, charge_bytes, slot)) in enumerate(
            zip(states, saves)
        ):
            assert record["format"] == WATERMARK_FORMAT
            assert "state" not in record
            rebuilt, _io = scheme.disk.snapshots.load(record["snap_epoch"])
            for blob in record["deltas"]:
                for table, records in decode(blob.data).items():
                    rebuilt[table].update(records)
            assert rebuilt == state
            # The slot holds the canonical encoding of the record,
            # earlier increments spliced back verbatim.  (The v2 oracle
            # since PR 23: each blob's ``{key: value}`` is a state table,
            # two packed columns.  The billing rule did not change.)
            assert slot == protect(
                reference_encode_v2(decode(verify(slot, "t")))
            )
            # Billed: this save's blobs — what the parent's O(state)
            # diff against the previous watermark came to.  A fresh
            # start's first watermark has replayed nothing yet.
            fresh = record["next_epoch"] == record["snap_epoch"] + 1
            if fresh:
                assert record["deltas"] == []
                appended_before = 0
            appended = sum(len(blob) for blob in record["deltas"])
            assert charge_bytes == 64 + appended - appended_before
            previous = state if fresh else states[i - 1]
            assert charge_bytes == 64 + self.reference_delta_bytes(
                previous, state
            )
            appended_before = appended

        injector.disarm()
        scheme.process_stream([])
        expected_state, expected_outputs = ground_truth(workload, events)
        assert scheme.store.equals(expected_state)
        assert scheme.sink.outputs() == expected_outputs
        assert scheme.store.journal is None

    def test_unreadable_base_checkpoint_degrades_to_a_fresh_start(self):
        injector = FaultInjector([crash_at("recovery.epoch-replayed")])
        scheme, workload, events = run_to_crash(GlobalCheckpoint, injector)
        with pytest.raises(InjectedCrash):
            scheme.recover()
        snapshots = scheme.disk.snapshots
        record = decode(verify(scheme.disk.progress._slots["progress"], "test"))
        base = record["snap_epoch"]
        assert base == snapshots.latest_epoch()
        kind, blob, parent = snapshots._snapshots[base]
        flipped = bytearray(blob)
        flipped[len(flipped) // 2] ^= 0x10
        snapshots._snapshots[base] = (kind, bytes(flipped), parent)

        report = scheme.recover()
        assert not report.resumed
        assert report.watermark_degradations == 1
        # Fresh start down the ladder: the older checkpoint, more replay.
        assert report.checkpoint_fallbacks == 1
        assert report.checkpoint_epoch < base
        assert not scheme.disk.progress.exists
        injector.disarm()
        scheme.process_stream([])
        expected_state, expected_outputs = ground_truth(workload, events)
        assert scheme.store.equals(expected_state)
        assert scheme.sink.outputs() == expected_outputs

    def test_watermark_cost_does_not_scale_with_state_size(self, encoded_bytes):
        """8 192 records, 32-event epochs: a watermark that encoded (or
        copied and diffed) the state would encode ~100 KB per save for
        the few hundred bytes the device is charged."""
        workload = GrepSum(
            8192, list_len=4, skew=0.2, multi_partition_ratio=0.5
        )
        events = workload.generate(32 * 6, seed=7)
        scheme = GlobalCheckpoint(
            workload, num_workers=4, epoch_len=32, snapshot_interval=4
        )
        scheme.process_stream(events)
        scheme.crash()
        stats = scheme.disk.device.stats
        charged_before = stats.bytes_written + stats.bytes_read
        encoded_bytes[0] = 0
        report = scheme.recover()
        charged = stats.bytes_written + stats.bytes_read - charged_before
        assert report.epochs_replayed == 2 and report.watermark_saves == 3
        assert encoded_bytes[0] <= 1.1 * charged, (
            f"encoded {encoded_bytes[0]} bytes for {charged} charged"
        )
        # Absolute, too: three saves, each far below one state encoding.
        assert encoded_bytes[0] < len(encode(scheme.store.snapshot())) // 10
        expected_state, _outputs = ground_truth(workload, events)
        assert scheme.store.equals(expected_state)


class TestLadderRungConvergence:
    """Satellite: crash mid-rung, for every rung, equals uninterrupted."""

    def _expected(self, scheme_cls, specs):
        injector = FaultInjector(list(specs))
        scheme, _wl, _events = run_to_crash(scheme_cls, injector)
        report = scheme.recover()
        return state_hash(scheme), report

    def test_fast_rung(self):
        expected, _report = self._expected(MorphStreamR, [])
        injector = FaultInjector([crash_at("recovery.epoch-replayed")])
        scheme, _wl, _events = run_to_crash(MorphStreamR, injector)
        report = recover_until_converged(scheme)
        assert report.ladder.get("fast", 0) >= 1
        assert state_hash(scheme) == expected

    def test_replay_rung(self):
        torn = FaultSpec("torn", target="log", nth=6, stream="msr")
        expected, base = self._expected(MorphStreamR, [torn])
        assert base.ladder.get("replay", 0) >= 1
        injector = FaultInjector(
            [torn, crash_at("recovery.epoch-replayed")]
        )
        scheme, _wl, _events = run_to_crash(MorphStreamR, injector)
        report = recover_until_converged(scheme)
        assert report.ladder.get("replay", 0) >= 1
        assert state_hash(scheme) == expected

    def test_checkpoint_fallback_rung(self):
        torn = FaultSpec("torn", target="snapshot", nth=2)
        expected, base = self._expected(MorphStreamR, [torn])
        assert base.checkpoint_fallbacks >= 1
        injector = FaultInjector(
            [torn, crash_at("recovery.epoch-replayed")]
        )
        scheme, _wl, _events = run_to_crash(MorphStreamR, injector)
        report = recover_until_converged(scheme)
        assert report.checkpoint_fallbacks >= 1
        assert state_hash(scheme) == expected

    def test_fail_loud_rung_stays_loud_across_attempts(self):
        # CKPT with its only checkpoints damaged has no rung to land on;
        # a crash during the attempt must not turn the loud failure into
        # a silent one on retry.
        specs = [
            FaultSpec("torn", target="snapshot", nth=1),
            FaultSpec("torn", target="snapshot", nth=2),
            FaultSpec("torn", target="snapshot", nth=3),
        ]
        scheme, _wl, _events = run_to_crash(GlobalCheckpoint, FaultInjector(specs))
        with pytest.raises(StorageError):
            scheme.recover()
        assert scheme.store is None
        with pytest.raises(StorageError):
            scheme.recover()
        assert scheme.store is None


class TestWorkerDeathExactness:
    @pytest.mark.parametrize("victim", [0, 1, 2, 3])
    def test_killing_any_single_worker_preserves_state_hash(self, victim):
        expected = baseline_hash(MorphStreamR)
        scheme, _wl, _events = run_to_crash(
            MorphStreamR,
            recovery_faults=(WorkerFault(victim, "die", at_seconds=0.0),),
        )
        report = scheme.recover()
        assert report.dead_workers == (victim,)
        assert report.reassign_rounds >= 1
        assert report.tasks_reassigned > 0
        assert state_hash(scheme) == expected

    def test_straggler_changes_timing_not_state(self):
        expected = baseline_hash(MorphStreamR)
        clean, _wl, _ev = run_to_crash(MorphStreamR)
        clean_mttr = clean.recover().elapsed_seconds
        scheme, _wl2, _ev2 = run_to_crash(
            MorphStreamR,
            recovery_faults=(
                WorkerFault(0, "straggle", at_seconds=0.0, slowdown=8.0),
            ),
        )
        report = scheme.recover()
        assert state_hash(scheme) == expected
        assert report.elapsed_seconds > clean_mttr

    def test_death_plus_recovery_crash_converges(self):
        expected = baseline_hash(MorphStreamR)
        injector = FaultInjector([crash_at("recovery.watermark")])
        scheme, _wl, _events = run_to_crash(
            MorphStreamR,
            injector,
            recovery_faults=(WorkerFault(1, "die", at_seconds=0.0),),
        )
        report = recover_until_converged(scheme)
        assert report.attempts == 2
        assert report.reassign_rounds >= 1
        assert state_hash(scheme) == expected

    def test_wal_recovery_with_dead_worker_matches_ground_truth(self):
        scheme, workload, events = run_to_crash(
            WriteAheadLog,
            recovery_faults=(WorkerFault(1, "die", at_seconds=0.0),),
        )
        scheme.recover()
        expected_state, _outputs = ground_truth(workload, events)
        assert scheme.store.equals(expected_state)


class TestFileBackedResume:
    def test_new_process_resumes_from_durable_watermark(self, tmp_path):
        workload = make_workload()
        events = workload.generate(48 * EPOCHS, seed=7)
        injector = FaultInjector([crash_at("recovery.epoch-replayed")])
        disk = FileBackedDisk(tmp_path, faults=injector)
        scheme = MorphStreamR(workload, disk=disk, **RUN)
        scheme.process_stream(events)
        scheme.crash()
        with pytest.raises(InjectedCrash):
            scheme.recover()
        # The watermark reached the real filesystem before the death.
        assert (tmp_path / "progress" / "progress.bin").exists()

        # A brand-new process on the same directory picks it up.
        fresh = MorphStreamR(
            make_workload(), disk=FileBackedDisk(tmp_path), **RUN
        )
        fresh.adopt_crash_state()
        report = fresh.recover()
        assert report.resumed

        # And matches an uninterrupted in-memory recovery of the same run.
        assert state_hash(fresh) == baseline_hash(MorphStreamR)
