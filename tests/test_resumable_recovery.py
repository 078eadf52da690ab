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

from repro.core.morphstreamr import MorphStreamR
from repro.errors import InjectedCrash, StorageError
from repro.ft.checkpoint import GlobalCheckpoint
from repro.ft.wal import WriteAheadLog
from repro.harness.chaos import RECOVERY_CRASH_POINTS
from repro.harness.runner import ground_truth
from repro.sim.executor import WorkerFault
from repro.storage.codec import Encoded, decode, encode
from repro.storage.device import StorageDevice
from repro.storage.faults import FaultInjector, FaultSpec
from repro.storage.filedisk import FileBackedDisk
from repro.storage.integrity import protect, verify
from repro.storage.stores import Disk, ProgressStore
from repro.workloads.streaming_ledger import StreamingLedger
from tests.reference_codec import reference_encode

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

    @pytest.mark.parametrize("scheme_cls", [GlobalCheckpoint, MorphStreamR])
    def test_first_watermark_splices_the_checkpoints_own_bytes(
        self, scheme_cls, monkeypatch
    ):
        """The watermark saved right after the checkpoint load carries
        the checkpoint's verified payload in place of the state dict.
        The slot must hold exactly what encoding the plain record gives
        (the encoding is canonical), and the next attempt resumes from
        it.  Dying at the first ``recovery.epoch-replayed`` leaves that
        first watermark in the slot: the next one is saved just after.
        """
        saved = []
        save = ProgressStore.save

        def spy(self, record, charge_bytes=None):
            saved.append(record)
            return save(self, record, charge_bytes)

        monkeypatch.setattr(ProgressStore, "save", spy)
        injector = FaultInjector([crash_at("recovery.epoch-replayed")])
        scheme, workload, events = run_to_crash(scheme_cls, injector)
        with pytest.raises(InjectedCrash):
            scheme.recover()
        assert len(saved) == 1 and isinstance(saved[0]["state"], Encoded)

        slot = scheme.disk.progress._slot
        record = decode(verify(slot, "test"))
        checkpoint, _io = scheme.disk.snapshots.load(record["snap_epoch"])
        assert record["state"] == checkpoint
        assert record["next_epoch"] == record["snap_epoch"] + 1
        assert isinstance(record["state"], dict)
        assert slot == protect(reference_encode(record))

        report = scheme.recover()
        assert report.resumed and report.resumed_from_epoch == record["next_epoch"]
        injector.disarm()
        scheme.process_stream([])
        expected_state, expected_outputs = ground_truth(workload, events)
        assert scheme.store.equals(expected_state)
        assert scheme.sink.outputs() == expected_outputs

    def test_delta_checkpoint_watermark_is_encoded_from_the_state(self):
        """A checkpoint that is a delta chain has no single payload to
        splice: the first watermark encodes the reconstructed state."""
        injector = FaultInjector([crash_at("recovery.epoch-replayed")])
        scheme, workload, events = run_to_crash(
            GlobalCheckpoint, injector, incremental_snapshots=True
        )
        assert scheme.disk.snapshots.is_delta(scheme.disk.snapshots.latest_epoch())
        with pytest.raises(InjectedCrash):
            scheme.recover()
        slot = scheme.disk.progress._slot
        assert slot == protect(reference_encode(decode(verify(slot, "test"))))
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

    def test_disabled_resumable_recovery_still_converges(self):
        expected = baseline_hash(MorphStreamR)
        injector = FaultInjector([crash_at("recovery.epoch-replayed")])
        scheme, _wl, _events = run_to_crash(
            MorphStreamR, injector, resumable_recovery=False
        )
        report = recover_until_converged(scheme)
        assert not report.resumed
        assert report.watermark_saves == 0
        assert state_hash(scheme) == expected


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
