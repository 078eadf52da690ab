"""Recovery robustness: failed recoveries leave the scheme recoverable."""

from __future__ import annotations

import pytest

from repro.engine.refs import StateRef
from repro.engine.state import StateStore
from repro.errors import StorageError, WorkloadError
from repro.ft.base import FTScheme
from repro.ft.checkpoint import GlobalCheckpoint
from repro.workloads.base import Workload
from tests.conftest import serial_ground_truth


class TestFailedRecoveryIsRetryable:
    @staticmethod
    def _crashed_wal(gs, events):
        from repro.ft.wal import WriteAheadLog

        scheme = WriteAheadLog(
            gs, num_workers=3, epoch_len=50, snapshot_interval=3
        )
        scheme.process_stream(events)
        scheme.crash()
        return scheme

    def test_corrupt_log_degrades_to_event_replay(self, gs):
        """The fallback ladder quarantines the corrupt segment,
        reprocesses the epoch from the event store, and still recovers
        the exact serial state."""
        from repro.ft.wal import STREAM

        events = gs.generate(350, seed=0)
        scheme = self._crashed_wal(gs, events)
        # Corrupt the WAL segment recovery will need (epoch 6).
        key = (STREAM, 6)
        corrupted = bytearray(scheme.disk.logs._segments[key])
        corrupted[-3] ^= 0x20
        scheme.disk.logs._segments[key] = bytes(corrupted)
        report = scheme.recover()
        expected, _txns, _outcome = serial_ground_truth(gs, events)
        assert scheme.store.equals(expected)
        assert report.degraded()
        assert report.ladder.get("replay", 0) == 1
        assert [f.epoch_id for f in report.fallbacks] == [6]
        assert report.fallbacks[0].error == "CorruptSegmentError"
        # The bad segment was quarantined, not left to trip a retry.
        assert key not in scheme.disk.logs._segments

    def test_no_readable_checkpoint_fails_loud(self, gs):
        """The ladder's last rung: with every checkpoint unreadable,
        recovery raises, installs nothing, and a repaired disk retries."""
        events = gs.generate(350, seed=0)
        scheme = self._crashed_wal(gs, events)
        snapshots = scheme.disk.snapshots._snapshots
        intact = dict(snapshots)
        for epoch, (kind, blob, base) in intact.items():
            corrupted = bytearray(blob)
            corrupted[len(corrupted) // 2] ^= 0x10
            snapshots[epoch] = (kind, bytes(corrupted), base)
        with pytest.raises(StorageError, match="checksum mismatch"):
            scheme.recover()
        # The scheme is still in the crashed state, store not installed.
        assert scheme.store is None
        # Repair the checkpoints and retry: recovery succeeds exactly.
        snapshots.update(intact)
        report = scheme.recover()
        expected, _txns, _outcome = serial_ground_truth(gs, events)
        assert scheme.store.equals(expected)
        assert not report.degraded()
        # The attempt that failed loudly counts.  It was refused before
        # anything was restored, so it burned no virtual time; the time
        # a failed storage attempt burns is booked in
        # ``test_recovery_lifetime.py``'s event-store-gap test.
        assert report.attempts == 2

    def test_second_recover_after_success_is_rejected(self, gs):
        scheme = GlobalCheckpoint(
            gs, num_workers=3, epoch_len=50, snapshot_interval=3
        )
        scheme.process_stream(gs.generate(200, seed=0))
        scheme.crash()
        scheme.recover()
        from repro.errors import RecoveryError

        with pytest.raises(RecoveryError):
            scheme.recover()


class _UnpartitionedWorkload(Workload):
    """A workload without registered table sizes (no range partitioning)."""

    name = "UNPART"

    def __init__(self):
        super().__init__(num_partitions=2)
        # Deliberately no _table_sizes entries.

    def initial_state(self) -> StateStore:
        return StateStore({"t": {k: 0.0 for k in range(8)}})

    def generate(self, num_events, seed=0):
        from repro.engine.events import Event

        return [Event(i, "w", (i % 8,)) for i in range(num_events)]

    def build_transaction(self, event, uid_base, refs):
        from repro.engine.operations import Operation
        from repro.engine.transactions import Transaction

        (key,) = event.payload
        op = Operation(
            uid_base, event.seq, event.seq, refs["t"][key],
            "deposit", (1.0,),
        )
        return Transaction(event.seq, event.seq, event, (op,))

    def output_for(self, txn, committed, op_values):
        return ("w", round(op_values[txn.ops[0].uid], 6))


class TestPlacementFallback:
    def test_hash_placement_when_partitioning_unavailable(self):
        """Workloads without range partitioning fall back to a stable
        hash placement and still process/recover correctly."""
        workload = _UnpartitionedWorkload()
        with pytest.raises(WorkloadError):
            workload.partition_of(StateRef("t", 0))
        scheme = GlobalCheckpoint(
            workload, num_workers=2, epoch_len=20, snapshot_interval=2
        )
        events = workload.generate(100, seed=0)
        scheme.process_stream(events)
        scheme.crash()
        scheme.recover()
        expected, _txns, _outcome = serial_ground_truth(workload, events)
        assert scheme.store.equals(expected)
