"""FTScheme framework: epochs, crash semantics, sink, GC, NAT."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, InjectedCrash, RecoveryError
from repro.ft.base import OutputSink
from repro.ft.checkpoint import GlobalCheckpoint
from repro.ft.native import Native
from repro.storage.faults import FaultInjector, FaultSpec
from repro.storage.stores import Disk
from tests.conftest import serial_ground_truth


class TestOutputSink:
    def test_exactly_once_dedupe(self):
        sink = OutputSink()
        sink.deliver(1, ("a",))
        sink.deliver(1, ("a",))
        assert len(sink) == 1
        assert sink.duplicates_suppressed == 1

    def test_conflicting_regeneration_raises(self):
        sink = OutputSink()
        sink.deliver(1, ("a",))
        with pytest.raises(RecoveryError):
            sink.deliver(1, ("b",))

    def test_outputs_snapshot_is_a_copy(self):
        sink = OutputSink()
        sink.deliver(1, ("a",))
        out = sink.outputs()
        out[2] = ("b",)
        assert len(sink) == 1


class TestConstruction:
    def test_invalid_parameters_rejected(self, sl):
        with pytest.raises(ConfigError):
            GlobalCheckpoint(sl, num_workers=0)
        with pytest.raises(ConfigError):
            GlobalCheckpoint(sl, epoch_len=0)
        with pytest.raises(ConfigError):
            GlobalCheckpoint(sl, snapshot_interval=0)

    def test_initial_snapshot_taken(self, sl):
        scheme = GlobalCheckpoint(sl, num_workers=2, epoch_len=16)
        assert scheme.disk.snapshots.latest_epoch() == -1


class TestEpochBatching:
    def test_partial_epoch_buffered_until_full(self, sl):
        scheme = GlobalCheckpoint(sl, num_workers=2, epoch_len=100)
        events = sl.generate(200, seed=0)
        report = scheme.process_stream(events[:150])
        assert report.events_processed == 100
        assert report.epochs == 1
        # Feeding the remaining half epoch completes epoch 2.
        report = scheme.process_stream(events[150:])
        assert report.epochs == 2

    def test_how_the_stream_is_chunked_does_not_matter(self, sl):
        """One call over 5.5 epochs and ragged 70-event calls cut the
        same epochs and carry the same trailing half epoch."""
        events = sl.generate(275, seed=3)
        whole = GlobalCheckpoint(sl, num_workers=2, epoch_len=50)
        whole.process_stream(events)
        ragged = GlobalCheckpoint(sl, num_workers=2, epoch_len=50)
        for start in range(0, len(events), 70):
            ragged.process_stream(events[start : start + 70])
        assert whole.events_processed == ragged.events_processed == 250
        assert whole.store.equals(ragged.store)
        assert whole.sink.outputs() == ragged.sink.outputs()
        tail = sl.generate(300, seed=3)[275:]
        assert whole.process_stream(tail).epochs == 6
        assert ragged.process_stream(tail).epochs == 6
        assert whole.store.equals(ragged.store)

    def test_event_counters_accumulate(self, sl):
        scheme = GlobalCheckpoint(sl, num_workers=2, epoch_len=50)
        events = sl.generate(200, seed=0)
        scheme.process_stream(events[:100])
        report = scheme.process_stream(events[100:])
        assert report.epochs == 4

    def test_throughput_positive(self, workload):
        scheme = GlobalCheckpoint(workload, num_workers=2, epoch_len=50)
        report = scheme.process_stream(workload.generate(100, seed=0))
        assert report.throughput_eps > 0
        assert report.elapsed_seconds > 0


class TestProcessEpoch:
    """The coordinator's entry: the caller cuts the epochs."""

    def test_runs_exactly_the_batch_as_one_epoch(self, sl):
        scheme = GlobalCheckpoint(sl, num_workers=2, epoch_len=50)
        events = sl.generate(120, seed=0)
        assert scheme.next_epoch == 0
        outputs = scheme.process_epoch(events[:30])  # shorter than epoch_len
        assert [seq for seq, _out in outputs] == [e.seq for e in events[:30]]
        scheme.process_epoch(events[30:])  # and longer
        assert scheme.next_epoch == 2
        assert scheme.events_processed == 120
        expected, _txns, _outcome = serial_ground_truth(sl, events)
        assert scheme.store.equals(expected)

    def test_a_restored_tail_is_the_batch_and_is_persisted_once(self, sl):
        # The second checkpoint flush (epoch 1's) kills the process
        # mid-epoch; recovery hands epoch 1's sealed events back as the
        # ingress tail.
        run = dict(
            num_workers=2, epoch_len=50, snapshot_interval=2,
            gc_keep_checkpoints=2,
        )
        events = sl.generate(100, seed=0)
        clean = GlobalCheckpoint(sl, **run)
        clean.process_epoch(events[:50])
        clean.process_epoch(events[50:])

        injector = FaultInjector([FaultSpec("crash", target="snapshot", nth=2)])
        scheme = GlobalCheckpoint(sl, disk=Disk(faults=injector), **run)
        scheme.process_epoch(events[:50])
        with pytest.raises(InjectedCrash):
            scheme.process_epoch(events[50:])
        assert scheme.crash_epoch == 0
        scheme.recover()
        injector.disarm()
        scheme.process_epoch(events[50:])
        assert scheme.next_epoch == 2
        # No second append: the event store holds what a run that never
        # crashed holds.
        assert clean.disk.events.bytes_stored > 0
        assert scheme.disk.events.bytes_stored == clean.disk.events.bytes_stored
        assert scheme.store.equals(clean.store)
        assert scheme.sink.outputs() == clean.sink.outputs()


class TestCrashSemantics:
    def test_crash_before_any_epoch_rejected(self, sl):
        scheme = GlobalCheckpoint(sl, num_workers=2, epoch_len=50)
        with pytest.raises(RecoveryError):
            scheme.crash()

    def test_crash_drops_volatile_state(self, sl):
        scheme = GlobalCheckpoint(sl, num_workers=2, epoch_len=50)
        scheme.process_stream(sl.generate(100, seed=0))
        scheme.crash()
        assert scheme.store is None
        assert scheme.crash_epoch == 1

    def test_processing_after_crash_rejected(self, sl):
        scheme = GlobalCheckpoint(sl, num_workers=2, epoch_len=50)
        scheme.process_stream(sl.generate(100, seed=0))
        scheme.crash()
        with pytest.raises(RecoveryError):
            scheme.process_stream(sl.generate(50, seed=1))

    def test_recover_without_crash_rejected(self, sl):
        scheme = GlobalCheckpoint(sl, num_workers=2, epoch_len=50)
        scheme.process_stream(sl.generate(100, seed=0))
        with pytest.raises(RecoveryError):
            scheme.recover()

    def test_recovery_restores_store_and_clears_crash(self, sl):
        scheme = GlobalCheckpoint(
            sl, num_workers=2, epoch_len=50, snapshot_interval=3
        )
        scheme.process_stream(sl.generate(200, seed=0))
        scheme.crash()
        report = scheme.recover()
        assert scheme.store is not None
        assert report.events_replayed == 50  # epochs 3 (snapshot at 2)
        # Processing can resume after recovery.
        scheme.process_stream(sl.generate(250, seed=0)[200:250])


class TestGarbageCollection:
    def test_old_segments_reclaimed_at_snapshot(self, sl):
        scheme = GlobalCheckpoint(
            sl, num_workers=2, epoch_len=50, snapshot_interval=2
        )
        scheme.process_stream(sl.generate(400, seed=0))
        # Snapshot at epoch 7 reclaimed everything before epoch 8.
        assert scheme.disk.snapshots.latest_epoch() == 7
        assert scheme.disk.events.bytes_stored == 0


class TestNative:
    def test_persists_nothing(self, sl):
        scheme = Native(sl, num_workers=2, epoch_len=50)
        scheme.process_stream(sl.generate(100, seed=0))
        assert scheme.disk.bytes_stored == 0

    def test_recover_unsupported(self, sl):
        scheme = Native(sl, num_workers=2, epoch_len=50)
        scheme.process_stream(sl.generate(100, seed=0))
        scheme.crash()
        with pytest.raises(RecoveryError):
            scheme.recover()

    def test_runtime_is_upper_bound(self, workload):
        native = Native(workload, num_workers=4, epoch_len=50)
        ckpt = GlobalCheckpoint(workload, num_workers=4, epoch_len=50)
        events = workload.generate(200, seed=0)
        nat_report = native.process_stream(events)
        ckpt_report = ckpt.process_stream(events)
        assert nat_report.throughput_eps >= ckpt_report.throughput_eps
