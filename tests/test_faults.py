"""Fault injector + store plumbing: deterministic storage chaos."""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigError,
    CorruptSegmentError,
    InjectedCrash,
    MissingSegmentError,
    ReadFaultError,
    StorageError,
    TornSegmentError,
)
from repro.storage.faults import FaultInjector, FaultSpec
from repro.storage.integrity import protect, verify
from repro.storage.stores import Disk


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec("melt")

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec("torn", target="ram")

    @pytest.mark.parametrize("kind", ["torn", "bitflip", "drop", "crash"])
    def test_write_fault_on_events_rejected(self, kind):
        # Ingress appends never pass through ``on_write``: the spec
        # would be accepted and could never fire.
        with pytest.raises(ConfigError, match="events"):
            FaultSpec(kind, target="events", nth=1)
        FaultSpec("read_error", target="events", nth=1)  # reads are gated

    def test_needs_trigger(self):
        with pytest.raises(ConfigError):
            FaultSpec("torn")  # neither nth nor probability

    def test_nth_is_one_based(self):
        with pytest.raises(ConfigError):
            FaultSpec("torn", nth=0)


class TestInjectorTriggers:
    def test_nth_fault_fires_once_on_exactly_that_operation(self):
        inj = FaultInjector([FaultSpec("torn", target="log", nth=2)])
        blob = b"x" * 100
        assert inj.on_write("log", "seg 1", blob) == blob
        assert len(inj.on_write("log", "seg 2", blob)) == 50
        assert inj.on_write("log", "seg 3", blob) == blob  # one-shot
        assert [f.op_index for f in inj.injected] == [2]

    def test_stream_filter_restricts_log_faults(self):
        inj = FaultInjector(
            [FaultSpec("torn", target="log", nth=1, stream="wal")]
        )
        blob = b"x" * 100
        # First log write is another stream: counted, but not damaged.
        assert inj.on_write("log", "dlog 0", blob, stream="dlog") == blob
        assert inj.on_write("log", "wal 0", blob, stream="wal") == blob
        assert not inj.injected

    def test_target_any_counts_across_categories(self):
        inj = FaultInjector([FaultSpec("drop", target="any", nth=3)])
        blob = b"x" * 10
        assert inj.on_write("log", "a", blob) == blob
        assert inj.on_write("snapshot", "b", blob) == blob
        assert inj.on_write("events", "c", blob) is None

    def test_probability_faults_are_seed_deterministic(self):
        def fire_pattern(seed):
            inj = FaultInjector(
                [FaultSpec("torn", target="log", probability=0.5)], seed=seed
            )
            return [
                len(inj.on_write("log", f"s{i}", b"x" * 8)) < 8
                for i in range(32)
            ]

        assert fire_pattern(3) == fire_pattern(3)
        assert fire_pattern(3) != fire_pattern(4)

    def test_disarm_stops_injection(self):
        inj = FaultInjector([FaultSpec("torn", target="log", probability=1.0)])
        inj.disarm()
        blob = b"x" * 100
        assert inj.on_write("log", "seg", blob) == blob
        inj.arm()
        assert len(inj.on_write("log", "seg", blob)) < 100


class TestCrashFaults:
    def test_crash_tears_the_flush_and_arms_the_gate(self):
        inj = FaultInjector([FaultSpec("crash", target="log", nth=1)])
        out = inj.on_write("log", "seg", b"x" * 100)
        assert len(out) == 50
        assert inj.crash_pending
        with pytest.raises(InjectedCrash):
            inj.maybe_crash()
        inj.maybe_crash()  # the pending flag resets after raising
        assert inj.crashes_fired == 1


class TestStorePlumbing:
    def _disk(self, *specs, seed=0):
        return Disk(faults=FaultInjector(list(specs), seed=seed))

    def test_torn_log_segment_raises_torn_error_with_context(self):
        disk = self._disk(FaultSpec("torn", target="log", nth=1))
        disk.logs.commit_epoch("wal", 3, ["record"])
        with pytest.raises(TornSegmentError) as err:
            disk.logs.read_epoch("wal", 3)
        assert "'wal'" in str(err.value)
        assert "epoch 3" in str(err.value)

    def test_bitflipped_log_segment_raises_corrupt_error(self):
        disk = self._disk(FaultSpec("bitflip", target="log", nth=1))
        disk.logs.commit_epoch("wal", 3, ["record"])
        with pytest.raises(CorruptSegmentError) as err:
            disk.logs.read_epoch("wal", 3)
        assert "checksum mismatch" in str(err.value)

    def test_dropped_log_flush_never_lands_but_is_charged(self):
        disk = self._disk(FaultSpec("drop", target="log", nth=1))
        seconds = disk.logs.commit_epoch("wal", 3, ["record"])
        assert seconds > 0  # the device still billed the write
        assert not disk.logs.has_epoch("wal", 3)
        with pytest.raises(MissingSegmentError):
            disk.logs.read_epoch("wal", 3)

    def test_dropped_snapshot_flush_never_lands(self):
        disk = self._disk(FaultSpec("drop", target="snapshot", nth=1))
        disk.snapshots.put(0, {"t": {1: 1.0}})
        assert disk.snapshots.latest_epoch() is None

    def test_read_error_on_event_store(self):
        disk = self._disk(FaultSpec("read_error", target="events", nth=1))
        disk.events.append_events([(1, "e", ()), (2, "e", ())])
        disk.events.seal_epoch(0, 2)
        with pytest.raises(ReadFaultError) as err:
            disk.events.read_epochs(0, 0)
        assert "EIO" in str(err.value)

    def test_torn_snapshot_detected_at_load(self):
        disk = self._disk(FaultSpec("torn", target="snapshot", nth=1))
        disk.snapshots.put(4, {"t": {1: 1.0}})
        with pytest.raises(TornSegmentError) as err:
            disk.snapshots.load(4)
        assert "snapshot epoch 4" in str(err.value)


class TestIntegrityFrame:
    def test_torn_prefix_vs_bitflip_are_distinguished(self):
        framed = protect(b"payload-bytes-here")
        with pytest.raises(TornSegmentError):
            verify(framed[: len(framed) - 4])
        flipped = bytearray(framed)
        flipped[-1] ^= 0x01
        with pytest.raises(CorruptSegmentError):
            verify(bytes(flipped))

    def test_context_names_the_segment(self):
        framed = protect(b"payload")
        with pytest.raises(TornSegmentError) as err:
            verify(framed[:10], "log stream 'msr' epoch 7")
        assert "log stream 'msr' epoch 7" in str(err.value)

    def test_trailing_garbage_is_corruption(self):
        framed = protect(b"payload")
        with pytest.raises(CorruptSegmentError):
            verify(framed + b"JUNK")


class TestEventStoreReopen:
    def test_reopen_returns_newest_epoch_to_pending(self):
        disk = Disk()
        disk.events.append_events([(seq, kind, ()) for seq, kind in enumerate("abcd")])
        disk.events.seal_epoch(0, 2)
        disk.events.seal_epoch(1, 1)
        assert disk.events.pending_count == 1
        assert disk.events.reopen_epoch(1) == 1
        assert disk.events.pending_count == 2
        assert disk.events.last_sealed_epoch() == 0
        raw, _io = disk.events.read_pending()
        assert [event.kind for event in raw] == ["c", "d"]

    def test_only_the_tail_epoch_may_reopen(self):
        disk = Disk()
        disk.events.append_events([(0, "a", ()), (1, "b", ())])
        disk.events.seal_epoch(0, 1)
        disk.events.seal_epoch(1, 1)
        with pytest.raises(StorageError):
            disk.events.reopen_epoch(0)

    def test_reopen_missing_epoch_raises(self):
        disk = Disk()
        with pytest.raises(MissingSegmentError):
            disk.events.reopen_epoch(5)


class TestDiscardAndQuarantine:
    def test_log_discard_from_drops_partial_commits(self):
        disk = Disk()
        disk.logs.commit_epoch("wal", 1, ["a"])
        disk.logs.commit_epoch("wal", 2, ["b"])
        disk.logs.commit_epoch("msr", 2, ["c"])
        assert disk.logs.discard_from(2) > 0
        assert disk.logs.has_epoch("wal", 1)
        assert not disk.logs.has_epoch("wal", 2)
        assert not disk.logs.has_epoch("msr", 2)

    def test_quarantine_is_idempotent(self):
        disk = Disk()
        disk.logs.commit_epoch("wal", 1, ["a"])
        assert disk.logs.quarantine("wal", 1) > 0
        assert disk.logs.quarantine("wal", 1) == 0

    def test_snapshot_discard_from(self):
        disk = Disk()
        disk.snapshots.put(-1, {"t": {}})
        disk.snapshots.put(3, {"t": {1: 1.0}})
        disk.snapshots.discard_from(3)
        assert disk.snapshots.epochs_desc() == [-1]


class TestGCRetention:
    def test_keep_two_checkpoints_preserves_replay_sources(self, gs):
        from repro.ft.wal import WriteAheadLog

        scheme = WriteAheadLog(
            gs,
            num_workers=3,
            epoch_len=50,
            snapshot_interval=2,
            gc_keep_checkpoints=2,
        )
        scheme.process_stream(gs.generate(300, seed=0))  # epochs 0..5
        # Checkpoints at epochs 1, 3, 5; retention keeps the 2 newest
        # and every replay source back to the older one.
        assert scheme.disk.snapshots.epochs_desc()[:2] == [5, 3]
        scheme.disk.events.count_epoch(4)  # retained, does not raise
        assert scheme.disk.logs.has_epoch("wal", 4)

    def test_default_retention_matches_previous_behavior(self, gs):
        from repro.ft.wal import WriteAheadLog

        scheme = WriteAheadLog(
            gs, num_workers=3, epoch_len=50, snapshot_interval=2
        )
        scheme.process_stream(gs.generate(300, seed=0))
        assert scheme.disk.snapshots.epochs_desc() == [5]
        with pytest.raises(MissingSegmentError):
            scheme.disk.events.count_epoch(4)

    def test_keep_must_be_positive(self, gs):
        from repro.ft.wal import WriteAheadLog

        with pytest.raises(ConfigError):
            WriteAheadLog(gs, gc_keep_checkpoints=0)
