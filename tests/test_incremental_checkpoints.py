"""Incremental (delta) checkpoints: less runtime I/O, longer reload."""

from __future__ import annotations

import pytest

from repro.core.morphstreamr import MorphStreamR
from repro.errors import ConfigError, StorageError
from repro.ft.checkpoint import GlobalCheckpoint
from repro.storage.codec import encode
from repro.storage.device import StorageDevice
from repro.storage.stores import SnapshotStore
from tests.conftest import serial_ground_truth


class TestSnapshotStoreDeltas:
    def test_delta_load_reconstructs_state(self):
        store = SnapshotStore(StorageDevice())
        store.put(0, {"t": {1: 1.0, 2: 2.0}})
        store.put_delta(1, {"t": {2: 9.0}}, base_epoch=0)
        state, seconds = store.load(1)
        assert state == {"t": {1: 1.0, 2: 9.0}}
        assert seconds > 0

    def test_delta_chain_applies_in_order(self):
        store = SnapshotStore(StorageDevice())
        store.put(0, {"t": {1: 1.0}})
        store.put_delta(1, {"t": {1: 2.0}}, base_epoch=0)
        store.put_delta(2, {"t": {1: 3.0}}, base_epoch=1)
        state, _s = store.load(2)
        assert state == {"t": {1: 3.0}}
        # Loading a mid-chain epoch reconstructs that point in time.
        assert store.load(1)[0] == {"t": {1: 2.0}}

    def test_delta_may_add_new_tables(self):
        store = SnapshotStore(StorageDevice())
        store.put(0, {"a": {1: 1.0}})
        store.put_delta(1, {"b": {5: 5.0}}, base_epoch=0)
        assert store.load(1)[0] == {"a": {1: 1.0}, "b": {5: 5.0}}

    def test_chain_base_and_is_delta(self):
        store = SnapshotStore(StorageDevice())
        store.put(0, {})
        store.put_delta(2, {}, base_epoch=0)
        store.put_delta(5, {}, base_epoch=2)
        assert store.chain_base(5) == 0
        assert store.is_delta(5) and not store.is_delta(0)

    def test_delta_requires_existing_base(self):
        store = SnapshotStore(StorageDevice())
        with pytest.raises(StorageError):
            store.put_delta(1, {}, base_epoch=0)

    def test_delta_must_follow_its_base(self):
        store = SnapshotStore(StorageDevice())
        store.put(5, {})
        with pytest.raises(StorageError):
            store.put_delta(3, {}, base_epoch=5)

    def test_truncate_preserves_live_chains(self):
        store = SnapshotStore(StorageDevice())
        store.put(0, {"t": {1: 1.0}})
        store.put(1, {"t": {1: 1.5}})  # stale full, safe to drop
        store.put_delta(4, {"t": {1: 2.0}}, base_epoch=0)
        store.truncate_before(4)
        # Epoch 0 anchors the surviving delta and must remain loadable.
        assert store.load(4)[0] == {"t": {1: 2.0}}
        with pytest.raises(StorageError):
            store.load(1)

    def test_chain_load_reads_more_bytes_than_full(self):
        store = SnapshotStore(StorageDevice())
        big = {"t": {k: float(k) for k in range(500)}}
        store.put(0, big)
        store.put_delta(1, {"t": {1: 9.0}}, base_epoch=0)
        _s, full_io = store.load(0)
        _s, chain_io = store.load(1)
        assert chain_io > full_io


class TestIncrementalSchemes:
    RUN = dict(num_workers=3, epoch_len=50, snapshot_interval=2)

    @pytest.mark.parametrize("scheme_cls", [GlobalCheckpoint, MorphStreamR])
    def test_recovery_exact_with_incremental_snapshots(
        self, workload, scheme_cls
    ):
        events = workload.generate(350, seed=0)
        scheme = scheme_cls(
            workload,
            incremental_snapshots=True,
            full_snapshot_every=3,
            **self.RUN,
        )
        scheme.process_stream(events)
        scheme.crash()
        scheme.recover()
        expected, _txns, _outcome = serial_ground_truth(workload, events)
        assert scheme.store.equals(expected)
        assert len(scheme.sink) == 350

    def test_deltas_actually_written(self, gs):
        # 6 epochs -> snapshots at 1, 3, 5; with full_every=4 the run
        # ends on a delta whose chain (and hence the deltas) survives GC.
        scheme = GlobalCheckpoint(
            gs, incremental_snapshots=True, full_snapshot_every=4, **self.RUN
        )
        scheme.process_stream(gs.generate(300, seed=0))
        snapshots = scheme.disk.snapshots
        assert snapshots.is_delta(snapshots.latest_epoch())
        assert snapshots.chain_base(snapshots.latest_epoch()) == -1

    @pytest.mark.parametrize("scheme_cls", [GlobalCheckpoint, MorphStreamR])
    def test_delta_checkpoints_encode_only_their_deltas(
        self, workload, scheme_cls, encoded_bytes, monkeypatch
    ):
        """A delta checkpoint costs what the epochs dirtied: it neither
        copies nor encodes the whole state, and the full-state size the
        memory report uses is still right without being re-measured."""
        scheme = scheme_cls(
            workload,
            incremental_snapshots=True,
            full_snapshot_every=8,
            **self.RUN,
        )
        take_copy = scheme.store.snapshot
        monkeypatch.setattr(
            scheme.store,
            "snapshot",
            lambda: pytest.fail("a delta checkpoint copied the whole state"),
        )
        encoded_bytes[0] = 0
        scheme.process_stream(workload.generate(700, seed=0))
        snapshots = scheme.disk.snapshots
        taken = [e for e in snapshots._snapshots if e >= 0]
        assert len(taken) == 7 and all(snapshots.is_delta(e) for e in taken)
        assert scheme._state_bytes == len(encode(take_copy()))
        # Nothing the size of the state went through the encoder
        # (per checkpoint, that is what the parent paid on top).
        assert encoded_bytes[0] <= 1.3 * scheme.disk.device.stats.bytes_written

    def test_incremental_writes_fewer_snapshot_bytes(self, gs):
        # GS writes touch few records per epoch, so deltas are small.
        full = GlobalCheckpoint(gs, **self.RUN)
        incremental = GlobalCheckpoint(
            gs, incremental_snapshots=True, full_snapshot_every=4, **self.RUN
        )
        events = gs.generate(400, seed=0)
        full.process_stream(events)
        incremental.process_stream(events)
        assert (
            incremental.disk.device.stats.bytes_written
            < full.disk.device.stats.bytes_written
        )

    def test_full_snapshot_every_one_means_no_deltas(self, gs):
        scheme = GlobalCheckpoint(
            gs, incremental_snapshots=True, full_snapshot_every=1, **self.RUN
        )
        scheme.process_stream(gs.generate(300, seed=0))
        snapshots = scheme.disk.snapshots
        assert not any(
            snapshots.is_delta(e) for e in snapshots._snapshots
        )

    def test_invalid_full_every_rejected(self, gs):
        with pytest.raises(ConfigError):
            GlobalCheckpoint(
                gs, incremental_snapshots=True, full_snapshot_every=0,
                **self.RUN,
            )
