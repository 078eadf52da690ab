"""Storage substrate: device model and crash-surviving stores."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigError,
    CorruptSegmentError,
    MissingSegmentError,
    StorageError,
)
from repro.storage.codec import Encoded, decode, encode
from repro.storage.device import StorageDevice
from repro.storage.filedisk import FileEventStore
from repro.storage.integrity import protect, verify
from repro.storage.rows import ROWS, decode_rows, split_rows
from repro.storage.stores import (
    Disk,
    EventStore,
    LogStore,
    ProgressStore,
    SnapshotStore,
)
from tests.test_codec import BAD_TABLES


class TestStorageDevice:
    def test_write_time_is_latency_plus_bandwidth(self):
        device = StorageDevice(
            write_bandwidth=1e9, read_bandwidth=1e9, iops=1e9, latency=1e-5
        )
        assert device.write(1_000_000) == pytest.approx(1e-5 + 1e-3)

    def test_iops_floor(self):
        device = StorageDevice(iops=100.0, latency=0.0)
        # A tiny write cannot beat 1/iops.
        assert device.write(1) == pytest.approx(0.01)

    def test_read_uses_read_bandwidth(self):
        device = StorageDevice(
            write_bandwidth=1e9, read_bandwidth=2e9, iops=1e9, latency=0.0
        )
        assert device.read(2_000_000) == pytest.approx(1e-3)

    def test_stats_accumulate(self):
        device = StorageDevice()
        device.write(100)
        device.write(200)
        device.read(50)
        assert device.stats.bytes_written == 300
        assert device.stats.write_ops == 2
        assert device.stats.bytes_read == 50
        assert device.stats.read_ops == 1
        assert device.stats.write_seconds > 0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigError):
            StorageDevice().write(-1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            StorageDevice(write_bandwidth=0)
        with pytest.raises(ConfigError):
            StorageDevice(latency=-1e-6)


class TestEventStore:
    def test_append_seal_and_read_round_trip(self):
        store = EventStore(StorageDevice())
        events = [(0, "deposit", (1, 2.0)), (1, "transfer", (3, 4))]
        assert store.append_events(events) > 0
        store.seal_epoch(0, 2)
        out, seconds = store.read_epochs(0, 0)
        assert out == events
        assert seconds > 0

    def test_read_spans_multiple_epochs_in_order(self):
        store = EventStore(StorageDevice())
        store.append_events([(0, "a", ()), (1, "b", ())])
        store.seal_epoch(0, 1)
        store.seal_epoch(1, 1)
        out, _s = store.read_epochs(0, 1)
        assert [e[1] for e in out] == ["a", "b"]

    def test_double_seal_rejected(self):
        store = EventStore(StorageDevice())
        store.append_events([(0, "a", ())])
        store.seal_epoch(0, 1)
        with pytest.raises(StorageError):
            store.seal_epoch(0, 0)

    def test_seal_beyond_pending_rejected(self):
        store = EventStore(StorageDevice())
        store.append_events([(0, "a", ())])
        with pytest.raises(StorageError):
            store.seal_epoch(0, 2)

    def test_missing_epoch_rejected(self):
        store = EventStore(StorageDevice())
        with pytest.raises(StorageError):
            store.read_epochs(0, 0)

    def test_count_epoch(self):
        store = EventStore(StorageDevice())
        store.append_events([(0, "a", ()), (1, "a", ()), (2, "a", ())])
        store.seal_epoch(3, 3)
        assert store.count_epoch(3) == 3
        with pytest.raises(StorageError):
            store.count_epoch(4)

    def test_epoch_bytes_are_the_ingress_bytes_and_read_nothing(self):
        device = StorageDevice()
        store = EventStore(device)
        events = [(0, "a", (1, 2.0)), (1, "b", ()), (2, "c", ())]
        store.append_events(events[:2])
        store.append_events(events[2:])
        store.seal_epoch(0, 3)
        stats = (device.stats.bytes_read, device.stats.read_ops)
        rows = store.epoch_bytes(0)
        assert rows == _durable_rows(store)
        assert decode_rows(store.rows_payload(rows)).events == events
        assert (device.stats.bytes_read, device.stats.read_ops) == stats
        with pytest.raises(MissingSegmentError):
            store.epoch_bytes(1)

    def test_pending_tail_survives_and_is_readable(self):
        store = EventStore(StorageDevice())
        store.append_events([(0, "a", ()), (1, "b", ()), (2, "c", ())])
        store.seal_epoch(0, 2)
        assert store.pending_count == 1
        pending, seconds = store.read_pending()
        assert pending == [(2, "c", ())]
        assert seconds > 0

    def test_read_pending_empty_is_free(self):
        store = EventStore(StorageDevice())
        pending, seconds = store.read_pending()
        assert pending == [] and seconds == 0.0

    def test_truncate_frees_sealed_but_not_pending(self):
        store = EventStore(StorageDevice())
        store.append_events([(0, "a", ()), (1, "b", ()), (2, "c", ())])
        store.seal_epoch(0, 1)
        store.seal_epoch(1, 1)
        before = store.bytes_stored
        freed = store.truncate_before(1)
        assert freed > 0
        assert store.bytes_stored < before
        with pytest.raises(StorageError):
            store.read_epochs(0, 0)
        store.read_epochs(1, 1)  # epoch 1 survives
        assert store.pending_count == 1  # tail untouched


class TestSnapshotStore:
    def test_put_load_round_trip(self):
        store = SnapshotStore(StorageDevice())
        state = {"t": {1: 2.0, 2: 3.0}}
        store.put(5, state)
        loaded, seconds = store.load(5)
        assert loaded == state
        assert seconds > 0

    def test_latest_epoch(self):
        store = SnapshotStore(StorageDevice())
        assert store.latest_epoch() is None
        store.put(1, {})
        store.put(5, {})
        assert store.latest_epoch() == 5

    def test_load_missing_rejected(self):
        with pytest.raises(StorageError):
            SnapshotStore(StorageDevice()).load(0)

    def test_truncate_keeps_target_epoch(self):
        store = SnapshotStore(StorageDevice())
        store.put(1, {"a": {}})
        store.put(5, {"b": {}})
        store.truncate_before(5)
        assert store.latest_epoch() == 5
        with pytest.raises(StorageError):
            store.load(1)


class TestLogStore:
    def test_commit_read_round_trip(self):
        store = LogStore(StorageDevice())
        store.commit_epoch("wal", 0, [(0, "cmd")])
        records, _s = store.read_epoch("wal", 0)
        assert records == [(0, "cmd")]

    def test_streams_are_independent(self):
        store = LogStore(StorageDevice())
        store.commit_epoch("a", 0, ["a0"])
        store.commit_epoch("b", 0, ["b0"])
        assert store.read_epoch("a", 0)[0] == ["a0"]
        assert store.read_epoch("b", 0)[0] == ["b0"]

    def test_double_commit_rejected(self):
        store = LogStore(StorageDevice())
        store.commit_epoch("wal", 0, [])
        with pytest.raises(StorageError):
            store.commit_epoch("wal", 0, [])

    def test_read_epochs_skips_gaps(self):
        store = LogStore(StorageDevice())
        store.commit_epoch("wal", 0, ["x"])
        store.commit_epoch("wal", 2, ["y"])
        segments, _s = store.read_epochs("wal", 0, 2)
        assert segments == [["x"], ["y"]]

    def test_has_epoch(self):
        store = LogStore(StorageDevice())
        assert not store.has_epoch("wal", 0)
        store.commit_epoch("wal", 0, [])
        assert store.has_epoch("wal", 0)

    def test_truncate_by_epoch(self):
        store = LogStore(StorageDevice())
        store.commit_epoch("wal", 0, ["x"])
        store.commit_epoch("wal", 3, ["y"])
        store.truncate_before(2)
        assert not store.has_epoch("wal", 0)
        assert store.has_epoch("wal", 3)


class TestDisk:
    def test_shared_device_accounting(self):
        disk = Disk()
        disk.events.append_events([(0, "e", ())])
        disk.snapshots.put(0, {"t": {}})
        disk.logs.commit_epoch("wal", 0, [])
        assert disk.device.stats.write_ops == 3
        assert disk.bytes_stored > 0


# ----------------------------------------------------------------------
# Serialize once: stores take already-encoded payloads, event sizes come
# from the append that wrote them, undecodable frames reach the ladder.
# ----------------------------------------------------------------------


class TestStoresAcceptEncoded:
    def test_snapshot_put_stores_the_same_frame_either_way(self):
        state = {"t": {1: 1.0, 2: 2.5}}
        plain, spliced = SnapshotStore(StorageDevice()), SnapshotStore(StorageDevice())
        assert plain.put(0, state) == spliced.put(0, Encoded(encode(state)))
        assert plain._snapshots == spliced._snapshots
        assert spliced.load(0)[0] == state

    def test_snapshot_put_delta_accepts_encoded(self):
        store = SnapshotStore(StorageDevice())
        store.put(0, {"t": {1: 1.0, 2: 2.0}})
        store.put_delta(1, Encoded(encode({"t": {2: 9.0}})), 0)
        assert store.load(1)[0] == {"t": {1: 1.0, 2: 9.0}}

    def test_log_commit_stores_the_same_frame_either_way(self):
        records = [(1, "a", (2.0,)), (2, "b", ())]
        plain, spliced = LogStore(StorageDevice()), LogStore(StorageDevice())
        assert plain.commit_epoch("s", 0, records) == spliced.commit_epoch(
            "s", 0, Encoded(encode(records))
        )
        assert plain._segments == spliced._segments
        assert spliced.read_epoch("s", 0)[0] == records

    def test_progress_save_splices_a_nested_encoded_state(self):
        state = {"t": {k: float(k) for k in range(100)}}
        record = {"crash_epoch": 5, "next_epoch": 3, "state": state}
        plain, spliced = ProgressStore(StorageDevice()), ProgressStore(StorageDevice())
        plain.save(record)
        spliced.save({**record, "state": Encoded(encode(state))})
        assert plain._slots["progress"] == spliced._slots["progress"]
        assert spliced.load()[0] == record
        assert spliced.watermark_history == [(5, 3)]


def _bad_table_frames():
    """CRC-valid frames around a state table that is not one: a real
    checkpoint cut inside either column, and each malformed blob of
    ``tests/test_codec.py`` as table ``"t"`` of a snapshot."""
    good = encode({"t": {key: key / 2 for key in range(300)}})
    blobs = {f"cut at {cut}": good[:cut] for cut in (5, 6, 7, 400, len(good) - 1)}
    for name, table in BAD_TABLES.items():
        blobs[name] = b"\x09\x01" + encode("t") + table
    return {name: protect(blob) for name, blob in blobs.items()}


_BAD_TABLE_FRAMES = _bad_table_frames()


class TestUndecodableFrames:
    """A frame whose CRC holds but whose payload is not codec output is
    a corrupt segment — degradable, and named — not a bare decode error."""

    #: tag STR, length 1, a byte that is not UTF-8.
    FRAME = protect(b"\x05\x01\x80")

    def test_snapshot_load(self):
        store = SnapshotStore(StorageDevice())
        store.put(3, {"t": {1: 1.0}})
        store._snapshots[3] = ("full", self.FRAME, None)
        with pytest.raises(CorruptSegmentError, match="full snapshot epoch 3"):
            store.load(3)

    def test_log_read_epoch(self):
        store = LogStore(StorageDevice())
        store.commit_epoch("msr", 2, [1])
        store._segments[("msr", 2)] = self.FRAME
        with pytest.raises(CorruptSegmentError, match="'msr' epoch 2"):
            store.read_epoch("msr", 2)

    def test_progress_load(self):
        store = ProgressStore(StorageDevice())
        store.save({"next_epoch": 1})
        store._slots["progress"] = self.FRAME
        with pytest.raises(CorruptSegmentError, match="progress watermark"):
            store.load()

    def test_chain_mark_is_treated_as_absent(self):
        store = ProgressStore(StorageDevice())
        store.save_chain_mark({"epoch": 1, "chains_done": 2})
        store._slots["chain_mark"] = self.FRAME
        assert store.load_chain_mark()[0] is None

    @pytest.mark.parametrize("name", sorted(_BAD_TABLE_FRAMES))
    def test_snapshot_load_of_a_malformed_table(self, name):
        store = SnapshotStore(StorageDevice())
        store.put(3, {"t": {1: 1.0}})
        store._snapshots[3] = ("full", _BAD_TABLE_FRAMES[name], None)
        with pytest.raises(CorruptSegmentError, match="full snapshot epoch 3"):
            store.load(3)

    @pytest.mark.parametrize("name", sorted(_BAD_TABLE_FRAMES))
    def test_progress_load_of_a_malformed_table(self, name):
        store = ProgressStore(StorageDevice())
        store.save({"next_epoch": 1})
        store._slots["progress"] = _BAD_TABLE_FRAMES[name]
        with pytest.raises(CorruptSegmentError, match="progress watermark"):
            store.load()


def _durable_rows(store):
    """Every live event's row, read out of the append blobs on the
    medium: what the store's kept rows must be slices of."""
    base = decode(store._log[("base", 0)])[0] if ("base", 0) in store._log else 0
    rows = []
    for kind, start in sorted(k for k in store._log if k[0] == "arrivals"):
        blob = store._log[(kind, start)]
        assert blob[:1] == ROWS
        rows += split_rows(verify(blob[1:]))[1][max(base - start, 0) :]
    return rows


_event_payloads = st.tuples(
    st.integers(0, 2**20),
    st.sampled_from(["deposit", "transfer", "ü"]),
    st.tuples(st.integers(-500, 500), st.floats(allow_nan=False)),
)
_event_store_steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.lists(_event_payloads, max_size=140)),
        st.tuples(st.just("seal"), st.integers(0, 200)),
        st.tuples(st.just("reopen"), st.none()),
        st.tuples(st.just("truncate"), st.integers(0, 3)),
        st.tuples(st.just("restart"), st.none()),
    ),
    max_size=14,
)


@pytest.mark.parametrize("file_backed", [False, True], ids=["memory", "file"])
@given(steps=_event_store_steps)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_property_event_sizes_by_arithmetic_equal_sizes_by_encoding(
    file_backed, steps
):
    """Across random append / seal / reopen / truncate sequences (and,
    file-backed, reopening the directory in a new store) the event store
    serves exactly the events a model of the log holds, every row it
    keeps is the row its append wrote to the medium, and every size it
    reports (written, read, stored, freed) is arithmetic over those
    rows."""
    with tempfile.TemporaryDirectory() as root:
        device = StorageDevice()

        def open_store():
            if file_backed:
                return FileEventStore(device, Path(root))
            return EventStore(device)

        store = open_store()
        sealed, pending = {}, []  # the model
        next_epoch = 0
        for action, arg in steps:
            if action == "append":
                written = device.stats.bytes_written
                store.append_events(arg)
                rows = store._pending_bytes[len(pending) :]
                assert device.stats.bytes_written - written == len(
                    ROWS + protect(store.rows_payload(rows))
                )
                assert decode_rows(store.rows_payload(rows)).events == arg
                pending += arg
            elif action == "seal":
                count = min(arg, len(pending))
                store.seal_epoch(next_epoch, count)
                sealed[next_epoch], pending = pending[:count], pending[count:]
                next_epoch += 1
            elif action == "reopen" and sealed:
                next_epoch = max(sealed)
                store.reopen_epoch(next_epoch)
                pending = sealed.pop(next_epoch) + pending
            elif action == "truncate" and sealed:
                cutoff = min(sealed) + arg
                stale = [r for e in sealed if e < cutoff for r in store.epoch_bytes(e)]
                assert store.truncate_before(cutoff) == sum(map(len, stale))
                sealed = {e: evs for e, evs in sealed.items() if e >= cutoff}
            elif action == "restart" and file_backed:
                store = open_store()

            kept = [r for e in sorted(sealed) for r in store.epoch_bytes(e)]
            kept += store._pending_bytes
            assert kept == _durable_rows(store)
            assert store.bytes_stored == sum(map(len, kept))
            for epoch_id, events in sealed.items():
                read = device.stats.bytes_read
                assert store.read_epochs(epoch_id, epoch_id)[0] == events
                nbytes = sum(map(len, store.epoch_bytes(epoch_id)))
                assert device.stats.bytes_read - read == nbytes
            read = device.stats.bytes_read
            assert store.read_pending()[0] == pending
            assert device.stats.bytes_read - read == sum(
                map(len, store._pending_bytes)
            )
