"""File-backed durability: recovery from real files in a fresh 'process'."""

from __future__ import annotations

import os
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.check import runner
from repro.check.schedule import CLUSTER_SCHEME
from repro.core.morphstreamr import MorphStreamR
from repro.errors import InjectedCrash, RecoveryError, StorageError
from repro.ft.checkpoint import GlobalCheckpoint
from repro.ft.wal import WriteAheadLog
from repro.harness.chaos import ChaosConfig, cells
from repro.storage.codec import encode
from repro.storage.device import StorageDevice
from repro.storage.faults import FaultInjector, FaultSpec
from repro.storage.filedisk import FileBackedDisk, FileEventStore
from repro.storage.stores import EventStore
from tests.conftest import serial_ground_truth
from repro.storage.rows import decode_rows
from tests.test_storage import _durable_rows

RUN = dict(num_workers=3, epoch_len=50, snapshot_interval=3)
SCHEMES = [GlobalCheckpoint, WriteAheadLog, MorphStreamR]


def run_phase_one(tmp_path, workload, events, scheme_cls):
    """Simulates the dying process: runtime only, objects dropped."""
    disk = FileBackedDisk(tmp_path)
    scheme = scheme_cls(workload, disk=disk, **RUN)
    scheme.process_stream(events)
    # No crash() call: the "process" simply vanishes; only files remain.


class TestCrossProcessRecovery:
    @pytest.mark.parametrize("scheme_cls", SCHEMES)
    def test_fresh_process_recovers_from_files_alone(
        self, tmp_path, gs, scheme_cls
    ):
        events = gs.generate(330, seed=0)  # 6 epochs + 30 pending
        run_phase_one(tmp_path, gs, events, scheme_cls)

        disk = FileBackedDisk(tmp_path)
        scheme = scheme_cls(gs, disk=disk, **RUN)
        scheme.adopt_crash_state()
        scheme.recover()
        expected, _txns, _outcome = serial_ground_truth(gs, events[:300])
        assert scheme.store.equals(expected), scheme.store.diff(expected, 5)
        assert len(scheme._pending_events) == 30

    def test_processing_continues_in_the_new_process(self, tmp_path, gs):
        events = gs.generate(400, seed=1)
        run_phase_one(tmp_path, gs, events[:330], GlobalCheckpoint)

        scheme = GlobalCheckpoint(gs, disk=FileBackedDisk(tmp_path), **RUN)
        scheme.adopt_crash_state()
        scheme.recover()
        scheme.process_stream(events[330:])
        expected, _txns, _outcome = serial_ground_truth(gs, events)
        assert scheme.store.equals(expected)

    @pytest.mark.parametrize(
        "layout",
        [
            {"state": {"kv": {0: 123.0}}},  # format 1: full state, no tag
            {"format": 99, "deltas": []},  # a layout from the future
            {"format": 2},  # tagged as ours, but no delta log
        ],
        ids=["v1-state", "unknown-format", "missing-deltas"],
    )
    def test_a_watermark_this_build_cannot_read_is_stale(
        self, tmp_path, gs, layout
    ):
        """A reopened directory may hold the slot of a recovery an older
        process died in.  Everything the old checks looked at matches
        (scheme, crash epoch), so only the layout tells it apart: it is
        cleared and recovery starts fresh, never ``KeyError``s on it."""
        events = gs.generate(330, seed=0)
        run_phase_one(tmp_path, gs, events, GlobalCheckpoint)
        scheme = GlobalCheckpoint(gs, disk=FileBackedDisk(tmp_path), **RUN)
        scheme.adopt_crash_state()
        scheme.disk.progress.save(
            {
                "scheme": "CKPT",
                "crash_epoch": scheme.crash_epoch,
                "snap_epoch": 5,
                "next_epoch": 6,
                "ladder": {},
                "fallbacks": [],
                "events_replayed": 0,
                "epochs_replayed": 0,
                "checkpoint_fallbacks": 0,
                **layout,
            }
        )

        scheme = GlobalCheckpoint(gs, disk=FileBackedDisk(tmp_path), **RUN)
        scheme.adopt_crash_state()
        assert scheme.disk.progress.exists
        report = scheme.recover()
        assert not report.resumed
        assert report.watermark_degradations == 0  # stale, not damaged
        assert not (tmp_path / "progress" / "progress.bin").exists()
        expected, _txns, _outcome = serial_ground_truth(gs, events[:300])
        assert scheme.store.equals(expected), scheme.store.diff(expected, 5)

    def test_adopt_on_virgin_disk_recovers_initial_state(self, tmp_path, gs):
        # A fresh scheme writes the epoch -1 checkpoint at construction,
        # so adopting a virgin disk recovers the initial state.
        scheme = GlobalCheckpoint(gs, disk=FileBackedDisk(tmp_path), **RUN)
        scheme.adopt_crash_state()
        scheme.recover()
        assert scheme.store.equals(gs.initial_state())

    def test_adopt_requires_some_durable_state(self, tmp_path, gs):
        from repro.ft.native import Native

        scheme = Native(gs, disk=FileBackedDisk(tmp_path), **RUN)
        with pytest.raises(RecoveryError):
            scheme.adopt_crash_state()

    def test_reopened_disk_reflects_gc(self, tmp_path, gs):
        events = gs.generate(350, seed=2)
        run_phase_one(tmp_path, gs, events, GlobalCheckpoint)
        disk = FileBackedDisk(tmp_path)
        # Snapshot at epoch 5 reclaimed everything before epoch 6.
        assert disk.snapshots.latest_epoch() == 5
        assert disk.events.last_sealed_epoch() == 6
        with pytest.raises(Exception):
            disk.events.read_epochs(0, 0)

    def test_msr_views_survive_on_disk(self, tmp_path, gs):
        from repro.core.logmanager import STREAM

        events = gs.generate(350, seed=3)
        run_phase_one(tmp_path, gs, events, MorphStreamR)
        disk = FileBackedDisk(tmp_path)
        assert disk.logs.has_epoch(STREAM, 6)
        files = list((tmp_path / "logs" / STREAM).glob("*.bin"))
        assert files


class TestFileStoreFidelity:
    def test_reopened_store_equals_original(self, tmp_path, sl):
        events = sl.generate(200, seed=4)
        disk = FileBackedDisk(tmp_path)
        scheme = GlobalCheckpoint(sl, disk=disk, **RUN)
        scheme.process_stream(events)

        reopened = FileBackedDisk(tmp_path)
        assert reopened.snapshots.latest_epoch() == disk.snapshots.latest_epoch()
        assert reopened.events.last_sealed_epoch() == disk.events.last_sealed_epoch()
        assert reopened.events.pending_count == disk.events.pending_count
        original, _io = disk.snapshots.load(disk.snapshots.latest_epoch())
        restored, _io2 = reopened.snapshots.load(
            reopened.snapshots.latest_epoch()
        )
        assert original == restored

    def test_delta_chains_survive_reopen(self, tmp_path, gs):
        disk = FileBackedDisk(tmp_path)
        scheme = GlobalCheckpoint(
            gs, disk=disk, incremental_snapshots=True,
            full_snapshot_every=4, **RUN,
        )
        scheme.process_stream(gs.generate(300, seed=5))
        reopened = FileBackedDisk(tmp_path)
        latest = reopened.snapshots.latest_epoch()
        assert reopened.snapshots.is_delta(latest)
        state, _io = reopened.snapshots.load(latest)
        original, _io2 = disk.snapshots.load(latest)
        assert state == original


class TestProgressStoreAtomicWrite:
    """Crash-point faults around the temp-write / ``os.replace`` window.

    The registered points ``progress.tmp-written`` and
    ``progress.replaced`` bracket the publish: whichever side the crash
    lands on, a reopened store must sweep stale ``*.tmp`` debris and
    serve exactly one consistent watermark — the previous record before
    the rename, the new record after it — never a torn slot.
    """

    FIRST = {"crash_epoch": 5, "next_epoch": 2, "attempt": 1}
    SECOND = {"crash_epoch": 5, "next_epoch": 4, "attempt": 1}

    def _store(self, tmp_path, point):
        from repro.storage.device import StorageDevice
        from repro.storage.faults import FaultInjector, FaultSpec
        from repro.storage.filedisk import FileProgressStore

        faults = FaultInjector(
            [FaultSpec("crash_point", target="any", nth=2, point=point)]
        )
        return FileProgressStore(StorageDevice(), tmp_path, faults=faults)

    def _reopen(self, tmp_path):
        from repro.storage.device import StorageDevice
        from repro.storage.filedisk import FileProgressStore

        return FileProgressStore(StorageDevice(), tmp_path)

    def test_crash_before_rename_keeps_previous_watermark(self, tmp_path):
        from repro.errors import InjectedCrash

        store = self._store(tmp_path, "progress.tmp-written")
        store.save(self.FIRST)
        with pytest.raises(InjectedCrash):
            store.save(self.SECOND)
        # The crash left the unpublished temp sibling behind.
        assert list(tmp_path.glob("*.tmp"))

        reopened = self._reopen(tmp_path)
        assert not list(tmp_path.glob("*.tmp")), "stale tmp not swept"
        record, _io = reopened.load()
        assert record == self.FIRST

    def test_crash_after_rename_serves_new_watermark(self, tmp_path):
        from repro.errors import InjectedCrash

        store = self._store(tmp_path, "progress.replaced")
        store.save(self.FIRST)
        with pytest.raises(InjectedCrash):
            store.save(self.SECOND)

        reopened = self._reopen(tmp_path)
        assert not list(tmp_path.glob("*.tmp"))
        record, _io = reopened.load()
        assert record == self.SECOND

    def test_resume_after_crash_is_idempotent(self, tmp_path):
        from repro.errors import InjectedCrash

        store = self._store(tmp_path, "progress.tmp-written")
        store.save(self.FIRST)
        with pytest.raises(InjectedCrash):
            store.save(self.SECOND)

        # The resumed process re-runs the same save; the watermark it
        # publishes and the one a further reopen serves agree.
        resumed = self._reopen(tmp_path)
        resumed.save(self.SECOND)
        record, _io = resumed.load()
        assert record == self.SECOND
        final, _io2 = self._reopen(tmp_path).load()
        assert final == self.SECOND

    def test_no_torn_watermark_at_either_point(self, tmp_path):
        from repro.errors import InjectedCrash

        for point in ("progress.tmp-written", "progress.replaced"):
            root = tmp_path / point.replace(".", "-")
            store = self._store(root, point)
            store.save(self.FIRST)
            with pytest.raises(InjectedCrash):
                store.save(self.SECOND)
            record, _io = self._reopen(root).load()
            # Framing verification inside load() would raise on a torn
            # slot; both crash sides must yield one of the two records.
            assert record in (self.FIRST, self.SECOND)


def durable_contents(disk):
    """Everything a disk's four stores hold, as plain values."""
    return {
        "snapshots": dict(disk.snapshots._snapshots),
        "segments": dict(disk.logs._segments),
        "slots": dict(disk.progress._slots),
        "sealed": dict(disk.events._epoch_bytes),
        "pending": list(disk.events._pending_bytes),
        "events": dict(disk.events._log),
    }


def relative_files(root):
    return sorted(
        path.relative_to(root).as_posix()
        for path in root.rglob("*")
        if path.is_file()
    )


class TestFilesMirrorMemory:
    """The file-backed disk is the in-memory stores on another medium:
    same observations, and a reopened root holds what the live stores
    hold.  This is ROADMAP item 5's evidence for keeping it."""

    def test_chaos_smoke_cells_run_the_same_on_files(self, tmp_path, monkeypatch):
        single = [
            cell
            for cell in cells(ChaosConfig(smoke=True))
            if cell.schedule.scheme != CLUSTER_SCHEME
        ]
        assert len(single) == 45
        in_memory = [
            asdict(runner.run_schedule(cell.schedule, cell.scenario))
            for cell in single
        ]

        opened = []

        def file_disk(faults=None):
            # A fresh root per call: ``baseline_mttr`` builds a second
            # scheme through the same seam while a cell is running.
            opened.append(
                FileBackedDisk(tmp_path / str(len(opened)), faults=faults)
            )
            return opened[-1]

        monkeypatch.setattr(runner, "Disk", file_disk)
        runner.baseline_mttr.cache_clear()
        try:
            for cell, expected in zip(single, in_memory):
                first = len(opened)
                observed = asdict(runner.run_schedule(cell.schedule, cell.scenario))
                disk = opened[first]

                points = observed["points_passed"]
                assert points.pop("progress.tmp-written") >= 1
                assert points.pop("progress.replaced") >= 1
                assert observed == expected, cell.label

                reopened = FileBackedDisk(disk.root)
                live = durable_contents(disk)
                for torn in reopened.logs.truncated_tails:
                    del live["segments"][torn]
                assert durable_contents(reopened) == live, cell.label
        finally:
            runner.baseline_mttr.cache_clear()

    @pytest.mark.parametrize(
        "target, nth, flush",
        [
            ("progress", 3, lambda disk: disk.progress.save({"next_epoch": 3})),
            ("progress", 3, lambda disk: disk.progress.save_chain_mark(9)),
            ("snapshot", 2, lambda disk: disk.snapshots.put(0, {"t": {1: 9.0}})),
            ("snapshot", 2, lambda disk: disk.snapshots.put_delta(1, {"t": {}}, 0)),
            ("log", 2, lambda disk: disk.logs.commit_epoch("wal", 1, ["r1"])),
        ],
        ids=["save", "save_chain_mark", "put", "put_delta", "commit_epoch"],
    )
    def test_a_dropped_flush_changes_no_file(self, tmp_path, target, nth, flush):
        """The drift the per-method fork hid: a dropped watermark flush
        left the chain mark in memory and unlinked ``chain_mark.bin``."""
        faults = FaultInjector([FaultSpec("drop", target=target, nth=nth)])
        disk = FileBackedDisk(tmp_path, faults=faults)
        disk.snapshots.put(0, {"t": {1: 1.0}})
        disk.logs.commit_epoch("wal", 0, ["r0"])
        disk.progress.save({"crash_epoch": 5, "next_epoch": 2})
        disk.progress.save_chain_mark({"epoch": 2, "chains_done": 3})
        files = {
            name: (tmp_path / name).read_bytes()
            for name in relative_files(tmp_path)
        }
        in_memory = durable_contents(disk)

        flush(disk)  # the target's nth write

        assert [fault.kind for fault in faults.injected] == ["drop"]
        assert durable_contents(disk) == in_memory
        assert {
            name: (tmp_path / name).read_bytes()
            for name in relative_files(tmp_path)
        } == files
        reopened = FileBackedDisk(tmp_path)
        assert durable_contents(reopened) == in_memory
        assert reopened.progress.load_chain_mark()[0] == {
            "epoch": 2,
            "chains_done": 3,
        }

    def test_a_delta_replacing_a_full_snapshot_leaves_one_file(self, tmp_path):
        disk = FileBackedDisk(tmp_path)
        disk.snapshots.put(0, {"t": {1: 1.0}})
        disk.snapshots.put(1, {"t": {1: 2.0}})
        disk.snapshots.put_delta(1, {"t": {1: 3.0}}, 0)
        assert relative_files(tmp_path / "snapshots") == ["0.full", "1.delta.0"]
        assert FileBackedDisk(tmp_path).snapshots.load(1)[0] == {"t": {1: 3.0}}


class TestLayout:
    def test_exact_paths_of_an_interrupted_msr_recovery(self, tmp_path, gs):
        """The on-disk layout is a contract with directories earlier
        builds wrote: pin every relative path a short run leaves."""
        from repro.core.logmanager import STREAM

        faults = FaultInjector(
            [FaultSpec("crash_point", target="any", nth=1, point="recovery.chain")]
        )
        scheme = MorphStreamR(
            gs,
            disk=FileBackedDisk(tmp_path, faults=faults),
            incremental_snapshots=True,
            full_snapshot_every=4,
            **RUN,
        )
        scheme.process_stream(gs.generate(430, seed=5))  # 8 epochs + 30 pending
        scheme.crash()
        with pytest.raises(InjectedCrash):
            scheme.recover()
        assert relative_files(tmp_path) == sorted(
            [
                "events/arrivals/0.bin",  # the one append, events 0..429
                "events/base/0.bin",  # moved to event 300 by the epoch-5 GC
                "events/seal/6.bin",  # the epochs GC kept
                "events/seal/7.bin",
                "snapshots/-1.full",  # anchors the surviving delta chain
                "snapshots/2.delta.-1",
                "snapshots/5.delta.2",
                f"logs/{STREAM}/6.bin",
                f"logs/{STREAM}/7.bin",
                "progress/progress.bin",
                "progress/chain_mark.bin",
            ]
        )


class _Died(Exception):
    """The process died at a file operation."""


class _FileOps:
    """Counts the file mutations made while installed; the ``nth`` one
    raises :class:`_Died` instead of happening."""

    def __init__(self, monkeypatch):
        self.count, self.nth = 0, None
        for owner, name in (
            (os, "replace"),
            (Path, "unlink"),
            (Path, "write_bytes"),
            (Path, "write_text"),
        ):
            monkeypatch.setattr(owner, name, self._gate(getattr(owner, name)))
        opener = Path.open

        def open_(path, mode="r", *args, **kwargs):
            if "a" in mode:
                self._tick()
            return opener(path, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", open_)

    def _tick(self):
        self.count += 1
        if self.count == self.nth:
            raise _Died(f"file operation {self.count}")

    def _gate(self, real):
        def gated(*args, **kwargs):
            self._tick()
            return real(*args, **kwargs)

        return gated


_EVENTS = [(seq, "deposit", (seq % 4, float(seq))) for seq in range(17)]
#: Appends, seals, reopens, garbage collections and restarts, in the
#: order a scheme issues them.  Steps 7 and 10 are the two pinned
#: crash windows.
_SCRIPT = [
    ("append", _EVENTS[:5]),
    ("append", _EVENTS[5:12]),
    ("seal", (0, 3)),
    ("seal", (1, 3)),
    ("seal", (2, 3)),
    ("seal", (3, 3)),
    ("append", _EVENTS[12:14]),
    ("truncate", 2),
    ("restart", None),
    ("seal", (4, 2)),
    ("reopen", 4),
    ("restart", None),
    ("truncate", 4),
    ("seal", (4, 2)),
    ("truncate", 5),  # nothing sealed is left
    ("append", _EVENTS[14:]),
    ("seal", (5, 1)),
    ("restart", None),
]
_TRUNCATE_2, _REOPEN_4 = 7, 10


def _step(store, action, arg, reopen):
    if action == "append":
        store.append_events(arg)
    elif action == "seal":
        store.seal_epoch(*arg)
    elif action == "reopen":
        store.reopen_epoch(arg)
    elif action == "truncate":
        store.truncate_before(arg)
    elif action == "restart":
        return reopen()
    return store


def _state(store):
    """The epochs and the pending tail a store serves."""
    sealed = {e: store.read_epochs(e, e)[0] for e in sorted(store._epoch_bytes)}
    return sealed, store.read_pending()[0]


class TestEventLogCrashWindows:
    """A process may die at any file operation of the input log.  The
    reopened store serves the state from just before the interrupted
    call or just after it, and each event's kept bytes are its
    row, as the append wrote it."""

    @pytest.fixture
    def expected(self):
        """``_state`` before each step of the script, and after the last."""
        store = EventStore(StorageDevice())
        states = [_state(store)]
        for action, arg in _SCRIPT:
            store = _step(store, action, arg, lambda: store)
            states.append(_state(store))
        return states

    def _die_at(self, root, ops, nth):
        """Run the script under ``root`` until file operation ``nth``;
        returns the index of the step it died in (None: it never did)."""

        def reopen():
            return FileEventStore(StorageDevice(), root)

        ops.count, ops.nth = 0, nth
        store = reopen()
        for index, (action, arg) in enumerate(_SCRIPT):
            try:
                store = _step(store, action, arg, reopen)
            except _Died:
                ops.nth = None
                return index
        ops.nth = None
        return None

    def _reopen_checked(self, root, before, after):
        store = FileEventStore(StorageDevice(), root)
        state = _state(store)
        assert state in (before, after)
        epochs, pending = state
        kept = [r for e in sorted(epochs) for r in store.epoch_bytes(e)]
        assert kept + store._pending_bytes == _durable_rows(store)
        assert decode_rows(store.rows_payload(kept)).events == [
            event for e in sorted(epochs) for event in epochs[e]
        ]
        return state

    def test_every_file_operation_is_a_clean_cut(self, tmp_path, monkeypatch, expected):
        ops = _FileOps(monkeypatch)
        clean = tmp_path / "clean"
        assert self._die_at(clean, ops, None) is None
        assert _state(FileEventStore(StorageDevice(), clean)) == expected[-1]
        total = ops.count
        assert total >= len(_SCRIPT)
        for nth in range(1, total + 1):
            root = tmp_path / str(nth)
            step = self._die_at(root, ops, nth)
            assert step is not None, nth
            self._reopen_checked(root, expected[step], expected[step + 1])

    def _kill_each_operation_of(self, tmp_path, monkeypatch, expected, step):
        """Reopened states after dying at each file operation of ``step``."""
        ops = _FileOps(monkeypatch)
        self._die_at(tmp_path / "clean", ops, None)
        states = []
        for nth in range(1, ops.count + 1):
            root = tmp_path / str(nth)
            if self._die_at(root, ops, nth) == step:
                states.append(
                    self._reopen_checked(root, expected[step], expected[step + 1])
                )
        assert states
        return states

    def test_a_collection_cut_short_serves_no_epoch_another_epochs_events(
        self, tmp_path, monkeypatch, expected
    ):
        """Four 3-event epochs, then ``truncate_before(2)`` dies: the
        retired compaction could reopen with epoch 2's events served as
        epoch 0 and epoch 3's as epoch 1."""
        for epochs, pending in self._kill_each_operation_of(
            tmp_path, monkeypatch, expected, _TRUNCATE_2
        ):
            assert set(epochs) in ({0, 1, 2, 3}, {2, 3})
            for epoch_id, events in epochs.items():
                assert events == _EVENTS[3 * epoch_id : 3 * epoch_id + 3]
            assert pending == _EVENTS[12:14]

    def test_a_reopen_cut_short_loses_no_event(self, tmp_path, monkeypatch, expected):
        """``reopen_epoch`` runs in recovery's finalize step; the retired
        compaction could die between unlinking the arrivals and writing
        them back, and reopen with every sealed epoch empty."""
        for epochs, pending in self._kill_each_operation_of(
            tmp_path, monkeypatch, expected, _REOPEN_4
        ):
            assert epochs[2] == _EVENTS[6:9] and epochs[3] == _EVENTS[9:12]
            assert [*epochs.get(4, []), *pending] == _EVENTS[12:14]

    def test_a_root_in_the_retired_layout_is_refused(self, tmp_path):
        """Earlier builds wrote ``arrivals_<n>.bin`` + ``boundaries.log``;
        this build must not reopen such a root as an empty input log."""
        events = tmp_path / "events"
        events.mkdir()
        (events / "arrivals_0.bin").write_bytes(encode([(0, "a", ())]))
        (events / "boundaries.log").write_text("0 1\n")
        with pytest.raises(StorageError, match="boundaries.log"):
            FileBackedDisk(tmp_path)
