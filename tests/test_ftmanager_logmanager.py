"""Fault-tolerance Manager markers and Logging Manager commits."""

from __future__ import annotations

import pytest

from repro.core.commitment import AdaptiveCommitController, WorkloadProfile
from repro.core.ftmanager import (
    COMMIT,
    SNAPSHOT,
    TRANSACTION,
    FaultToleranceManager,
    MarkerSchedule,
)
from repro.core.logmanager import STREAM, LoggingManager, ViewSegment
from repro.core.views import AbortView, ParametricView
from repro.engine.refs import StateRef
from repro.errors import ConfigError, CorruptSegmentError, RecoveryError
from repro.storage.codec import Encoded
from repro.storage.stores import Disk
from tests.reference_codec import reference_encode

A, B = StateRef("t", "A"), StateRef("t", "B")


class TestMarkerSchedule:
    def test_defaults_valid(self):
        MarkerSchedule()

    def test_snapshot_must_align_with_commit(self):
        with pytest.raises(ConfigError):
            MarkerSchedule(commit_every=3, snapshot_every=4)

    def test_nonpositive_intervals_rejected(self):
        with pytest.raises(ConfigError):
            MarkerSchedule(commit_every=0)
        with pytest.raises(ConfigError):
            MarkerSchedule(snapshot_every=0)


class TestFaultToleranceManager:
    def test_transaction_marker_every_epoch(self):
        fm = FaultToleranceManager(MarkerSchedule(2, 4))
        for epoch in range(8):
            assert TRANSACTION in fm.markers_at(epoch)

    def test_commit_and_snapshot_intervals(self):
        fm = FaultToleranceManager(MarkerSchedule(commit_every=2, snapshot_every=4))
        commits = [e for e in range(8) if COMMIT in fm.markers_at(e)]
        snapshots = [e for e in range(8) if SNAPSHOT in fm.markers_at(e)]
        assert commits == [1, 3, 5, 7]
        assert snapshots == [3, 7]

    def test_snapshots_always_on_commit_boundaries(self):
        fm = FaultToleranceManager(MarkerSchedule(commit_every=3, snapshot_every=6))
        for epoch in range(24):
            markers = fm.markers_at(epoch)
            if SNAPSHOT in markers:
                assert COMMIT in markers

    def test_observe_without_controller_keeps_epoch_len(self):
        fm = FaultToleranceManager(base_epoch_len=256)
        fm.observe(WorkloadProfile(0.0, 0.0, 0.0))
        assert fm.epoch_len == 256

    def test_observe_with_controller_adapts_epoch_len(self):
        controller = AdaptiveCommitController(64, 1024)
        fm = FaultToleranceManager(controller=controller, base_epoch_len=256)
        fm.observe(WorkloadProfile(0.0, 0.0, 0.0))  # LSFD -> max
        assert fm.epoch_len == 1024


def _segment(epoch_id, aborted=(), entries=(), pmap=None):
    pview = ParametricView(epoch_id)
    for txn_id, idx, ref, value in entries:
        pview.record(txn_id, idx, ref, value)
    return ViewSegment(epoch_id, AbortView(epoch_id, frozenset(aborted)), pview, pmap)


class TestLoggingManager:
    def test_stage_then_commit_persists_each_epoch(self):
        # Re-pinned for segment version 2: ``_segment`` records no
        # to_ref (a view entry no longer names the reader's record).
        lm = LoggingManager(Disk())
        lm.stage(_segment(0, aborted=(1,)))
        lm.stage(_segment(1, entries=[(5, 0, A, 2.0)]))
        assert lm.buffered_epochs == 2
        io_s, committed = lm.commit()
        assert io_s > 0 and committed > 0
        assert lm.buffered_epochs == 0
        assert lm.has_epoch(0) and lm.has_epoch(1)

    def test_load_round_trips_views_and_map(self):
        # Re-pinned for segment version 2: the str keys of A and B fit
        # no packed column, so this round trip takes the row form of
        # both the view and the map (tests/test_view_segment.py covers
        # int keys and the columns).
        lm = LoggingManager(Disk())
        lm.stage(_segment(3, aborted=(7, 9), entries=[(5, -1, A, 1.5)], pmap={A: 0, B: 1}))
        lm.commit()
        segment, io_s = lm.load_epoch(3)
        assert io_s > 0
        assert 7 in segment.abort_view and 9 in segment.abort_view
        assert segment.parametric_view.lookup(5, -1, A) == 1.5
        assert segment.partition_map == {A: 0, B: 1}

    def test_a_segment_of_plain_ref_tuples_is_refused(self):
        """Version 1's explicit plain-tuple form, to_ref included, as an
        older build committed it: refused, naming the segment."""
        plain = (
            1,
            3,
            AbortView(3, frozenset((7, 9))).encoded(),
            (3, ((5, -1, ("t", "A"), ("t", "B"), 1.5), (6, 1, ("t", "A"), ("t", "B"), -3.0))),
            ((("t", "A"), 0), (("t", "B"), 1)),
        )
        disk = Disk()
        disk.logs.commit_epoch(STREAM, 3, Encoded(reference_encode(plain)))
        with pytest.raises(CorruptSegmentError, match="'msr' epoch 3 .*version 1 "):
            LoggingManager(disk).load_epoch(3)

    def test_none_partition_map_round_trips(self):
        lm = LoggingManager(Disk())
        lm.stage(_segment(0))
        lm.commit()
        segment, _io = lm.load_epoch(0)
        assert segment.partition_map is None

    def test_crash_drops_uncommitted_buffer(self):
        lm = LoggingManager(Disk())
        lm.stage(_segment(0))
        lm.drop_buffer()
        assert lm.buffered_epochs == 0
        assert not lm.has_epoch(0)
        with pytest.raises(RecoveryError):
            lm.load_epoch(0)

    def test_buffered_bytes_tracks_staging(self):
        # Re-pinned for segment version 2: ``_segment`` records no to_ref.
        lm = LoggingManager(Disk())
        assert lm.buffered_bytes == 0
        lm.stage(_segment(0, entries=[(i, 0, A, float(i)) for i in range(20)]))
        assert lm.buffered_bytes > 0

    def test_commit_uses_msr_stream(self):
        disk = Disk()
        lm = LoggingManager(disk)
        lm.stage(_segment(0))
        lm.commit()
        assert disk.logs.has_epoch(STREAM, 0)
