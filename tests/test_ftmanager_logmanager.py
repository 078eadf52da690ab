"""Fault-tolerance Manager markers and Logging Manager commits.

The paper's FM (§IV) has no class of its own here: :class:`FTScheme`
places the transaction marker (it cuts every epoch) and the snapshot
marker (every ``snapshot_interval`` epochs), and :class:`MorphStreamR`
places the commit marker (every ``commit_every`` epochs).  The marker
tests below drive those two owners.
"""

from __future__ import annotations

import pytest

from repro.core.commitment import AdaptiveCommitController
from repro.core.logmanager import STREAM, LoggingManager, ViewSegment
from repro.core.morphstreamr import MorphStreamR
from repro.core.views import AbortView, ParametricView
from repro.engine.refs import StateRef
from repro.errors import ConfigError, CorruptSegmentError, RecoveryError
from repro.storage.codec import Encoded
from repro.storage.stores import Disk
from repro.workloads import GrepSum
from tests.reference_codec import reference_encode

A, B = StateRef("t", "A"), StateRef("t", "B")
EPOCH = 20


def _workload():
    return GrepSum(
        256, list_len=2, skew=0.0, multi_partition_ratio=0.1,
        abort_ratio=0.0, num_partitions=4,
    )


def _msr(workload, **kwargs):
    return MorphStreamR(workload, num_workers=4, epoch_len=EPOCH, **kwargs)


class TestMarkerSchedule:
    def test_defaults_valid(self):
        scheme = MorphStreamR(_workload())
        assert (scheme.commit_every, scheme.snapshot_interval) == (1, 4)
        assert scheme.controller is None

    def test_snapshot_must_align_with_commit(self):
        with pytest.raises(ConfigError, match="multiple of commit_every"):
            _msr(_workload(), commit_every=3, snapshot_interval=4)

    def test_nonpositive_intervals_rejected(self):
        with pytest.raises(ConfigError, match="commit_every"):
            _msr(_workload(), commit_every=0)
        with pytest.raises(ConfigError, match="snapshot_interval"):
            _msr(_workload(), snapshot_interval=0)


class TestFaultToleranceManager:
    def test_transaction_marker_every_epoch(self):
        workload = _workload()
        scheme = _msr(workload)
        scheme.process_stream(workload.generate(3 * EPOCH + 5, seed=0))
        # Three full epochs cut, each staged and committed; the partial
        # fourth waits for its punctuation.
        assert [s.epoch_id for s in scheme.epoch_stats] == [0, 1, 2]
        assert [e for e in range(4) if scheme.lm.has_epoch(e)] == [0, 1, 2]

    def test_commit_and_snapshot_intervals(self):
        # commit_every=2, snapshot_interval=4, k crash-free epochs: the
        # views of every epoch up to the last commit marker are on disk,
        # except those the last snapshot (marker at epoch 4*(k//4) - 1)
        # made obsolete; the epochs since the last commit stay buffered.
        workload = _workload()
        for k in range(10):
            scheme = _msr(workload, commit_every=2, snapshot_interval=4)
            scheme.process_stream(workload.generate(k * EPOCH, seed=0))
            snapshot_base = 4 * (k // 4)
            assert scheme.disk.snapshots.latest_epoch() == snapshot_base - 1
            committed = [e for e in range(k + 2) if scheme.lm.has_epoch(e)]
            assert committed == list(range(snapshot_base, 2 * (k // 2))), k
            assert scheme.lm.buffered_epochs == k % 2, k

    def test_snapshots_always_on_commit_boundaries(self):
        workload = _workload()
        scheme = _msr(workload, commit_every=3, snapshot_interval=6)
        events = workload.generate(24 * EPOCH, seed=0)
        snapshots = 0
        for start in range(0, len(events), EPOCH):
            scheme.process_stream(events[start : start + EPOCH])
            if scheme.disk.snapshots.latest_epoch() == scheme.next_epoch - 1:
                snapshots += 1
                assert scheme.lm.buffered_epochs == 0
        assert snapshots == 4

    def test_observe_without_controller_keeps_epoch_len(self):
        workload = _workload()
        scheme = _msr(workload)
        scheme.process_stream(workload.generate(3 * EPOCH, seed=0))
        assert scheme.epoch_len == EPOCH

    def test_observe_with_controller_adapts_epoch_len(self):
        workload = _workload()
        scheme = _msr(workload, controller=AdaptiveCommitController(16, 64))
        scheme.process_stream(workload.generate(EPOCH, seed=0))
        assert scheme.epoch_len == 64  # LSFD -> max


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
