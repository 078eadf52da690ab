"""MorphStreamR: view contents, recovery paths, ablations, fallbacks."""

from __future__ import annotations

import pytest

from repro import buckets
from repro.core.logmanager import STREAM as MSR_STREAM
from repro.core.commitment import AdaptiveCommitController
from repro.core.morphstreamr import MorphStreamR, MSROptions
from repro.core.views import CONDITION_INDEX
from repro.engine.execution import preprocess
from repro.engine.serial import execute_serial
from repro.errors import ConfigError
from tests.conftest import serial_ground_truth

RUN = dict(num_workers=4, epoch_len=50, snapshot_interval=3)
N_EVENTS = 350  # 7 epochs; snapshot at 5; recovery replays epoch 6


def run_cycle(workload, seed=0, **kwargs):
    events = workload.generate(N_EVENTS, seed=seed)
    scheme = MorphStreamR(workload, **{**RUN, **kwargs})
    runtime = scheme.process_stream(events)
    scheme.crash()
    recovery = scheme.recover()
    expected, _txns, outcome = serial_ground_truth(workload, events)
    return scheme, runtime, recovery, expected, outcome


ABLATIONS = [
    ("full", MSROptions()),
    ("no_selective", MSROptions(selective_logging=False)),
    ("simple", MSROptions(op_restructure=False, abort_pushdown=False, opt_task_assign=False)),
    ("restructure_only", MSROptions(abort_pushdown=False, opt_task_assign=False)),
    ("pushdown_no_lpt", MSROptions(opt_task_assign=False)),
    ("pushdown_no_restructure", MSROptions(op_restructure=False, opt_task_assign=False)),
]


class TestRecoveryEquivalence:
    @pytest.mark.parametrize("label,options", ABLATIONS)
    def test_every_ablation_recovers_exact_state(self, workload, label, options):
        scheme, _rt, _rec, expected, _outcome = run_cycle(
            workload, options=options
        )
        assert scheme.store.equals(expected), (label, scheme.store.diff(expected, 5))

    @pytest.mark.parametrize("label,options", ABLATIONS)
    def test_every_ablation_delivers_exactly_once(self, gs, label, options):
        scheme, _rt, _rec, _expected, _outcome = run_cycle(gs, options=options)
        assert len(scheme.sink) == N_EVENTS

    def test_deterministic_timings(self, sl):
        _s1, rt1, rec1, _e1, _o1 = run_cycle(sl)
        _s2, rt2, rec2, _e2, _o2 = run_cycle(sl)
        assert rt1.elapsed_seconds == rt2.elapsed_seconds
        assert rec1.elapsed_seconds == rec2.elapsed_seconds


class TestRuntimeViews:
    def _segment(self, workload, epoch=6, **kwargs):
        events = workload.generate(N_EVENTS, seed=0)
        scheme = MorphStreamR(workload, **{**RUN, **kwargs})
        scheme.process_stream(events)
        segment, _io = scheme.lm.load_epoch(epoch)
        return scheme, events, segment

    def test_abort_view_matches_serial_aborts(self, tp):
        scheme, events, segment = self._segment(tp)
        _store, _txns, outcome = serial_ground_truth(tp, events)
        epoch6 = {e.seq for e in events[300:350]}
        assert set(segment.abort_view.aborted) == outcome.aborted & epoch6

    def test_parametric_view_values_match_serial_reads(self, sl):
        scheme, events, segment = self._segment(
            sl, options=MSROptions(selective_logging=False)
        )
        # Without selective logging every sourced read of a committed
        # transaction is recorded; check values against ground truth.
        batch = events[300:350]
        store6 = sl.initial_state()
        txns_before = preprocess(events[:300], sl, 0)
        execute_serial(store6, txns_before)
        txns6 = preprocess(batch, sl, 0)
        outcome6 = execute_serial(store6, txns6)
        checked = 0
        for txn in txns6:
            if txn.txn_id in outcome6.aborted:
                continue
            for idx, op in enumerate(txn.ops):
                for ref, value in zip(op.reads, outcome6.read_values[op.uid]):
                    if segment.parametric_view.has(txn.txn_id, idx, ref):
                        assert segment.parametric_view.lookup(
                            txn.txn_id, idx, ref
                        ) == value
                        checked += 1
        assert checked > 0

    def test_condition_reads_recorded_with_condition_index(self, sl):
        _scheme, _events, segment = self._segment(
            sl, options=MSROptions(selective_logging=False)
        )
        cond_entries = [
            key
            for key in segment.parametric_view._entries
            if key[1] == CONDITION_INDEX
        ]
        assert cond_entries

    def test_selective_logging_records_fewer_entries(self, sl):
        _s1, _e1, selective = self._segment(sl)
        _s2, _e2, full = self._segment(
            sl, options=MSROptions(selective_logging=False)
        )
        assert len(selective.parametric_view) < len(full.parametric_view)
        assert selective.partition_map is not None
        assert full.partition_map is None

    def test_partition_map_covers_epoch_chains(self, sl):
        scheme, events, segment = self._segment(sl)
        batch = events[300:350]
        txns = preprocess(batch, sl, 0)
        for txn in txns:
            for op in txn.ops:
                assert op.ref in segment.partition_map


class TestCommitInterval:
    def test_uncommitted_epochs_fall_back_to_reprocessing(self, gs):
        # commit_every=3 with crash at epoch 6: views for epoch 6 are
        # still buffered (commits at 2 and 5) and die with the crash.
        scheme, _rt, _rec, expected, _outcome = run_cycle(
            gs, commit_every=3
        )
        assert scheme.store.equals(expected)
        assert not scheme.lm.has_epoch(6)

    def test_commit_interval_must_divide_snapshot_interval(self, gs):
        with pytest.raises(ConfigError):
            MorphStreamR(gs, **RUN, commit_every=2)  # snapshot_interval=3

    @pytest.mark.parametrize("commit_every", [0, -1])
    def test_nonpositive_commit_interval_rejected(self, gs, commit_every):
        with pytest.raises(ConfigError, match="commit_every must be >= 1"):
            MorphStreamR(gs, **RUN, commit_every=commit_every)

    def test_crash_drops_staged_segments(self, gs):
        events = gs.generate(N_EVENTS, seed=0)
        scheme = MorphStreamR(gs, **{**RUN, "commit_every": 3})
        scheme.process_stream(events)
        assert scheme.lm.buffered_epochs > 0
        scheme.crash()
        assert scheme.lm.buffered_epochs == 0


class TestRecoveryBehaviour:
    def test_restructured_execution_has_no_cross_worker_waits(self, sl):
        # MSR's recovery tasks carry no dependencies at all, so wait can
        # only come from load imbalance — assert it is far below CKPT's.
        from repro.ft.checkpoint import GlobalCheckpoint

        events = sl.generate(N_EVENTS, seed=0)
        msr = MorphStreamR(sl, **RUN)
        msr.process_stream(events)
        msr.crash()
        msr_rec = msr.recover()
        ckpt = GlobalCheckpoint(sl, **RUN)
        ckpt.process_stream(events)
        ckpt.crash()
        ckpt_rec = ckpt.recover()
        assert msr_rec.buckets.get(buckets.WAIT, 0) < ckpt_rec.buckets.get(
            buckets.WAIT, 1
        )

    def test_abort_pushdown_removes_abort_handling(self, tp):
        _s, _rt, with_pd, _e, outcome = run_cycle(tp)
        _s2, _rt2, without_pd, _e2, _o2 = run_cycle(
            tp, options=MSROptions(abort_pushdown=False, opt_task_assign=False)
        )
        assert outcome.aborted
        assert with_pd.buckets.get(buckets.ABORT, 0.0) < without_pd.buckets.get(
            buckets.ABORT, 0.0
        )

    def test_factor_analysis_monotone_improvement(self, gs):
        """Each Fig. 11d increment must not slow recovery down (much)."""
        times = []
        for _label, options in [
            ("simple", MSROptions(op_restructure=False, abort_pushdown=False, opt_task_assign=False)),
            ("+rest", MSROptions(abort_pushdown=False, opt_task_assign=False)),
            ("+abort", MSROptions(opt_task_assign=False)),
            ("+lpt", MSROptions()),
        ]:
            _s, _rt, rec, _e, _o = run_cycle(gs, options=options)
            times.append(rec.elapsed_seconds)
        assert times[1] < times[0]  # restructuring is the big win
        assert times[3] <= times[1] * 1.05

    def test_views_reloaded_from_disk_not_memory(self, sl):
        # Recovery must work from a scheme instance whose logging
        # manager buffers were wiped — only durable bytes remain.
        events = sl.generate(N_EVENTS, seed=0)
        scheme = MorphStreamR(sl, **RUN)
        scheme.process_stream(events)
        scheme.crash()
        assert scheme.lm.buffered_epochs == 0
        assert scheme.disk.logs.has_epoch(MSR_STREAM, 6)
        scheme.recover()
        expected, _txns, _outcome = serial_ground_truth(sl, events)
        assert scheme.store.equals(expected)


class TestAdaptiveController:
    def test_epoch_len_adapts_during_stream(self):
        from repro.workloads.grep_sum import GrepSum

        workload = GrepSum(
            512, list_len=2, skew=0.0, multi_partition_ratio=0.1,
            abort_ratio=0.0, num_partitions=4,
        )
        controller = AdaptiveCommitController(32, 256)
        scheme = MorphStreamR(
            workload,
            num_workers=4,
            epoch_len=64,
            snapshot_interval=4,
            controller=controller,
        )
        scheme.process_stream(workload.generate(600, seed=0))
        # LSFD regime: the controller pushes toward the maximum epoch.
        assert scheme.epoch_len == 256

    def test_adapted_run_still_recovers(self):
        from repro.workloads.grep_sum import GrepSum

        workload = GrepSum(256, skew=0.9, num_partitions=4)
        controller = AdaptiveCommitController(32, 128, recovery_weight=0.5)
        scheme = MorphStreamR(
            workload,
            num_workers=4,
            epoch_len=64,
            snapshot_interval=4,
            controller=controller,
        )
        events = workload.generate(700, seed=0)
        scheme.process_stream(events)
        scheme.crash()
        scheme.recover()
        processed = scheme.sink.outputs()
        # All processed events recovered exactly once (the trailing
        # partial epoch was still pending and is not counted).
        expected, txns, outcome = serial_ground_truth(
            workload, events[: max(processed) + 1]
        )
        assert scheme.store.equals(expected)
