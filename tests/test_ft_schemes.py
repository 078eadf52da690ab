"""Per-scheme recovery: state equivalence plus scheme-specific traits."""

from __future__ import annotations

import pytest

from repro import SCHEMES as SCHEME_REGISTRY
from repro import buckets
from repro.ft.checkpoint import GlobalCheckpoint
from repro.ft.dlog import DependencyLogging
from repro.ft.dlog import STREAM as DL_STREAM
from repro.ft.lsnvector import LSNVector
from repro.ft.lsnvector import STREAM as LV_STREAM
from repro.ft.wal import STREAM as WAL_STREAM
from repro.ft.wal import WriteAheadLog
from repro.harness.runner import ground_truth
from repro.sim.executor import WorkerFault
from tests.conftest import serial_ground_truth

#: every scheme that can recover (NAT cannot).
SCHEMES = [cls for name, cls in SCHEME_REGISTRY.items() if name != "NAT"]
#: epoch_len 50, snapshot every 3, 7 epochs -> snapshot at 5, replay 6.
RUN = dict(num_workers=4, epoch_len=50, snapshot_interval=3)
N_EVENTS = 350


def run_cycle(scheme_cls, workload, seed=0, **kwargs):
    events = workload.generate(N_EVENTS, seed=seed)
    scheme = scheme_cls(workload, **{**RUN, **kwargs})
    runtime = scheme.process_stream(events)
    scheme.crash()
    recovery = scheme.recover()
    expected, _txns, outcome = serial_ground_truth(workload, events)
    return scheme, runtime, recovery, expected, outcome


class TestRecoveryEquivalence:
    @pytest.mark.parametrize("scheme_cls", SCHEMES)
    def test_state_recovered_exactly(self, workload, scheme_cls):
        scheme, _rt, recovery, expected, _outcome = run_cycle(
            scheme_cls, workload
        )
        assert scheme.store.equals(expected), scheme.store.diff(expected, 5)
        assert recovery.events_replayed == 50

    @pytest.mark.parametrize("scheme_cls", SCHEMES)
    def test_outputs_exactly_once(self, workload, scheme_cls):
        scheme, _rt, _rec, _expected, outcome = run_cycle(scheme_cls, workload)
        delivered = scheme.sink.outputs()
        assert len(delivered) == N_EVENTS
        expected_outputs = {
            seq: scheme.workload.output_for(
                txn, txn.txn_id not in outcome.aborted, outcome.op_values
            )
            for seq, txn in (
                (t.event.seq, t)
                for t in serial_ground_truth(
                    scheme.workload, scheme.workload.generate(N_EVENTS, seed=0)
                )[1]
            )
        }
        assert delivered == expected_outputs

    @pytest.mark.parametrize("scheme_cls", SCHEMES)
    def test_repeatable_across_runs(self, gs, scheme_cls):
        _s1, rt1, rec1, _e1, _o1 = run_cycle(scheme_cls, gs)
        _s2, rt2, rec2, _e2, _o2 = run_cycle(scheme_cls, gs)
        assert rt1.elapsed_seconds == rt2.elapsed_seconds
        assert rec1.elapsed_seconds == rec2.elapsed_seconds

    @pytest.mark.parametrize("scheme_cls", SCHEMES)
    def test_worker_death_is_reassigned_exactly(self, gs, scheme_cls):
        scheme, _rt, recovery, expected, _outcome = run_cycle(
            scheme_cls, gs, recovery_faults=[WorkerFault(0, "die", 0.0)]
        )
        assert scheme.store.equals(expected), scheme.store.diff(expected, 5)
        events = gs.generate(N_EVENTS, seed=0)
        assert scheme.sink.outputs() == ground_truth(gs, events)[1]
        if scheme_cls is WriteAheadLog:
            # Sequential redo charges core 0 directly and hands the
            # executor no tasks, so there is no schedule to lose.
            assert recovery.dead_workers == ()
            assert recovery.reassign_rounds == 0
        else:
            assert recovery.dead_workers == (0,)
            assert recovery.reassign_rounds >= 1
            assert recovery.tasks_reassigned > 0

    @pytest.mark.parametrize("scheme_cls", SCHEMES)
    def test_straggler_never_changes_the_result(self, gs, scheme_cls):
        scheme, _rt, recovery, expected, _outcome = run_cycle(
            scheme_cls,
            gs,
            recovery_faults=[WorkerFault(0, "straggle", 0.0, slowdown=4.0)],
        )
        assert scheme.store.equals(expected), scheme.store.diff(expected, 5)
        assert recovery.dead_workers == ()
        assert recovery.reassign_rounds == 0


class TestWAL:
    def test_logs_committed_commands_only(self, tp):
        events = tp.generate(N_EVENTS, seed=0)
        scheme = WriteAheadLog(tp, **RUN)
        scheme.process_stream(events)
        _expected, _txns, outcome = serial_ground_truth(tp, events)
        assert outcome.aborted, "fixture must produce aborts"
        # Older epochs were garbage-collected at the last checkpoint;
        # inspect the surviving segment (epoch 6).
        records, _io = scheme.disk.logs.read_epoch(WAL_STREAM, 6)
        epoch6_seqs = {e.seq for e in events[300:350]}
        committed6 = epoch6_seqs - outcome.aborted
        assert {event.seq for event in records.events} == committed6

    def test_redo_is_sequential(self, sl):
        scheme, _rt, recovery, _expected, _outcome = run_cycle(
            WriteAheadLog, sl
        )
        # All redo execution happens on core 0; the others only wait,
        # so per-core average wait dominates execute.
        assert recovery.buckets[buckets.WAIT] > recovery.buckets[buckets.EXECUTE]

    def test_reload_includes_global_sort(self, sl):
        _s, _rt, recovery, _e, _o = run_cycle(WriteAheadLog, sl)
        ckpt_recovery = run_cycle(GlobalCheckpoint, sl)[2]
        assert recovery.buckets[buckets.RELOAD] > ckpt_recovery.buckets[buckets.RELOAD]


class TestDL:
    def test_log_records_carry_operation_edges(self, sl):
        events = sl.generate(N_EVENTS, seed=0)
        scheme = DependencyLogging(sl, **RUN)
        scheme.process_stream(events)
        records, _io = scheme.disk.logs.read_epoch(DL_STREAM, 6)
        assert records.events
        # One flat record per command: (n_ops, in_0, out_0, ...,
        # in_k, out_k, *uids), so its length is fixed by the counts.
        total_edges = 0
        for record in records.tail:
            counts = record[1 : 1 + 2 * record[0]]
            assert len(record) == 1 + 2 * record[0] + sum(counts)
            total_edges += sum(counts)
        assert total_edges > 0

    def test_recovery_pays_graph_reconstruction(self, sl):
        _s, _rt, recovery, _e, _o = run_cycle(DependencyLogging, sl)
        ckpt_recovery = run_cycle(GlobalCheckpoint, sl)[2]
        assert (
            recovery.buckets[buckets.CONSTRUCT]
            > ckpt_recovery.buckets[buckets.CONSTRUCT]
        )

    def test_runtime_tracks_dependencies(self, sl):
        events = sl.generate(N_EVENTS, seed=0)
        scheme = DependencyLogging(sl, **RUN)
        report = scheme.process_stream(events)
        assert report.buckets.get(buckets.TRACK, 0.0) > 0


class TestLV:
    def test_vectors_have_one_entry_per_stream(self, sl):
        events = sl.generate(N_EVENTS, seed=0)
        scheme = LSNVector(sl, **RUN)
        scheme.process_stream(events)
        records, _io = scheme.disk.logs.read_epoch(LV_STREAM, 6)
        for vector in records.tail:
            assert len(vector) == RUN["num_workers"]

    def test_vector_entries_point_to_earlier_positions(self, sl):
        events = sl.generate(N_EVENTS, seed=0)
        scheme = LSNVector(sl, **RUN)
        scheme.process_stream(events)
        records, _io = scheme.disk.logs.read_epoch(LV_STREAM, 6)
        # Positions referenced never exceed the stream lengths.
        stream_len = [0] * RUN["num_workers"]
        from repro.engine.execution import preprocess

        for event, vector in zip(*records):
            txn = preprocess([event], scheme.workload, 0)[0]
            stream = scheme.worker_of_txn(txn)
            for entry in vector:
                assert entry < N_EVENTS
            stream_len[stream] += 1

    def test_recovery_explore_dominated_by_vector_checks(self, sl):
        _s, _rt, recovery, _e, _o = run_cycle(LSNVector, sl)
        assert recovery.buckets.get(buckets.EXPLORE, 0.0) > 0


class TestCKPT:
    def test_no_log_records_at_runtime(self, sl):
        events = sl.generate(N_EVENTS, seed=0)
        scheme = GlobalCheckpoint(sl, **RUN)
        report = scheme.process_stream(events)
        assert report.bytes_logged == 0
        assert report.buckets.get(buckets.TRACK, 0.0) == 0.0

    def test_recovery_reprocesses_aborts(self, tp):
        _s, _rt, recovery, _e, outcome = run_cycle(GlobalCheckpoint, tp)
        assert outcome.aborted
        assert recovery.buckets.get(buckets.ABORT, 0.0) > 0
