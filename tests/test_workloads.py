"""The three benchmark applications: generation, transactions, outputs."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.engine.refs import StateRef
from repro.engine.serial import execute_serial
from repro.engine.execution import preprocess
from repro.errors import WorkloadError
from repro.workloads.grep_sum import GrepSum
from repro.workloads.streaming_ledger import StreamingLedger
from repro.workloads.toll_processing import TollProcessing
from tests.conftest import serial_ground_truth


class TestWorkloadBase:
    def test_partition_of_ranges(self, gs):
        # 128 keys over 4 partitions: 32 keys each.
        assert gs.partition_of(StateRef("records", 0)) == 0
        assert gs.partition_of(StateRef("records", 31)) == 0
        assert gs.partition_of(StateRef("records", 32)) == 1
        assert gs.partition_of(StateRef("records", 127)) == 3

    def test_partition_bounds_cover_key_space(self, gs):
        covered = []
        for pid in range(gs.num_partitions):
            lo, hi = gs.partition_bounds("records", pid)
            covered.extend(range(lo, hi))
        assert covered == list(range(128))

    def test_partition_bounds_consistent_with_partition_of(self, sl):
        for pid in range(sl.num_partitions):
            lo, hi = sl.partition_bounds("accounts", pid)
            for key in (lo, hi - 1):
                assert sl.partition_of(StateRef("accounts", key)) == pid

    def test_unknown_table_rejected(self, gs):
        with pytest.raises(WorkloadError):
            gs.partition_of(StateRef("nope", 0))

    def test_out_of_range_key_rejected(self, gs):
        with pytest.raises(WorkloadError):
            gs.partition_of(StateRef("records", 9999))

    def test_spans_partitions(self, sl):
        events = sl.generate(200, seed=1)
        txns = preprocess(events, sl, 0)
        spanning = [t for t in txns if sl.spans_partitions(t)]
        local = [t for t in txns if not sl.spans_partitions(t)]
        assert spanning and local


class TestGeneratorContract:
    def test_generation_is_deterministic(self, workload):
        assert workload.generate(100, seed=4) == workload.generate(100, seed=4)

    def test_seeds_change_the_stream(self, workload):
        assert workload.generate(100, seed=1) != workload.generate(100, seed=2)

    def test_sequence_numbers_are_dense(self, workload):
        events = workload.generate(50, seed=0)
        assert [e.seq for e in events] == list(range(50))

    def test_events_survive_codec_round_trip(self, workload):
        from repro.engine.events import Event
        from repro.storage.codec import decode, encode

        for event in workload.generate(30, seed=0):
            blob = encode(event)
            assert Event._make(decode(blob)) == event

    def test_transactions_rebuild_identically_from_events(self, workload):
        events = workload.generate(50, seed=0)
        first = preprocess(events, workload, 0)
        second = preprocess(events, workload, 0)
        assert first == second

    def test_outputs_deterministic(self, workload):
        events = workload.generate(100, seed=0)
        _store, txns, outcome = serial_ground_truth(workload, events)
        outputs = [
            workload.output_for(
                t, t.txn_id not in outcome.aborted, outcome.op_values
            )
            for t in txns
        ]
        _store2, txns2, outcome2 = serial_ground_truth(workload, events)
        outputs2 = [
            workload.output_for(
                t, t.txn_id not in outcome2.aborted, outcome2.op_values
            )
            for t in txns2
        ]
        assert outputs == outputs2


class TestStreamingLedger:
    def test_deposit_transaction_shape(self):
        wl = StreamingLedger(64, transfer_ratio=0.0, num_partitions=4)
        events = wl.generate(20, seed=0)
        txns = preprocess(events, wl, 0)
        for txn in txns:
            assert txn.event.kind == "deposit"
            assert len(txn.ops) == 2
            tables = {op.ref.table for op in txn.ops}
            assert tables == {"accounts", "assets"}

    def test_transfer_transaction_shape(self):
        wl = StreamingLedger(64, transfer_ratio=1.0, num_partitions=4)
        events = wl.generate(20, seed=0)
        txns = preprocess(events, wl, 0)
        for txn in txns:
            assert len(txn.ops) == 4
            assert len(txn.conditions) == 2
            # Destination writes read the source record (Fig. 3, f3).
            assert txn.ops[1].reads == (txn.ops[0].ref,)
            assert txn.ops[3].reads == (txn.ops[2].ref,)

    def test_transfer_src_dst_distinct(self):
        wl = StreamingLedger(
            16, transfer_ratio=1.0, multi_partition_ratio=0.0, num_partitions=4
        )
        for event in wl.generate(300, seed=2):
            src, dst = event.payload[0], event.payload[1]
            assert src != dst

    def test_multi_partition_ratio_zero_keeps_transfers_local(self):
        wl = StreamingLedger(
            64, transfer_ratio=1.0, multi_partition_ratio=0.0, num_partitions=4
        )
        for event in wl.generate(200, seed=0):
            src, dst = event.payload[0], event.payload[1]
            assert src * 4 // 64 == dst * 4 // 64

    def test_multi_partition_ratio_one_always_crosses(self):
        wl = StreamingLedger(
            64, transfer_ratio=1.0, multi_partition_ratio=1.0, num_partitions=4
        )
        for event in wl.generate(200, seed=0):
            src, dst = event.payload[0], event.payload[1]
            assert src * 4 // 64 != dst * 4 // 64

    def test_forced_abort_ratio_controls_aborts(self):
        wl = StreamingLedger(
            64, transfer_ratio=0.0, forced_abort_ratio=0.5, num_partitions=4
        )
        events = wl.generate(400, seed=0)
        _store, _txns, outcome = serial_ground_truth(wl, events)
        assert 100 < len(outcome.aborted) < 300

    def test_natural_aborts_on_insufficient_balance(self):
        wl = StreamingLedger(
            8,
            transfer_ratio=1.0,
            skew=0.9,
            initial_balance=50.0,
            max_amount=40.0,
            num_partitions=2,
        )
        events = wl.generate(400, seed=0)
        _store, _txns, outcome = serial_ground_truth(wl, events)
        assert outcome.aborted  # hot accounts drain and transfers bounce

    def test_money_conservation_without_deposits(self):
        wl = StreamingLedger(32, transfer_ratio=1.0, num_partitions=4)
        events = wl.generate(300, seed=1)
        store, _txns, _outcome = serial_ground_truth(wl, events)
        total = sum(
            store.get(StateRef("accounts", k)) for k in range(32)
        )
        assert total == pytest.approx(32 * wl.initial_balance)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            StreamingLedger(1)
        with pytest.raises(WorkloadError):
            StreamingLedger(64, transfer_ratio=1.5)
        with pytest.raises(WorkloadError):
            StreamingLedger(64, multi_partition_ratio=-0.1)


class TestGrepSum:
    def test_sum_transaction_shape(self):
        wl = GrepSum(64, list_len=4, num_partitions=4)
        events = wl.generate(30, seed=0)
        for txn in preprocess(events, wl, 0):
            assert len(txn.ops) == 1
            assert len(txn.ops[0].reads) == 3

    def test_read_list_keys_distinct(self):
        wl = GrepSum(64, list_len=6, multi_partition_ratio=0.5, num_partitions=4)
        for event in wl.generate(200, seed=0):
            keys = event.payload[0]
            assert len(set(keys)) == len(keys)

    def test_write_ratio_one_is_write_only(self):
        wl = GrepSum(64, write_ratio=1.0, num_partitions=4)
        events = wl.generate(100, seed=0)
        assert all(e.kind == "write" for e in events)
        for txn in preprocess(events, wl, 0):
            assert txn.ops[0].reads == ()
            assert not txn.conditions

    def test_abort_ratio_zero_never_aborts(self):
        wl = GrepSum(64, abort_ratio=0.0, num_partitions=4)
        events = wl.generate(300, seed=0)
        _store, _txns, outcome = serial_ground_truth(wl, events)
        assert not outcome.aborted

    def test_abort_ratio_matches_forced_fraction(self):
        wl = GrepSum(128, abort_ratio=0.3, num_partitions=4)
        events = wl.generate(1000, seed=0)
        _store, _txns, outcome = serial_ground_truth(wl, events)
        assert len(outcome.aborted) == pytest.approx(300, rel=0.2)

    def test_multi_partition_zero_keeps_reads_local(self):
        wl = GrepSum(64, multi_partition_ratio=0.0, list_len=4, num_partitions=4)
        for event in wl.generate(100, seed=0):
            if event.kind != "sum":
                continue
            parts = {k * 4 // 64 for k in event.payload[0]}
            assert len(parts) == 1

    def test_values_stay_finite_under_heavy_reuse(self):
        wl = GrepSum(8, list_len=4, skew=0.9, num_partitions=2)
        events = wl.generate(2000, seed=0)
        store, _txns, _outcome = serial_ground_truth(wl, events)
        for key in range(8):
            value = store.get(StateRef("records", key))
            assert abs(value) < 100.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            GrepSum(2, list_len=10)
        with pytest.raises(WorkloadError):
            GrepSum(64, abort_ratio=2.0)


class TestTollProcessing:
    def test_report_transaction_shape(self, tp):
        events = tp.generate(20, seed=0)
        for txn in preprocess(events, tp, 0):
            assert len(txn.ops) == 2
            assert txn.ops[0].ref.table == "road_speed"
            assert txn.ops[1].ref.table == "road_count"
            assert txn.ops[0].ref.key == txn.ops[1].ref.key
            assert txn.conditions[0].func == "lt"

    def test_capacity_saturation_causes_aborts(self):
        wl = TollProcessing(4, skew=0.0, capacity=5.0, num_partitions=2)
        events = wl.generate(100, seed=0)
        store, _txns, outcome = serial_ground_truth(wl, events)
        assert outcome.aborted
        # No segment count ever exceeds capacity.
        for seg in range(4):
            assert store.get(StateRef("road_count", seg)) <= 5.0

    def test_counts_equal_committed_reports(self, tp):
        events = tp.generate(300, seed=1)
        store, _txns, outcome = serial_ground_truth(tp, events)
        total = sum(
            store.get(StateRef("road_count", s)) for s in range(32)
        )
        assert total == 300 - len(outcome.aborted)

    def test_toll_output_reflects_congestion(self, tp):
        events = tp.generate(50, seed=0)
        _store, txns, outcome = serial_ground_truth(tp, events)
        for txn in txns:
            committed = txn.txn_id not in outcome.aborted
            output = tp.output_for(txn, committed, outcome.op_values)
            if committed:
                kind, toll = output
                assert kind == "toll"
                assert 0.0 <= toll <= 2.0
            else:
                assert output == ("report", "rejected")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            TollProcessing(0)
        with pytest.raises(WorkloadError):
            TollProcessing(8, alpha=0.0)
        with pytest.raises(WorkloadError):
            TollProcessing(8, capacity=0.0)


class TestQueries:
    def _wl(self, query_ratio=0.3):
        return StreamingLedger(
            64, transfer_ratio=0.5, query_ratio=query_ratio,
            skew=0.5, num_partitions=4,
        )

    def test_query_transaction_is_read_only(self):
        wl = self._wl()
        events = [e for e in wl.generate(200, seed=0) if e.kind == "query"]
        assert events
        for txn in preprocess(events[:10], wl, 0):
            assert len(txn.ops) == 1
            assert txn.ops[0].func == "identity"
            assert not txn.conditions

    def test_queries_leave_state_untouched(self):
        with_queries = self._wl(query_ratio=1.0)
        events = with_queries.generate(300, seed=1)
        store, _txns, outcome = serial_ground_truth(with_queries, events)
        assert store.equals(with_queries.initial_state())
        assert not outcome.aborted

    def test_query_observes_timestamp_consistent_balance(self):
        wl = self._wl()
        events = wl.generate(400, seed=2)
        _store, txns, outcome = serial_ground_truth(wl, events)
        # Reconstruct each queried balance by replaying the prefix.
        from repro.engine.refs import StateRef
        replay = wl.initial_state()
        for txn in txns:
            if txn.event.kind == "query":
                (account,) = txn.event.payload
                expected = replay.get(StateRef("accounts", account))
                assert outcome.op_values[txn.ops[0].uid] == expected
            elif txn.txn_id not in outcome.aborted:
                for op in txn.ops:
                    replay.set(op.ref, outcome.op_values[op.uid])

    def test_recovery_regenerates_query_outputs(self):
        from repro.core.morphstreamr import MorphStreamR
        wl = self._wl()
        events = wl.generate(350, seed=3)
        scheme = MorphStreamR(
            wl, num_workers=4, epoch_len=50, snapshot_interval=3
        )
        scheme.process_stream(events)
        scheme.crash()
        scheme.recover()
        queries = [
            o for o in scheme.sink.outputs().values() if o[0] == "query"
        ]
        assert queries
        expected, _txns, _outcome = serial_ground_truth(wl, events)
        assert scheme.store.equals(expected)
