"""Preprocessing allocates one ``StateRef`` per record per batch.

``preprocess`` hands every ``build_transaction`` of one call the same
:class:`RefTable`, so equal refs anywhere in the batch (an operation's
record, its reads, a condition's refs) are one object.  The table is
an allocation detail only: the transactions equal those built one event
at a time with a fresh table each, and nothing of it outlives the call.
"""

from __future__ import annotations

import pickle
from operator import attrgetter

import pytest

from repro import GrepSum, OnlineBidding, StreamingLedger, TollProcessing
from repro.cluster.frontier import FrontierEntry
from repro.cluster.sharding import ShardMap, ShardWorkload
from repro.engine.execution import preprocess
from repro.engine.refs import RefTable, StateRef
from repro.workloads.synthetic import SyntheticWorkload

NUM_EVENTS = 400


def _shard_workload():
    """Shard 0 of a two-shard ledger, with frontier entries pinned for
    its cross-shard events (every third one aborted), and the events
    routed to it."""
    inner = StreamingLedger(
        64, transfer_ratio=0.7, multi_partition_ratio=0.5, skew=0.6,
        forced_abort_ratio=0.1,
    )
    shard_map = ShardMap(inner, 2)
    workload = ShardWorkload(inner, shard_map, 0)
    routed = []
    for txn in preprocess(inner.generate(NUM_EVENTS, seed=5), inner, 0):
        shards = shard_map.shards_of_txn(txn)
        if 0 not in shards:
            continue
        routed.append(txn.event)
        if len(shards) > 1:
            reads = {
                index: (1.0,) * len(op.reads)
                for index, op in enumerate(txn.ops)
                if op.reads
            }
            workload.frontier.record(
                FrontierEntry(txn.event.seq, 0, txn.event.seq % 3 == 0, reads)
            )
    return workload, routed


def _plain(workload):
    return workload, workload.generate(NUM_EVENTS, seed=11)


CASES = {
    "SL": lambda: _plain(
        StreamingLedger(
            128, multi_partition_ratio=0.3, skew=0.6, forced_abort_ratio=0.1,
            query_ratio=0.1,
        )
    ),
    "GS": lambda: _plain(
        GrepSum(1024, list_len=8, skew=0.95, abort_ratio=0.05)
    ),
    "GS_BIG": lambda: _plain(GrepSum(65536, list_len=4, skew=0.2)),
    "TP": lambda: _plain(
        TollProcessing(64, skew=0.6, capacity=10, forced_abort_ratio=0.1)
    ),
    "OB": lambda: _plain(OnlineBidding(64, skew=0.6)),
    "SYN": lambda: _plain(SyntheticWorkload(64, max_ops=5, max_conditions=3)),
    "SHARD": _shard_workload,
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def _mentions(txns):
    """Every ref a batch names: op records, op reads, condition refs."""
    for txn in txns:
        for op in txn.ops:
            yield op.ref
            yield from op.reads
        for cond in txn.conditions:
            yield from cond.refs


class TestRefTable:
    def test_lookup_builds_one_ref_per_record(self):
        refs = RefTable()
        ref = refs["t"][3]
        assert ref == StateRef("t", 3) and type(ref) is StateRef
        assert refs["t"][3] is ref
        assert refs["u"][3] == StateRef("u", 3) and refs["u"][3] is not ref

    def test_equal_refs_in_one_batch_are_one_object(self, case):
        workload, events = case
        txns = preprocess(events, workload, 0)
        first = {}
        mentions = 0
        for ref in _mentions(txns):
            assert type(ref) is StateRef
            assert first.setdefault(ref, ref) is ref, ref
            mentions += 1
        assert mentions > len(first), "no record named twice: weak case"

    def test_transactions_equal_those_built_one_event_at_a_time(self, case):
        workload, events = case
        expected = []
        uid = 7
        for event in sorted(events, key=attrgetter("seq")):
            txn = workload.build_transaction(event, uid, RefTable())
            uid += len(txn.ops)
            expected.append(txn)
        assert preprocess(events, workload, 7) == expected

    def test_no_table_outlives_the_batch(self, case):
        workload, events = case
        before = pickle.dumps(vars(workload))
        preprocess(events, workload, 0)
        assert pickle.dumps(vars(workload)) == before
