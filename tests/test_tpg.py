"""Task precedence graph: TD/PD/LD edge derivation (§II-A, Fig. 3)."""

from __future__ import annotations

import pytest

from repro.engine.events import Event
from repro.engine.operations import Condition, Operation
from repro.engine.refs import StateRef
from repro.engine.tpg import build_tpg
from repro.engine.transactions import Transaction

A = StateRef("t", "A")
B = StateRef("t", "B")
C = StateRef("t", "C")


def txn(txn_id, ops_spec, conditions=()):
    """ops_spec: list of (uid, ref, reads)."""
    ops = tuple(
        Operation(uid, txn_id, txn_id, ref, "deposit", (1.0,), tuple(reads))
        for uid, ref, reads in ops_spec
    )
    return Transaction(
        txn_id, txn_id, Event(txn_id, "e", ()), ops, tuple(conditions)
    )


class TestTemporalDependencies:
    def test_same_key_ops_chain_in_timestamp_order(self):
        tpg = build_tpg([txn(0, [(0, A, ())]), txn(1, [(1, A, ())])])
        assert [op.uid for op in tpg.chains[A]] == [0, 1]
        assert tpg.td_prev == {1: 0}

    def test_different_keys_have_no_td(self):
        tpg = build_tpg([txn(0, [(0, A, ())]), txn(1, [(1, B, ())])])
        assert tpg.td_prev == {}

    def test_chains_partition_all_operations(self):
        txns = [txn(i, [(i, A if i % 2 else B, ())]) for i in range(6)]
        tpg = build_tpg(txns)
        assert sum(len(c) for c in tpg.chains.values()) == 6


class TestParametricDependencies:
    def test_read_resolves_to_latest_earlier_writer(self):
        tpg = build_tpg(
            [
                txn(0, [(0, A, ())]),
                txn(1, [(1, A, ())]),
                txn(2, [(2, B, (A,))]),
            ]
        )
        assert tpg.pd_sources[2] == (1,)

    def test_read_without_writer_has_no_source(self):
        tpg = build_tpg([txn(0, [(0, B, (A,))])])
        assert tpg.pd_sources[0] == (None,)

    def test_same_transaction_writer_excluded(self):
        # Snapshot semantics: an op never PD-depends on a sibling.
        tpg = build_tpg([txn(0, [(0, A, ()), (1, B, (A,))])])
        assert tpg.pd_sources[1] == (None,)

    def test_condition_refs_resolve_like_reads(self):
        cond = Condition("ge", (A,), (0.0,))
        tpg = build_tpg(
            [txn(0, [(0, A, ())]), txn(1, [(1, B, ())], [cond])]
        )
        assert tpg.cond_sources[1] == ((A, 0),)

    def test_duplicate_condition_refs_deduplicated(self):
        conds = [Condition("ge", (A,), (0.0,)), Condition("lt", (A,), (9.0,))]
        tpg = build_tpg([txn(0, [(0, A, ())]), txn(1, [(1, B, ())], conds)])
        assert tpg.cond_sources[1] == ((A, 0),)


class TestLogicalDependencies:
    def test_non_validator_depends_on_validator(self):
        tpg = build_tpg([txn(0, [(0, A, ()), (1, B, ()), (2, C, ())])])
        assert tpg.validator_uid[0] == 0
        assert 0 in tpg.dependencies(tpg.op_by_uid[1])
        assert 0 in tpg.dependencies(tpg.op_by_uid[2])

    def test_validator_does_not_depend_on_itself(self):
        tpg = build_tpg([txn(0, [(0, A, ()), (1, B, ())])])
        assert 0 not in tpg.dependencies(tpg.op_by_uid[0])


class TestGraphShape:
    def test_timestamp_order_is_topological(self):
        txns = [
            txn(0, [(0, A, ())]),
            txn(1, [(1, B, (A,)), (2, C, ())]),
            txn(2, [(3, A, (B, C))]),
        ]
        tpg = build_tpg(txns)
        for op in tpg.ops:
            for dep in tpg.dependencies(op):
                assert dep < op.uid

    def test_edge_counts(self):
        cond = Condition("ge", (A,), (0.0,))
        txns = [
            txn(0, [(0, A, ())]),
            txn(1, [(1, A, ()), (2, B, (A,))], [cond]),
        ]
        tpg = build_tpg(txns)
        counts = tpg.edge_counts()
        assert counts["td"] == 1  # A chain: 0 -> 1
        assert counts["pd"] == 2  # read A (src=0) + cond A (src=0)
        assert counts["ld"] == 1  # op 2 depends on validator 1

    def test_out_of_order_input_sorted_by_timestamp(self):
        txns = [txn(1, [(1, A, ())]), txn(0, [(0, A, ())])]
        tpg = build_tpg(txns)
        assert [t.txn_id for t in tpg.txns] == [0, 1]
        assert tpg.td_prev == {1: 0}

    def test_dependencies_deduplicated(self):
        # op reads A twice through read set and condition on the
        # validator: the dependency list contains the source once.
        cond = Condition("ge", (A,), (0.0,))
        txns = [
            txn(0, [(0, A, ())]),
            txn(1, [(1, B, (A,))], [cond]),
        ]
        tpg = build_tpg(txns)
        deps = tpg.dependencies(tpg.op_by_uid[1])
        assert deps.count(0) == 1
