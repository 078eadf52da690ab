"""Operation restructuring (§V-B2): read classification and bundling."""

from __future__ import annotations

import pytest

from repro.core.restructure import (
    VIEW,
    chains_by_partition,
    restructure_operations,
)
from repro.engine.events import Event
from repro.engine.execution import preprocess
from repro.engine.operations import Operation
from repro.engine.refs import StateRef
from repro.engine.transactions import Transaction

A, B, C = (StateRef("t", k) for k in "ABC")


def txn(txn_id, ops_spec):
    ops = tuple(
        Operation(uid, txn_id, txn_id, ref, "deposit", (1.0,), tuple(reads))
        for uid, ref, reads in ops_spec
    )
    return Transaction(txn_id, txn_id, Event(txn_id, "e", ()), ops)


def view_reads(restructured):
    return sum(srcs.count(VIEW) for srcs in restructured.sources.values())


def local_reads(restructured):
    return sum(
        len(srcs) - srcs.count(None) - srcs.count(VIEW)
        for srcs in restructured.sources.values()
    )


class TestClassification:
    def test_unsourced_read_is_base(self):
        restructured = restructure_operations(
            [txn(0, [(0, B, (A,))])], {A: 0, B: 0}
        )
        assert restructured.sources[0] == (None,)

    def test_same_partition_sourced_read_is_local(self):
        txns = [txn(0, [(0, A, ())]), txn(1, [(1, B, (A,))])]
        restructured = restructure_operations(txns, {A: 0, B: 0})
        assert restructured.sources[1] == (0,)
        assert restructured.local_deps[1] == (0,)
        assert local_reads(restructured) == 1

    def test_cross_partition_sourced_read_is_view(self):
        txns = [txn(0, [(0, A, ())]), txn(1, [(1, B, (A,))])]
        restructured = restructure_operations(txns, {A: 0, B: 1})
        assert restructured.sources[1] == (VIEW,)
        assert view_reads(restructured) == 1
        assert 1 not in restructured.local_deps

    def test_no_partition_map_makes_all_sourced_reads_view(self):
        txns = [txn(0, [(0, A, ())]), txn(1, [(1, B, (A,))])]
        restructured = restructure_operations(txns, None)
        assert restructured.sources[1] == (VIEW,)
        assert restructured.local_deps == {}

    def test_every_read_carries_its_op_index(self, sl):
        """An operation with a VIEW read knows its position in the
        transaction, the op index of its ParametricView keys, so
        recovery never scans ``txn.ops`` for it; no other operation
        has an entry."""
        txns = preprocess(sl.generate(300, seed=3), sl, 0)
        restructured = restructure_operations(txns, None)
        views = 0
        for t in txns:
            for op_index, op in enumerate(t.ops):
                if VIEW in restructured.sources[op.uid]:
                    assert restructured.op_index[op.uid] == op_index
                    views += 1
                else:
                    assert op.uid not in restructured.op_index
        assert views and any(restructured.op_index.values())
        assert len(restructured.op_index) == views

    def test_classification_depends_only_on_record_partitions(self):
        # Whatever transactions commit, a (from_ref, to_ref) pair always
        # classifies the same way — the invariant that keeps runtime
        # logging and recovery lookup in agreement.
        pmap = {A: 0, B: 1, C: 0}
        full = [txn(0, [(0, A, ())]), txn(1, [(1, C, ())]), txn(2, [(2, B, (A,))])]
        sub = [txn(0, [(0, A, ())]), txn(2, [(2, B, (A,))])]
        for txns in (full, sub):
            restructured = restructure_operations(txns, pmap)
            assert restructured.sources[2] == (VIEW,)


class TestBundling:
    def test_partition_map_groups_chains(self):
        txns = [txn(0, [(0, A, ())]), txn(1, [(1, B, ())]), txn(2, [(2, C, ())])]
        restructured = restructure_operations(txns, {A: 0, B: 0, C: 1})
        bundles = chains_by_partition(restructured, {A: 0, B: 0, C: 1}, 2)
        sizes = sorted(len(b) for b in bundles)
        assert sizes == [1, 2]

    def test_without_map_chains_fold_into_bounded_bundles(self, gs):
        events = gs.generate(200, seed=1)
        txns = preprocess(events, gs, 0)
        restructured = restructure_operations(txns, None)
        bundles = chains_by_partition(restructured, None, 4)
        assert len(bundles) <= 16
        total = sum(len(b) for b in bundles)
        assert total == len(restructured.chains)

    def test_bundles_cover_all_chains_exactly_once(self, sl):
        events = sl.generate(200, seed=2)
        txns = preprocess(events, sl, 0)
        # Build a partition map over the chains (all to 2 partitions).
        refs = sorted(set().union(*[t.write_set() for t in txns]))
        pmap = {ref: i % 2 for i, ref in enumerate(refs)}
        restructured = restructure_operations(txns, pmap)
        bundles = chains_by_partition(restructured, pmap, 2)
        seen = [id(chain) for bundle in bundles for chain in bundle]
        assert len(seen) == len(set(seen)) == len(restructured.chains)

    def test_local_deps_stay_within_bundle(self, sl):
        events = sl.generate(300, seed=3)
        txns = preprocess(events, sl, 0)
        refs = sorted(set().union(*[t.write_set() for t in txns]))
        pmap = {ref: i % 3 for i, ref in enumerate(refs)}
        restructured = restructure_operations(txns, pmap)
        bundles = chains_by_partition(restructured, pmap, 3)
        op_bundle = {}
        for bi, bundle in enumerate(bundles):
            for chain in bundle:
                for operation in chain:
                    op_bundle[operation.uid] = bi
        for uid, deps in restructured.local_deps.items():
            for dep in deps:
                assert op_bundle[dep] == op_bundle[uid]
