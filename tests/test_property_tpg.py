"""Property tests: TPG structural invariants over arbitrary shapes."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.execution import preprocess
from repro.engine.tpg import build_tpg
from repro.workloads.synthetic import SyntheticWorkload


def _tpg(seed, max_ops, num_tables, condition_ratio, skew):
    workload = SyntheticWorkload(
        64,
        num_tables=num_tables,
        max_ops=max_ops,
        condition_ratio=condition_ratio,
        skew=skew,
        num_partitions=3,
    )
    events = workload.generate(120, seed=seed)
    return build_tpg(preprocess(events, workload, 0))


TPG_PARAMS = dict(
    seed=st.integers(0, 5000),
    max_ops=st.integers(1, 5),
    num_tables=st.integers(1, 3),
    condition_ratio=st.floats(0.0, 1.0),
    skew=st.floats(0.0, 0.95),
)


@given(**TPG_PARAMS)
@settings(max_examples=60, deadline=None)
def test_property_chains_partition_operations(seed, max_ops, num_tables, condition_ratio, skew):
    tpg = _tpg(seed, max_ops, num_tables, condition_ratio, skew)
    chained = [op.uid for chain in tpg.chains.values() for op in chain]
    assert sorted(chained) == sorted(op.uid for op in tpg.ops)
    for ref, chain in tpg.chains.items():
        assert all(op.ref == ref for op in chain)
        timestamps = [op.ts for op in chain]
        assert timestamps == sorted(timestamps)


@given(**TPG_PARAMS)
@settings(max_examples=60, deadline=None)
def test_property_all_edges_point_strictly_backwards(seed, max_ops, num_tables, condition_ratio, skew):
    tpg = _tpg(seed, max_ops, num_tables, condition_ratio, skew)
    for op in tpg.ops:
        prev = tpg.td_prev.get(op.uid)
        if prev is not None:
            assert tpg.op_by_uid[prev].ts < op.ts
        for src in tpg.pd_sources[op.uid]:
            if src is not None:
                assert tpg.op_by_uid[src].ts < op.ts
    for txn_id, sources in tpg.cond_sources.items():
        txn = tpg.txn_by_id[txn_id]
        for _ref, src in sources:
            if src is not None:
                assert tpg.op_by_uid[src].ts < txn.ts


@given(**TPG_PARAMS)
@settings(max_examples=60, deadline=None)
def test_property_pd_source_is_latest_earlier_writer(seed, max_ops, num_tables, condition_ratio, skew):
    tpg = _tpg(seed, max_ops, num_tables, condition_ratio, skew)
    for op in tpg.ops:
        assert len(tpg.pd_sources[op.uid]) == len(op.reads)
        for ref, src in zip(op.reads, tpg.pd_sources[op.uid]):
            earlier_writers = [
                candidate.uid
                for candidate in tpg.chains.get(ref, [])
                if candidate.ts < op.ts
            ]
            expected = earlier_writers[-1] if earlier_writers else None
            assert src == expected


@given(**TPG_PARAMS)
@settings(max_examples=40, deadline=None)
def test_property_edge_counts_match_structure(seed, max_ops, num_tables, condition_ratio, skew):
    tpg = _tpg(seed, max_ops, num_tables, condition_ratio, skew)
    counts = tpg.edge_counts()
    assert counts["td"] == sum(
        len(chain) - 1 for chain in tpg.chains.values()
    )
    assert counts["ld"] == sum(len(t.ops) - 1 for t in tpg.txns)
    pd = sum(
        1
        for op in tpg.ops
        for src in tpg.pd_sources[op.uid]
        if src is not None
    ) + sum(
        1
        for sources in tpg.cond_sources.values()
        for _ref, src in sources
        if src is not None
    )
    assert counts["pd"] == pd


@given(**TPG_PARAMS)
@settings(max_examples=40, deadline=None)
def test_property_dependencies_are_self_free_and_unique(seed, max_ops, num_tables, condition_ratio, skew):
    tpg = _tpg(seed, max_ops, num_tables, condition_ratio, skew)
    for op in tpg.ops:
        deps = tpg.dependencies(op)
        assert op.uid not in deps
        assert len(deps) == len(set(deps))
