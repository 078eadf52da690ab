"""PACMAN-style parallel WAL redo: batching, speedup, and the sort fix.

Covers the ISSUE-10 tentpole baseline (``WALPacman``) and the WAL
merge-sort double-charge fix:

- the static key-access analysis never splits dependent transactions
  across batches (property-based);
- the live analysis, which merges record labels, returns the frozen
  union-find's components item for item, in the same insertion order,
  and the same access count (``tests/reference_pacman.py``; a property
  over every workload, and late transactions that bridge large
  components);
- PACMAN recovery beats WAL by >= 2x at 4 workers on the
  low-dependency workload while staying bit-identical to the serial
  ground truth (the acceptance criterion);
- the WAL sort charge totals exactly ``n * log2(k)`` comparisons of CPU
  (regression pin for the old ``spend_all`` + divide-by-min(4, nw)
  double charge).
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import buckets
from repro.engine.events import Event
from repro.engine.execution import preprocess
from repro.engine.operations import Operation
from repro.engine.refs import StateRef
from repro.engine.tpg import build_tpg
from repro.engine.transactions import Transaction
from repro.ft.common import txn_level_deps
from repro.ft.pacman import WALPacman, static_batches
from repro.ft.wal import WriteAheadLog
from repro.sim.costs import DEFAULT_COSTS
from repro.workloads.grep_sum import GrepSum
from repro.workloads.streaming_ledger import StreamingLedger
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.toll_processing import TollProcessing
from tests.conftest import serial_ground_truth
from tests.reference_pacman import (
    reference_static_batches,
    reference_txn_refs as txn_refs,
)

EPOCH_LEN = 128
SNAPSHOT_INTERVAL = 4
RECOVER_EPOCHS = 2


def low_dep_gs():
    """The low-dependency sweep point where parallel redo shines."""
    return GrepSum(
        256,
        list_len=4,
        skew=0.0,
        multi_partition_ratio=0.0,
        abort_ratio=0.0,
        num_partitions=4,
    )


def run_recovery(scheme_cls, workload, *, num_workers=4, seed=7, **kwargs):
    events = workload.generate(
        EPOCH_LEN * (SNAPSHOT_INTERVAL + RECOVER_EPOCHS), seed
    )
    scheme = scheme_cls(
        workload,
        num_workers=num_workers,
        epoch_len=EPOCH_LEN,
        snapshot_interval=SNAPSHOT_INTERVAL,
        **kwargs,
    )
    scheme.process_stream(events)
    scheme.crash()
    report = scheme.recover()
    return scheme, report, events


class TestStaticBatches:
    def test_batches_partition_all_transactions(self, gs):
        events = gs.generate(200, seed=3)
        txns = preprocess(events, gs, 0)
        component_of, accesses = static_batches(txns)
        assert set(component_of) == {t.txn_id for t in txns}
        assert accesses == sum(len(txn_refs(t)) for t in txns)
        # Components are densely numbered from zero.
        ids = set(component_of.values())
        assert ids == set(range(len(ids)))

    @given(
        seed=st.integers(0, 10_000),
        skew=st.floats(0.0, 0.99),
        mp_ratio=st.floats(0.0, 1.0),
        abort_ratio=st.floats(0.0, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_batches_never_split_dependent_transactions(
        self, seed, skew, mp_ratio, abort_ratio
    ):
        """Every TPG dependency edge stays inside one static batch.

        This is the property that makes zero-sync replay sound: a TD/PD/
        LD edge implies a shared record, and transactions sharing a
        record are unioned into the same component.
        """
        workload = GrepSum(
            96,
            list_len=3,
            skew=skew,
            multi_partition_ratio=mp_ratio,
            abort_ratio=abort_ratio,
            num_partitions=3,
        )
        events = workload.generate(120, seed=seed)
        txns = preprocess(events, workload, 0)
        component_of, _accesses = static_batches(txns)
        tpg = build_tpg(txns)
        for dst, sources in txn_level_deps(tpg).items():
            for src in sources:
                assert component_of[src] == component_of[dst], (
                    f"dependency {src} -> {dst} crosses batches "
                    f"{component_of[src]} / {component_of[dst]}"
                )

    def test_disjoint_components_touch_disjoint_records(self, gs):
        """Transactions in different batches share no state records."""
        events = gs.generate(160, seed=11)
        txns = preprocess(events, gs, 0)
        component_of, _ = static_batches(txns)
        refs_by_component = {}
        for txn in txns:
            refs_by_component.setdefault(
                component_of[txn.txn_id], set()
            ).update(txn_refs(txn))
        seen = set()
        for refs in refs_by_component.values():
            assert not (refs & seen)
            seen |= refs


#: The benchmark's inputs (bench/cases.py), each at its own state size
#: and skew: GS collapses into one component, GS_BIG and TP split into
#: hundreds, SL sits between.
_INPUTS = {
    "SL": lambda: StreamingLedger(
        512, transfer_ratio=0.5, multi_partition_ratio=0.2, skew=0.6
    ),
    "GS": lambda: GrepSum(
        1024, list_len=8, skew=0.95, multi_partition_ratio=0.5, abort_ratio=0.05
    ),
    "GS_BIG": lambda: GrepSum(
        65536, list_len=4, skew=0.2, multi_partition_ratio=0.5, abort_ratio=0.0
    ),
    "TP": lambda: TollProcessing(256, skew=0.6, capacity=10),
}


def assert_matches_the_frozen_union_find(txns):
    live = static_batches(txns)
    frozen = reference_static_batches(txns)
    # Items, not dict equality: ``_batch_tasks`` sums the component
    # weights in this dict's insertion order.
    assert list(live[0].items()) == list(frozen[0].items())
    assert live[1] == frozen[1]


class TestAgainstTheFrozenUnionFind:
    @given(
        name=st.sampled_from(sorted(_INPUTS)),
        seed=st.integers(0, 10_000),
        size=st.integers(1, 512),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_benchmark_inputs(self, name, seed, size):
        workload = _INPUTS[name]()
        assert_matches_the_frozen_union_find(
            preprocess(workload.generate(size, seed), workload, 0)
        )

    @given(
        seed=st.integers(0, 10_000),
        size=st.integers(1, 300),
        num_keys=st.integers(8, 400),
        skew=st.floats(0.0, 0.99),
        max_ops=st.integers(1, 5),
        max_conditions=st.integers(1, 3),
        condition_ratio=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_synthetic_shapes(
        self, seed, size, num_keys, skew, max_ops, max_conditions, condition_ratio
    ):
        workload = SyntheticWorkload(
            num_keys,
            skew=skew,
            max_ops=max_ops,
            max_conditions=max_conditions,
            condition_ratio=condition_ratio,
        )
        assert_matches_the_frozen_union_find(
            preprocess(workload.generate(size, seed), workload, 0)
        )

    @pytest.mark.parametrize(
        "sizes", [(30, 10), (10, 30), (5, 40, 20), (40, 5, 20), (25, 25, 25)]
    )
    def test_a_late_transaction_bridges_large_components(self, sizes):
        """Chains of ``sizes`` records grow apart, a singleton sits
        after each, and the last transaction but one reads one record of
        every chain: each chain's label is merged into the largest (the
        relabel path), with the largest chain first, last, in the
        middle, and tied."""
        txns = []

        def touch(write, *reads):
            txn_id = len(txns)
            op = Operation(txn_id, txn_id, txn_id, write, "deposit", (1.0,), reads)
            event = Event(txn_id, "m", ())
            txns.append(Transaction(txn_id, txn_id, event, (op,)))

        for chain, size in enumerate(sizes):
            table = f"chain{chain}"
            touch(StateRef(table, 0))
            for index in range(1, size):
                touch(StateRef(table, index), StateRef(table, index - 1))
            touch(StateRef("alone", chain))
        touch(
            StateRef("bridge", 0),
            *[StateRef(f"chain{chain}", size // 2) for chain, size in enumerate(sizes)],
        )
        touch(StateRef("alone", len(sizes)))
        assert_matches_the_frozen_union_find(txns)
        component_of, _ = static_batches(txns)
        assert component_of[len(txns) - 2] == 0
        assert len(set(component_of.values())) == len(sizes) + 2


class TestPacmanRecovery:
    def test_beats_wal_2x_on_low_dependency_workload(self):
        """Acceptance criterion: >= 2x over WAL at 4 workers, bit-exact."""
        workload = low_dep_gs()
        wal_scheme, wal_report, events = run_recovery(WriteAheadLog, workload)
        pac_scheme, pac_report, _ = run_recovery(WALPacman, workload)
        expected, _txns, _outcome = serial_ground_truth(workload, events)
        assert wal_scheme.store.equals(expected)
        assert pac_scheme.store.equals(expected), pac_scheme.store.diff(
            expected, 5
        )
        speedup = wal_report.elapsed_seconds / pac_report.elapsed_seconds
        assert speedup >= 2.0, f"PACMAN only {speedup:.2f}x over WAL"

    def test_exact_on_dependency_heavy_workload(self, workload):
        """Skew/aborts collapse the batches but never break exactness."""
        scheme, report, events = run_recovery(
            WALPacman, workload, num_workers=3
        )
        expected, _txns, _outcome = serial_ground_truth(workload, events)
        assert scheme.store.equals(expected), scheme.store.diff(expected, 5)
        assert len(scheme.sink) == len(events)
        assert not report.degraded()

    def test_zero_explore_in_batch_mode(self):
        """PACMAN's core trade: analysis up front, no runtime dependency
        checks during redo — Explore stays zero where WAL-style replay
        schemes pay it per dependency."""
        _, report, _ = run_recovery(WALPacman, low_dep_gs())
        assert report.buckets.get(buckets.EXPLORE, 0.0) == 0.0
        assert report.buckets.get(buckets.CONSTRUCT, 0.0) > 0.0


class TestWalSortCharge:
    def test_sort_charge_totals_exactly_one_merge(self):
        """Regression pin for the sort double-charge.

        The k-way merge costs ``n * log2(k)`` comparisons *total*; the
        old model charged every core the per-participant share
        (``spend_all`` of ``sort/min(4, nw)``), inflating the RELOAD
        CPU by ``nw / min(4, nw)``.  Diffing the RELOAD breakdown
        between the default cost model and one with free sorting
        isolates the sort charge exactly.
        """
        workload = low_dep_gs()  # abort-free: every command is logged
        num_workers = 8
        _, priced, _ = run_recovery(
            WriteAheadLog, workload, num_workers=num_workers
        )
        _, free, _ = run_recovery(
            WriteAheadLog,
            workload,
            num_workers=num_workers,
            costs=replace(DEFAULT_COSTS, sort_per_element=0.0),
        )
        assert priced.epochs_replayed == free.epochs_replayed
        n = EPOCH_LEN  # committed commands per epoch (no aborts)
        sort_cpu_per_epoch = (
            DEFAULT_COSTS.sort_per_element * n * math.log2(num_workers)
        )
        # bucket_breakdown reports per-core seconds: total CPU / cores.
        expected_diff = (
            priced.epochs_replayed * sort_cpu_per_epoch / num_workers
        )
        measured_diff = priced.buckets[buckets.RELOAD] - free.buckets[
            buckets.RELOAD
        ]
        assert measured_diff == pytest.approx(expected_diff, rel=1e-9)

    def test_single_worker_sorts_for_free(self):
        workload = low_dep_gs()
        scheme = WriteAheadLog(workload, num_workers=1)
        assert scheme._sort_seconds(500) == 0.0
        scheme = WriteAheadLog(workload, num_workers=4)
        assert scheme._sort_seconds(1) == 0.0
        assert scheme._sort_seconds(100) == pytest.approx(
            DEFAULT_COSTS.sort_per_element * 100 * 2.0
        )
