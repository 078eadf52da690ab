"""Hand-computed virtual-time checks for tiny crafted scenarios.

These tests pin the accounting semantics: for a scenario small enough
to compute by hand, the simulator must produce exactly the predicted
numbers.  They protect the cost model's *meaning* (what gets charged
where) against accidental refactors, independently of calibration.
"""

from __future__ import annotations

import pytest

from repro.engine.events import Event
from repro.engine.execution import build_op_tasks, execute_tpg
from repro.engine.operations import Condition, Operation
from repro.engine.refs import StateRef
from repro.engine.state import StateStore
from repro.engine.tpg import build_tpg
from repro.engine.transactions import Transaction
from repro.ft.common import build_txn_tasks, txn_level_deps
from repro.sim.clock import Machine
from repro.sim.costs import CostModel
from repro.sim.executor import ParallelExecutor

A = StateRef("t", "A")
B = StateRef("t", "B")

#: Round numbers make hand computation trivial.
COSTS = CostModel(
    state_access=1.0,
    udf=0.5,
    condition_check=0.25,
    sync_handoff=10.0,
    remote_fetch=0.0,
    explore_dependency=0.0,
    abort_transaction=2.0,
)


def deposit_txn(txn_id, ref, uid):
    op = Operation(uid, txn_id, txn_id, ref, "deposit", (1.0,))
    return Transaction(txn_id, txn_id, Event(txn_id, "d", ()), (op,))


def reader_txn(txn_id, ref, read_ref, uid):
    op = Operation(
        uid, txn_id, txn_id, ref, "credit_from", (1.0,), (read_ref,)
    )
    return Transaction(txn_id, txn_id, Event(txn_id, "r", ()), (op,))


class TestOpTaskTiming:
    def _run(self, txns, worker_of):
        store = StateStore({"t": {"A": 5.0, "B": 5.0}})
        tpg = build_tpg(txns)
        outcome = execute_tpg(store, tpg)
        tasks = build_op_tasks(tpg, outcome, COSTS, worker_of)
        machine = Machine(2)
        executor = ParallelExecutor(machine, COSTS.sync_handoff)
        result = executor.run(tasks)
        return machine, result

    def test_independent_deposits_on_two_workers(self):
        # Each deposit: 1 write access (1.0) + udf (0.5) = 1.5.
        txns = [deposit_txn(0, A, 0), deposit_txn(1, B, 1)]
        machine, result = self._run(
            txns, lambda ref: 0 if ref.key == "A" else 1
        )
        assert result.makespan == pytest.approx(1.5)
        assert machine.cores[0].spent("execute") == pytest.approx(1.5)
        assert machine.cores[1].spent("execute") == pytest.approx(1.5)

    def test_td_chain_serializes_on_one_worker(self):
        txns = [deposit_txn(0, A, 0), deposit_txn(1, A, 1)]
        machine, result = self._run(txns, lambda ref: 0)
        # Two ops in sequence on worker 0: 3.0 total; no sync.
        assert result.makespan == pytest.approx(3.0)
        assert result.cross_worker_edges == 0

    def test_cross_worker_pd_pays_latency(self):
        # txn1 writes A on worker 0; txn2 on worker 1 reads A.
        txns = [deposit_txn(0, A, 0), reader_txn(1, B, A, 1)]
        machine, result = self._run(
            txns, lambda ref: 0 if ref.key == "A" else 1
        )
        # Reader: own write + one read = 2 accesses (2.0) + udf (0.5),
        # starting at 1.5 (producer) + 10.0 (sync) = 11.5; ends 14.0.
        assert result.finish[1] == pytest.approx(14.0)
        assert machine.cores[1].spent("wait") == pytest.approx(11.5)

    def test_same_worker_pd_is_free(self):
        txns = [deposit_txn(0, A, 0), reader_txn(1, B, A, 1)]
        _machine, result = self._run(txns, lambda ref: 0)
        # 1.5 (producer) + 2.5 (reader) with no sync.
        assert result.makespan == pytest.approx(4.0)

    def test_condition_charges_validator(self):
        cond = Condition("ge", (A,), (0.0,))
        op = Operation(0, 0, 0, B, "deposit", (1.0,))
        txn = Transaction(0, 0, Event(0, "c", ()), (op,), (cond,))
        store = StateStore({"t": {"A": 5.0, "B": 5.0}})
        tpg = build_tpg([txn])
        outcome = execute_tpg(store, tpg)
        tasks = build_op_tasks(tpg, outcome, COSTS, lambda ref: 0)
        # write (1.0) + udf (0.5) + cond-ref access (1.0) + check (0.25).
        assert tasks[0].cost == pytest.approx(2.75)

    def test_aborted_transaction_charges_visit_plus_rollback(self):
        cond = Condition("never", (), ())
        op = Operation(0, 0, 0, B, "deposit", (1.0,))
        txn = Transaction(0, 0, Event(0, "x", ()), (op,), (cond,))
        store = StateStore({"t": {"A": 5.0, "B": 5.0}})
        tpg = build_tpg([txn])
        outcome = execute_tpg(store, tpg)
        tasks = build_op_tasks(tpg, outcome, COSTS, lambda ref: 0)
        op_task = next(t for t in tasks if t.uid == 0)
        abort_task = next(t for t in tasks if t.uid < 0)
        # Visit (1.0, no udf) + condition check (0.25); rollback 2.0.
        assert op_task.cost == pytest.approx(1.25)
        assert abort_task.cost == pytest.approx(2.0)
        assert abort_task.bucket == "abort"


class TestTxnTaskTiming:
    def test_txn_cost_is_sum_of_op_costs(self):
        txns = [deposit_txn(0, A, 0), reader_txn(1, B, A, 1)]
        store = StateStore({"t": {"A": 5.0, "B": 5.0}})
        tpg = build_tpg(txns)
        outcome = execute_tpg(store, tpg)
        tasks = build_txn_tasks(
            tpg, txn_level_deps(tpg), outcome, COSTS, lambda txn: 0
        )
        by_uid = {t.uid: t for t in tasks}
        assert by_uid[0].cost == pytest.approx(1.5)
        assert by_uid[1].cost == pytest.approx(2.5)

    def test_txn_level_deps_lift_op_edges(self):
        txns = [
            deposit_txn(0, A, 0),
            deposit_txn(1, B, 1),
            reader_txn(2, B, A, 2),  # PD on txn 0, TD on txn 1
        ]
        tpg = build_tpg(txns)
        deps = txn_level_deps(tpg)
        assert deps[0] == ()
        assert deps[1] == ()
        assert deps[2] == (0, 1)

    def test_ld_edges_vanish_at_txn_granularity(self):
        ops = (
            Operation(0, 0, 0, A, "deposit", (1.0,)),
            Operation(1, 0, 0, B, "deposit", (1.0,)),
        )
        txn = Transaction(0, 0, Event(0, "m", ()), ops)
        deps = txn_level_deps(build_tpg([txn]))
        assert deps[0] == ()


class TestBarrierAccounting:
    def test_epoch_barrier_charges_stragglers(self):
        machine = Machine(3)
        machine.cores[0].spend("execute", 9.0)
        machine.cores[1].spend("execute", 3.0)
        machine.barrier("wait")
        assert machine.cores[1].spent("wait") == pytest.approx(6.0)
        assert machine.cores[2].spent("wait") == pytest.approx(9.0)
        # Per-core breakdown sums to the makespan.
        breakdown = machine.bucket_breakdown()
        assert sum(breakdown.values()) == pytest.approx(machine.elapsed())
