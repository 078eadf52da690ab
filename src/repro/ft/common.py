"""Shared helpers for transaction-granularity log replay (DL and LV).

DistDGCC and Taurus both recover at *transaction* granularity: a
transaction replays once every transaction it depends on has replayed.
These helpers lift the operation-level TPG to a transaction-level DAG
and translate it into costed simulator tasks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.engine.execution import txn_op_costs
from repro.engine.serial import SerialOutcome
from repro.engine.tpg import TaskPrecedenceGraph
from repro.engine.transactions import Transaction
from repro.sim.costs import CostModel
from repro.sim.executor import SimTask


def txn_level_deps(tpg: TaskPrecedenceGraph) -> Dict[int, Tuple[int, ...]]:
    """Transaction-level dependency sets lifted from operation edges.

    A transaction depends on every distinct earlier transaction that one
    of its operations TD/PD-depends on (LD edges are internal to a
    transaction and vanish at this granularity).
    """
    deps: Dict[int, Tuple[int, ...]] = {}
    for txn in tpg.txns:
        found = set()
        for op in txn.ops:
            for uid in tpg.dependencies(op):
                src_txn = tpg.op_by_uid[uid].txn_id
                if src_txn != txn.txn_id:
                    found.add(src_txn)
        deps[txn.txn_id] = tuple(sorted(found))
    return deps


def build_txn_tasks(
    tpg: TaskPrecedenceGraph,
    deps: Dict[int, Tuple[int, ...]],
    outcome: SerialOutcome,
    costs: CostModel,
    worker_of_txn: Callable[[Transaction], int],
    explore_per_dep: float = 0.0,
    extra_fn: Callable[[int, Tuple[int, ...]], Tuple[Tuple[str, float], ...]] = None,
) -> List[SimTask]:
    """One :class:`SimTask` per transaction, wired by txn-level deps.

    Task uid equals the transaction id; the task runs on
    ``worker_of_txn(txn)`` and waits for ``deps[txn_id]``, the caller's
    :func:`txn_level_deps` of ``tpg``.  ``extra_fn(txn_id, deps)``
    contributes a scheme's per-transaction overhead components (e.g. the
    LSN vector check of Taurus, whose cost depends on how many
    dependencies the vector encodes).
    """
    tasks: List[SimTask] = []
    for txn in tpg.txns:
        seconds = sum(txn_op_costs(txn, tpg, outcome, costs))
        txn_deps = deps[txn.txn_id]
        extra = list(extra_fn(txn.txn_id, txn_deps)) if extra_fn else []
        if explore_per_dep and txn_deps:
            extra.append(("explore", explore_per_dep * len(txn_deps)))
        tasks.append(
            SimTask(
                uid=txn.txn_id,
                worker=worker_of_txn(txn),
                cost=seconds,
                deps=txn_deps,
                extra=tuple(extra),
            )
        )
    return tasks
