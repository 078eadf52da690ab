"""PACMAN-style parallel command-log redo (Wu et al., VLDB'17).

"Fast Failure Recovery for Main-Memory DBMSs on Multicores" showed that
a command log does not force sequential redo: a *static* analysis over
the sorted log — which records does each transaction touch? — partitions
it into batches that share no records, and batches replay on all cores
with no synchronization at all.  Transactions inside a batch replay in
timestamp order; transactions in different batches commute.

``WALPacman`` keeps WAL's runtime path byte-for-byte (same command
records, same "wal" stream, same group commit), so Fig. 12's runtime
overheads are identical — only recovery changes:

1. read + globally sort the command log (same merge-sort charge as WAL);
2. one linear pass of union-find over each transaction's record
   accesses (reads, writes, condition refs) — the static key-access
   analysis, charged to Construct;
3. connected components become batches; batches are LPT-packed onto
   workers and replayed in parallel, each batch strictly sequential
   internally.

Because every TPG edge (TD/PD/LD) implies a shared record, dependent
transactions always land in the same batch — the replay needs no
runtime dependency checks, which is PACMAN's core trade: analysis cost
up front for zero Explore cost during redo.  The weakness survives too:
under skew the components collapse into one giant batch and redo is
sequential again (the regime where MSR's restructuring wins).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

from repro import buckets
from repro.core.assignment import lpt_assign
from repro.engine.events import Event
from repro.engine.execution import execute_tpg, preprocess, txn_op_costs
from repro.engine.refs import StateRef
from repro.engine.state import StateStore
from repro.engine.tpg import TaskPrecedenceGraph, build_tpg
from repro.engine.transactions import Transaction
from repro.ft.wal import WriteAheadLog
from repro.sim.clock import Machine
from repro.sim.executor import ParallelExecutor, SimTask


def txn_refs(txn: Transaction) -> List[StateRef]:
    """Every record a transaction touches, sorted and deduplicated:
    operation writes, operation reads, and condition refs — the full
    read/write footprint PACMAN's static analysis inspects."""
    refs = set()
    for op in txn.ops:
        refs.add(op.ref)
        refs.update(op.reads)
    for cond in txn.conditions:
        refs.update(cond.refs)
    return sorted(refs)


def static_batches(txns: Sequence[Transaction]) -> Tuple[Dict[int, int], int]:
    """PACMAN's static key-access analysis over a sorted command log.

    Union-find over state records: all records touched by one
    transaction are unioned, so transactions sharing any record
    (directly or transitively) end up in the same connected component.
    Returns ``(component_of_txn, accesses)`` where components are
    numbered densely in order of first appearance (deterministic) and
    ``accesses`` counts the union-find probes performed, for costing.
    """
    parent: Dict[StateRef, StateRef] = {}

    def find(ref: StateRef) -> StateRef:
        root = ref
        while parent[root] != root:
            root = parent[root]
        while parent[ref] != root:
            parent[ref], ref = root, parent[ref]
        return root

    accesses = 0
    footprints: List[List[StateRef]] = []
    for txn in txns:
        refs = txn_refs(txn)
        footprints.append(refs)
        accesses += len(refs)
        for ref in refs:
            parent.setdefault(ref, ref)
        first = refs[0]
        for ref in refs[1:]:
            ra, rb = find(first), find(ref)
            if ra != rb:
                parent[rb] = ra

    component_of_txn: Dict[int, int] = {}
    component_ids: Dict[StateRef, int] = {}
    for txn, refs in zip(txns, footprints):
        root = find(refs[0])
        if root not in component_ids:
            component_ids[root] = len(component_ids)
        component_of_txn[txn.txn_id] = component_ids[root]
    return component_of_txn, accesses


class WALPacman(WriteAheadLog):
    """Command logging with PACMAN-parallel redo via static analysis."""

    name = "PACMAN"

    def _batch_tasks(
        self,
        machine: Machine,
        tpg: TaskPrecedenceGraph,
        outcome,
    ) -> List[SimTask]:
        """One task per transaction, chained inside its static batch.

        Batches share no records, so there are no cross-batch edges and
        replay pays zero Explore/sync cost; each batch is pinned to one
        worker (LPT on total execution weight) and its transactions
        replay strictly in timestamp order.
        """
        costs = self.costs
        component_of_txn, accesses = static_batches(tpg.txns)
        # The analysis is one union-find probe per record access, done
        # in parallel over the sorted log before replay starts.
        machine.spend_parallel(
            buckets.CONSTRUCT,
            itertools.repeat(costs.static_analysis_access, accesses),
        )

        txn_cost = {
            txn.txn_id: sum(txn_op_costs(txn, tpg, outcome, costs))
            for txn in tpg.txns
        }
        num_components = max(component_of_txn.values(), default=-1) + 1
        weights = [0.0] * num_components
        for txn_id, component in component_of_txn.items():
            weights[component] += txn_cost[txn_id]
        assignment, _loads = lpt_assign(weights, self.num_workers)
        machine.spend_parallel(
            buckets.CONSTRUCT,
            itertools.repeat(costs.task_dispatch, num_components),
        )

        tasks: List[SimTask] = []
        last_in_component: Dict[int, int] = {}
        for txn in tpg.txns:
            component = component_of_txn[txn.txn_id]
            prev = last_in_component.get(component)
            tasks.append(
                SimTask(
                    uid=txn.txn_id,
                    worker=assignment[component],
                    cost=txn_cost[txn.txn_id],
                    deps=(prev,) if prev is not None else (),
                    bucket=buckets.EXECUTE,
                    group=component,
                )
            )
            last_in_component[component] = txn.txn_id
        return tasks

    def _recover_epoch(
        self,
        machine: Machine,
        executor: ParallelExecutor,
        store: StateStore,
        epoch_id: int,
        events: Sequence[Event],
    ) -> List[Tuple[int, tuple]]:
        costs = self.costs
        commands = self._read_commands(machine, epoch_id).events

        # Same global merge sort as WAL: the log is still command-only
        # and group-committed by independent workers.
        self._charge_sort(machine, self._sort_seconds(len(commands)))
        commands.sort(key=lambda e: e.seq)

        txns = preprocess(commands, self.workload, 0)
        machine.spend_parallel(
            buckets.EXECUTE, [costs.preprocess_event] * len(commands)
        )
        tpg = build_tpg(txns)
        outcome = execute_tpg(store, tpg)

        tasks = self._batch_tasks(machine, tpg, outcome)
        executor.run(tasks)
        machine.spend_parallel(
            buckets.EXECUTE, [costs.postprocess_event] * len(txns)
        )
        return self._make_outputs(txns, outcome)
