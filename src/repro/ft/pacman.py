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
2. the static key-access analysis: which transactions share a record
   (read, write or condition ref), directly or transitively.  Virtual
   time charges the paper's union-find, one ``static_analysis_access``
   probe per distinct record access, to Construct; the code finds the
   same components by merging record labels (``static_batches``);
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


def static_batches(txns: Sequence[Transaction]) -> Tuple[Dict[int, int], int]:
    """PACMAN's static key-access analysis over a sorted command log.

    Transactions sharing any record, directly or transitively, land in
    the same connected component.  Returns ``(component_of_txn,
    accesses)``: ``component_of_txn`` is keyed in ``txns`` order and its
    components are numbered densely in the order of each component's
    first transaction; ``accesses`` is the number of distinct records
    each transaction touches (writes, reads, condition refs), summed —
    the union-find probes the paper's analysis performs, for costing.

    The code finds the same components without a union-find: every
    record carries a label, and a transaction whose footprint spans
    several labels merges them, smaller member list into larger, so a
    record is relabelled O(log n) times at most.  Each transaction is
    labelled at the end through its first write.
    """
    label_of: Dict[StateRef, int] = {}
    members: Dict[int, List[StateRef]] = {}
    anchors: List[StateRef] = []
    accesses = 0
    for txn in txns:
        ops = txn.ops
        refs = {op.ref for op in ops}
        for op in ops:
            if op.reads:
                refs.update(op.reads)
        for cond in txn.conditions:
            refs.update(cond.refs)
        accesses += len(refs)
        anchors.append(ops[0].ref)

        labels = set(map(label_of.get, refs))
        if len(labels) == 1:
            label = labels.pop()
            if label is not None:
                continue  # the whole footprint already shares a label
            label = len(label_of)  # label_of only grows: never a used label
            members[label] = fresh = list(refs)
        else:
            labels.discard(None)
            fresh = [ref for ref in refs if ref not in label_of]
            label = labels.pop()
            for other in labels:
                if len(members[other]) > len(members[label]):
                    label, other = other, label
                moved = members.pop(other)
                members[label] += moved
                label_of.update(dict.fromkeys(moved, label))
            members[label] += fresh
        label_of.update(dict.fromkeys(fresh, label))

    final = list(map(label_of.__getitem__, anchors))
    component_of_label = dict(zip(dict.fromkeys(final), itertools.count()))
    component_of_txn = dict(
        zip(
            [txn.txn_id for txn in txns],
            map(component_of_label.__getitem__, final),
        )
    )
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

        # Virtual time is bit-reproducible, so each float sum keeps its
        # order: a transaction's operations, then each component's
        # transactions in log order (``component_of_txn``'s order).
        num_components = max(component_of_txn.values(), default=-1) + 1
        weights = [0.0] * num_components
        txn_costs: List[float] = []
        for txn, component in zip(tpg.txns, component_of_txn.values()):
            cost = sum(txn_op_costs(txn, tpg, outcome, costs))
            txn_costs.append(cost)
            weights[component] += cost
        assignment, _loads = lpt_assign(weights, self.num_workers)
        machine.spend_parallel(
            buckets.CONSTRUCT,
            itertools.repeat(costs.task_dispatch, num_components),
        )

        tasks: List[SimTask] = []
        last_in_component: Dict[int, int] = {}
        for txn, component, cost in zip(
            tpg.txns, component_of_txn.values(), txn_costs
        ):
            prev = last_in_component.get(component)
            tasks.append(
                SimTask(
                    txn.txn_id,
                    assignment[component],
                    cost,
                    (prev,) if prev is not None else (),
                    buckets.EXECUTE,
                    (),
                    component,
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
