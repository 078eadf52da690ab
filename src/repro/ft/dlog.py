"""DL: DistDGCC-style fine-grained dependency logging [23].

Runtime: every committed transaction's log record carries its command
*plus* the incoming and outgoing dependency edges of each of its state
access operations — the graph is logged at *operation* granularity
("fine-grained dependency graphs"), so record size grows linearly with
the number of dependencies.  That is the computation and storage
overhead §III-B calls out for workloads with complex dependencies.

Recovery: the operation-level dependency graph is first *reconstructed*
from the log records (decode + hash probes on cold data — the dominant
Construct time of Fig. 11, which the paper found costlier than simply
reprocessing events), then transactions replay in parallel constrained
by the reconstructed edges.  Parallelism is bounded by the workload's
inherent dependency structure.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Sequence, Tuple

from repro import buckets
from repro.engine.events import Event
from repro.engine.execution import execute_tpg, preprocess
from repro.engine.state import StateStore
from repro.engine.tpg import TaskPrecedenceGraph, build_tpg
from repro.errors import CorruptSegmentError
from repro.ft.base import EpochContext, FTScheme
from repro.ft.common import build_txn_tasks, txn_level_deps
from repro.sim.clock import Machine
from repro.sim.executor import ParallelExecutor

#: Log-store stream name for dependency-log records.
STREAM = "dlog"


def _op_edges(tpg: TaskPrecedenceGraph) -> Dict[int, List[int]]:
    """Operation-level incoming-dependency lists (TD + PD + LD)."""
    return {op.uid: tpg.dependencies(op) for op in tpg.ops}


class DependencyLogging(FTScheme):
    """Command + per-operation edge logging; graph rebuild before replay."""

    name = "DL"
    replays_from_events = False
    log_streams = (STREAM,)

    def _on_epoch(self, ctx: EpochContext) -> None:
        tpg = ctx.tpg
        aborted = ctx.outcome.aborted
        in_edges = _op_edges(tpg)
        out_edges: Dict[int, List[int]] = {op.uid: [] for op in tpg.ops}
        for uid, deps in in_edges.items():
            for src in deps:
                out_edges[src].append(uid)

        records = []
        tracked_edges = 0
        for txn in ctx.txns:
            if txn.txn_id in aborted:
                continue
            sides = [edges[op.uid] for op in txn.ops for edges in (in_edges, out_edges)]
            uids = [*chain.from_iterable(sides)]
            records.append((len(txn.ops), *map(len, sides), *uids))
            tracked_edges += len(uids)

        self.charge_tracking(
            [self.costs.log_record_append] * len(records)
            + [self.costs.track_dependency] * tracked_edges
        )
        # Dependency logs flush synchronously before the epoch commits:
        # each command's row, and in the tail its edge record: each operation's
        # in- and out-edge counts, then those uids, ``(n_ops, in_0, out_0, ..., *uids)``.
        self._commit_commands(ctx, self._committed_commands(ctx), tuple(records))

    def _recover_epoch(
        self,
        machine: Machine,
        executor: ParallelExecutor,
        store: StateStore,
        epoch_id: int,
        events: Sequence[Event],
    ) -> List[Tuple[int, tuple]]:
        costs = self.costs
        commands, logged_records = self._read_commands(machine, epoch_id)
        logged_ops = logged_edges = 0
        for index, record in enumerate(logged_records):
            n_ops = record[0] if record else -1
            counts = record[1 : 1 + 2 * n_ops]
            edges = sum(counts)
            if min((n_ops, *counts)) < 0 or len(record) != 1 + 2 * n_ops + edges:
                raise CorruptSegmentError(
                    f"log stream {STREAM!r} epoch {epoch_id} record {index} is no edge record"
                )
            logged_ops += n_ops
            logged_edges += edges

        # Reconstruct the fine-grained dependency graph from the log
        # records — this is DL's recovery bottleneck (§III-B).
        machine.spend_parallel(
            buckets.CONSTRUCT, [costs.rebuild_node] * logged_ops
        )
        machine.spend_parallel(
            buckets.CONSTRUCT, [costs.rebuild_edge] * logged_edges
        )

        txns = preprocess(commands, self.workload, 0)
        machine.spend_parallel(
            buckets.EXECUTE, [costs.preprocess_event] * len(commands)
        )
        tpg = build_tpg(txns)
        outcome = execute_tpg(store, tpg)
        # Replay is partitioned like execution: a transaction replays on
        # the worker owning its validator's partition.
        tasks = build_txn_tasks(
            tpg,
            txn_level_deps(tpg),
            outcome,
            costs,
            worker_of_txn=self.worker_of_txn,
            explore_per_dep=costs.explore_dependency,
        )
        executor.run(tasks)
        machine.spend_parallel(
            buckets.EXECUTE, [costs.postprocess_event] * len(txns)
        )
        return self._make_outputs(txns, outcome)
