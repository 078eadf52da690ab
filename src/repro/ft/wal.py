"""WAL: command logging with sequential redo (§III-B).

Runtime: the command (the triggering event) of every *committed*
transaction is group-committed per epoch — command logging keeps
records small and "lowers the pressure on I/O" [22].

Recovery: command logs from all workers must first be merged into one
global timestamp order (the paper found this sorting dominates WAL's
Reload time), then redone strictly sequentially on a single worker —
every other worker idles, which is why WAL shows by far the largest
Wait component in Fig. 11.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro import buckets
from repro.engine.events import Event
from repro.engine.execution import preprocess, txn_op_costs
from repro.engine.state import StateStore
from repro.engine.tpg import build_tpg
from repro.engine.serial import execute_serial
from repro.ft.base import EpochContext, FTScheme
from repro.sim.clock import Machine
from repro.sim.executor import ParallelExecutor

#: Log-store stream name for WAL command records.
STREAM = "wal"


class WriteAheadLog(FTScheme):
    """Command logging; redo is a global sort plus a sequential replay."""

    name = "WAL"
    replays_from_events = False
    log_streams = (STREAM,)

    #: Effective parallelism of the k-way merge: the final merge pass is
    #: sequential, so adding cores beyond this stops helping
    #: (docs/cost-model.md, "parallelism capped at 4").
    SORT_PARALLELISM = 4

    def _sort_seconds(self, n: int) -> float:
        """Total comparison work of the global k-way merge, in seconds.

        A k-way merge of the k per-worker runs costs n*log2(k)
        comparisons; a single worker keeps one already-ordered stream
        and pays nothing.
        """
        if n <= 1 or self.num_workers <= 1:
            return 0.0
        return self.costs.sort_per_element * n * math.log2(self.num_workers)

    def _charge_sort(self, machine: Machine, sort_seconds: float) -> None:
        """Charge the merge sort to the cores that actually perform it.

        Only ``min(SORT_PARALLELISM, num_cores)`` cores participate,
        splitting the comparison work evenly; the rest idle and absorb
        the gap as WAIT at the next barrier.  Total CPU charged equals
        ``sort_seconds`` exactly.  (An earlier model charged every core
        the per-participant share via ``spend_all``, inflating the
        RELOAD total by ``num_cores / min(4, num_cores)`` while leaving
        the makespan unchanged.)
        """
        if sort_seconds <= 0.0:
            return
        participants = min(self.SORT_PARALLELISM, machine.num_cores)
        share = sort_seconds / participants
        for core in machine.cores[:participants]:
            core.spend(buckets.RELOAD, share)

    def _on_epoch(self, ctx: EpochContext) -> None:
        commands = self._committed_commands(ctx)
        self.charge_tracking([self.costs.log_record_append] * len(commands))
        # Command logs must be durable before the epoch commits: the
        # flush is on the critical path (no async overlap).  The segment
        # is the commands' rows under one rows header.
        self._commit_commands(ctx, commands)

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

        # Global sort to re-establish a total order over the commands
        # group-committed by independent workers.  The merge parallelizes
        # poorly (the final pass is sequential), so effective parallelism
        # is capped — this is why the paper observed WAL spending the
        # longest time on reloading.
        self._charge_sort(machine, self._sort_seconds(len(commands)))
        commands.sort(key=lambda e: e.seq)

        # Sequential redo: one worker re-executes every committed
        # transaction in timestamp order; the rest idle (wait).
        txns = preprocess(commands, self.workload, 0)
        redo_core = machine.cores[0]
        redo_core.spend(
            buckets.EXECUTE, costs.preprocess_event * len(commands)
        )
        tpg = build_tpg(txns)
        outcome = execute_serial(store, txns)
        for txn in tpg.txns:
            for seconds in txn_op_costs(txn, tpg, outcome, costs):
                redo_core.spend(buckets.EXECUTE, seconds)
        redo_core.spend(buckets.EXECUTE, costs.postprocess_event * len(txns))
        return self._make_outputs(txns, outcome)
