"""MorphStreamR (MSR): fast parallel recovery for TSP (§IV–§VI).

Runtime (§VI-C): besides the base pipeline, every epoch

1. partitions the chain graph (selective logging, §VI-A1) and tracks
   only dependencies crossing partitions;
2. records intermediate results of resolved dependencies — aborted
   transaction ids (AbortView) and cross-partition read values
   (ParametricView) — into the Logging Manager;
3. group-commits the views every ``commit_every`` epochs (the
   Fault-tolerance Manager's commit marker; :class:`FTScheme` places the
   transaction and snapshot markers).

With an :class:`~repro.core.commitment.AdaptiveCommitController`
attached, MSR re-derives the punctuation epoch from the profile of every
processed epoch — the workload-aware commitment of §VI-B.

Recovery (§V-C): for every lost epoch whose views were committed,

1. reload and index the views (steps ③–④ of Fig. 7);
2. *abort pushdown*: discard doomed events before preprocessing (⑤);
3. *operation restructuring*: rebuild surviving operations into
   independent per-record chains, resolving cross-partition reads from
   the ParametricView and leaving intra-partition reads to shadow
   exploration (⑥);
4. *optimized task assignment*: LPT-schedule partition bundles onto
   workers (⑦) and execute with zero cross-worker synchronization.

Every optimization is individually switchable through
:class:`MSROptions` — that is how the factor analysis of Fig. 11d runs.
Epochs whose views were still buffered at the crash (commit interval
greater than one epoch) fall back to full reprocessing, which is the
mechanism behind the commitment trade-off of Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import buckets
from repro.core.abortpushdown import push_down_aborts
from repro.core.assignment import lpt_assign, round_robin_assign
from repro.core.commitment import AdaptiveCommitController, profile_epoch
from repro.core.logmanager import LoggingManager, ViewSegment
from repro.core.partition import build_chain_graph, greedy_partition
from repro.core.restructure import (
    VIEW,
    RestructuredEpoch,
    chains_by_partition,
    restructure_operations,
)
from repro.core.shadow import explore_chains
from repro.core.views import CONDITION_INDEX, AbortView, ParametricView
from repro.engine.events import Event
from repro.engine.execution import preprocess
from repro.engine.functions import state_function
from repro.engine.refs import RefTable, StateRef
from repro.engine.state import StateStore
from repro.engine.transactions import Transaction
from repro.errors import ConfigError
from repro.ft.base import EpochContext, FTScheme
from repro.sim.clock import Machine
from repro.sim.executor import ParallelExecutor, SimTask


@dataclass(frozen=True)
class MSROptions:
    """Feature switches for the factor/ablation studies.

    The Fig. 11d increments correspond to::

        Simple          MSROptions(op_restructure=False,
                                   abort_pushdown=False,
                                   opt_task_assign=False)
        +OpRestructure  MSROptions(abort_pushdown=False,
                                   opt_task_assign=False)
        +AbortPD        MSROptions(opt_task_assign=False)
        +OptTaskAssign  MSROptions()                      # full MSR
    """

    selective_logging: bool = True
    op_restructure: bool = True
    abort_pushdown: bool = True
    opt_task_assign: bool = True
    #: Chain-graph partitions per worker.  More partitions give the
    #: optimized task assignment finer granularity to balance (at the
    #: price of more cross-partition dependencies to log).
    partitions_per_worker: int = 2


class MorphStreamR(FTScheme):
    """The paper's engine: views at runtime, dependency-free recovery."""

    name = "MSR"
    log_streams = ("msr",)

    def __init__(
        self,
        workload,
        *,
        options: MSROptions = MSROptions(),
        commit_every: int = 1,
        controller: Optional[AdaptiveCommitController] = None,
        **kwargs,
    ):
        super().__init__(workload, **kwargs)
        if commit_every < 1:
            raise ConfigError("commit_every must be >= 1")
        if self.snapshot_interval % commit_every:
            raise ConfigError(
                "snapshot_interval must be a multiple of commit_every"
            )
        self.options = options
        self.commit_every = commit_every
        self.controller = controller
        self.lm = LoggingManager(self.disk)

    # ------------------------------------------------------------------
    # runtime
    # ------------------------------------------------------------------

    def _on_epoch(self, ctx: EpochContext) -> None:
        costs = self.costs
        tpg, outcome = ctx.tpg, ctx.outcome

        partition_map = None
        if self.options.selective_logging:
            graph = build_chain_graph(tpg)
            partition_map = greedy_partition(graph, self._num_partitions())
            self.charge_tracking(
                [costs.partition_vertex] * len(graph.vertices)
                + [costs.partition_edge] * len(graph.edges)
            )

        abort_view = AbortView(ctx.epoch_id, frozenset(outcome.aborted))
        pview = ParametricView(ctx.epoch_id)
        recorded = 0
        for txn in ctx.txns:
            validator_ref = txn.ops[0].ref
            for ref, src in tpg.cond_sources.get(txn.txn_id, ()):
                if src is None or self._intra(partition_map, ref, validator_ref):
                    continue
                pview.record(
                    txn.txn_id,
                    CONDITION_INDEX,
                    ref,
                    outcome.cond_values[txn.txn_id][ref],
                )
                recorded += 1
            if txn.txn_id in outcome.aborted:
                continue
            for idx, op in enumerate(txn.ops):
                reads = outcome.read_values[op.uid]
                for ref, src, value in zip(op.reads, tpg.pd_sources[op.uid], reads):
                    if src is None or self._intra(partition_map, ref, op.ref):
                        continue
                    pview.record(txn.txn_id, idx, ref, value)
                    recorded += 1
        self.charge_tracking(
            [costs.view_record] * (recorded + len(abort_view))
        )

        self.lm.stage(
            ViewSegment(ctx.epoch_id, abort_view, pview, partition_map)
        )
        self._note_buffer(self.lm.buffered_bytes)
        if (ctx.epoch_id + 1) % self.commit_every == 0:
            io_s, committed_bytes = self.lm.commit()
            self.charge_runtime_io(io_s, committed_bytes)

        if self.controller is not None:
            spans = sum(
                1 for txn in ctx.txns if self.workload.spans_partitions(txn)
            )
            self.epoch_len = self.controller.recommend(
                profile_epoch(tpg, outcome, spans)
            )

    def _num_partitions(self) -> int:
        return self.num_workers * self.options.partitions_per_worker

    @staticmethod
    def _intra(
        partition_map: Optional[Dict[StateRef, int]],
        from_ref: StateRef,
        to_ref: StateRef,
    ) -> bool:
        """True when a dependency stays inside one partition (unlogged)."""
        if partition_map is None:
            return False
        return partition_map.get(from_ref) == partition_map.get(to_ref)

    def _drop_volatile(self) -> None:
        # Uncommitted view segments lived in volatile memory.
        self.lm.drop_buffer()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def _recover_epoch(
        self,
        machine: Machine,
        executor: ParallelExecutor,
        store: StateStore,
        epoch_id: int,
        events: Sequence[Event],
    ) -> List[Tuple[int, tuple]]:
        costs = self.costs
        opts = self.options
        if not self.lm.has_epoch(epoch_id):
            # Views lost with the crash (long commit interval): this
            # epoch recovers by plain reprocessing, like CKPT.
            return self._compute_epoch(machine, executor, store, events)[3]

        segment, io_s = self.lm.load_epoch(epoch_id)
        machine.spend_all(buckets.RELOAD, io_s)
        index_entries = len(segment.parametric_view) + len(segment.abort_view)
        if segment.partition_map is not None:
            # The logged chain-partition map is part of the intermediate
            # results and must be indexed too — the "more overhead in
            # indexing intermediate results" of §VI-B.
            index_entries += len(segment.partition_map)
        machine.spend_parallel(
            buckets.CONSTRUCT,
            [costs.view_index_entry] * index_entries,
        )

        if not opts.op_restructure:
            return self._recover_simple(machine, executor, store, events, segment)
        return self._recover_restructured(machine, executor, store, events, segment)

    def _recover_simple(
        self,
        machine: Machine,
        executor: ParallelExecutor,
        store: StateStore,
        events: Sequence[Event],
        segment: ViewSegment,
    ) -> List[Tuple[int, tuple]]:
        """The "Simple" baseline of Fig. 11d: full pipeline replay.

        Abort pushdown may still apply (it only needs the AbortView),
        which is the "+AbortPD without restructuring" ablation point.
        """
        if not self.options.abort_pushdown:
            return self._compute_epoch(machine, executor, store, events)[3]
        surviving, _discarded = push_down_aborts(events, segment.abort_view)
        machine.spend_parallel(
            buckets.ABORT, [self.costs.view_lookup] * len(events)
        )
        return self._compute_epoch(
            machine, executor, store, surviving, charge_aborts=False
        )[3]

    def _recover_restructured(
        self,
        machine: Machine,
        executor: ParallelExecutor,
        store: StateStore,
        events: Sequence[Event],
        segment: ViewSegment,
    ) -> List[Tuple[int, tuple]]:
        costs = self.costs
        opts = self.options

        # (⑤) abort handling: either push doomed events down before
        # preprocessing, or pay classic per-transaction abort handling.
        surviving, discarded = push_down_aborts(events, segment.abort_view)
        if opts.abort_pushdown:
            machine.spend_parallel(
                buckets.ABORT, [costs.view_lookup] * len(events)
            )
        else:
            self._charge_classic_aborts(machine, discarded)

        # (⑥) restructuring: preprocess survivors, rebuild chains,
        # classify reads against the *logged* partition map.
        txns = preprocess(surviving, self.workload, 0)
        machine.spend_parallel(
            buckets.EXECUTE, [costs.preprocess_event] * len(surviving)
        )
        restructured = restructure_operations(txns, segment.partition_map)
        machine.spend_parallel(
            buckets.CONSTRUCT,
            [costs.construct_node] * len(restructured.tpg.ops),
        )
        if not opts.abort_pushdown:
            self._charge_committed_condition_checks(machine, txns)

        # (⑦) task assignment over partition bundles.
        bundles = chains_by_partition(
            restructured, segment.partition_map, self._num_partitions()
        )
        weights = [float(sum(map(len, bundle))) for bundle in bundles]
        if opts.opt_task_assign:
            assignment, _loads = lpt_assign(weights, self.num_workers)
        else:
            assignment, _loads = round_robin_assign(weights, self.num_workers)
        machine.spend_parallel(
            buckets.CONSTRUCT, [costs.task_dispatch] * len(bundles)
        )

        op_values = self._execute_restructured(
            machine, executor, store, restructured, segment, bundles, assignment
        )
        machine.spend_parallel(
            buckets.EXECUTE, [costs.postprocess_event] * len(surviving)
        )
        return [
            (txn.event.seq, self.workload.output_for(txn, True, op_values))
            for txn in txns
        ]

    def _charge_classic_aborts(
        self, machine: Machine, discarded: Sequence[Event]
    ) -> None:
        """Cost of handling aborts without pushdown (ablation mode).

        Each doomed event is still preprocessed, its conditions resolved
        (through the views) and checked, its operations visited, and the
        transaction rolled back.
        """
        costs = self.costs
        items = []
        refs = RefTable()
        for event in discarded:
            txn = self.workload.build_transaction(event, 0, refs)
            cond_refs = sum(len(c.refs) for c in txn.conditions)
            items.append(
                costs.preprocess_event
                + cond_refs * costs.view_lookup
                + len(txn.conditions) * costs.condition_check
                + len(txn.ops) * costs.state_access
                + costs.abort_transaction
            )
        machine.spend_parallel(buckets.ABORT, items)

    def _charge_committed_condition_checks(
        self, machine: Machine, txns: Sequence[Transaction]
    ) -> None:
        """Without pushdown, surviving transactions also re-verify."""
        costs = self.costs
        items = []
        for txn in txns:
            if not txn.conditions:
                continue
            cond_refs = sum(len(c.refs) for c in txn.conditions)
            items.append(
                cond_refs * costs.view_lookup
                + len(txn.conditions) * costs.condition_check
            )
        machine.spend_parallel(buckets.ABORT, items)

    def _execute_restructured(
        self,
        machine: Machine,
        executor: ParallelExecutor,
        store: StateStore,
        restructured: RestructuredEpoch,
        segment: ViewSegment,
        bundles,
        assignment: Sequence[int],
    ) -> Dict[int, float]:
        """Run shadow exploration per bundle; compute and apply values.

        Semantics: every operation's own input carries along its chain
        (the store is read only for epoch-base values and written only
        at chain tails); each cross-key read resolves per its entry in
        ``restructured.sources``: ``None`` reads the store, ``VIEW``
        looks the ParametricView up, and a writer uid takes that
        operation's value, which shadow exploration has already
        computed.  Timing: one task per operation, pinned to its
        bundle's worker in exploration order, with zero cross-worker
        dependencies — the lock-contention-free execution the paper's
        restructuring buys.
        """
        costs = self.costs
        view_lookup_s = costs.view_lookup
        shadow_visit_s = costs.shadow_visit
        chain_switch_s = costs.chain_switch
        state_access_s = costs.state_access
        udf_s = costs.udf
        execute, explore = buckets.EXECUTE, buckets.EXPLORE
        store_get = store.get
        lookup = segment.parametric_view.lookup
        sources_of = restructured.sources
        op_index_of = restructured.op_index
        all_local_deps = restructured.local_deps
        #: op uid -> value written; a LOCAL read takes its writer's.
        op_values: Dict[int, float] = {}
        chain_cursor: Dict[StateRef, float] = {}
        cursor_get = chain_cursor.get
        tasks: List[SimTask] = []
        append_task = tasks.append

        for bundle_index, bundle in enumerate(bundles):
            worker = assignment[bundle_index]
            local_deps = {
                op.uid: all_local_deps[op.uid]
                for chain in bundle
                for op in chain
                if op.uid in all_local_deps
            }
            exploration = explore_chains(bundle, local_deps)
            shadows_passed = exploration.shadows_passed.get
            switches_for = exploration.switches_for.get
            for op in exploration.order:
                uid, txn_id, _ts, ref, func, params, reads = op
                own = cursor_get(ref)
                if own is None:
                    own = store_get(ref)
                values: List[float] = []
                view_lookups = 0
                for read_ref, src in zip(reads, sources_of[uid]):
                    if src is None:
                        values.append(store_get(read_ref))
                    elif src == VIEW:
                        values.append(lookup(txn_id, op_index_of[uid], read_ref))
                        view_lookups += 1
                    else:
                        values.append(op_values[src])
                value = state_function(func)(own, values, params)
                op_values[uid] = value
                chain_cursor[ref] = value

                explore_seconds = (
                    view_lookups * view_lookup_s
                    + shadows_passed(uid, 0) * shadow_visit_s
                    + switches_for(uid, 0) * chain_switch_s
                )
                extra = ((explore, explore_seconds),) if explore_seconds else ()
                # Positional (hot path): uid, worker, cost, deps,
                # bucket, extra, group.  Bundles are the re-assignment
                # unit: if this worker dies, the whole bundle moves to
                # one survivor, keeping chain order intact.
                append_task(
                    SimTask(
                        uid,
                        worker,
                        state_access_s * (1 + len(reads)) + udf_s,
                        (),
                        execute,
                        extra,
                        bundle_index,
                    )
                )
            if exploration.order:
                # Per-chain progress watermark + the `recovery.chain`
                # crash point (a recovery worker can die between
                # bundles of the in-flight epoch).
                self._mark_chain_progress(segment.epoch_id)

        executor.run(tasks)
        for ref, value in chain_cursor.items():
            store.set(ref, value)
        return op_values
