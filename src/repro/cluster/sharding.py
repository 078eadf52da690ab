"""Key-space sharding and transaction localization.

A :class:`ShardMap` range-partitions every table across N shards with
the same arithmetic the workloads use for worker partitioning, so a
record's shard is deterministic and derivable from the ref alone.

:class:`ShardWorkload` adapts one global workload to a single shard: it
rebuilds the global transaction for an event, keeps only the operations
whose target record lives on this shard, and resolves everything that
crosses the shard boundary through the :class:`DependencyFrontier`:

* cross-shard *verdicts* become a pinned always-false condition (abort)
  or no condition at all (commit);
* cross-shard *reads* become the ``frontier_resolved`` state function,
  whose params carry the exact read values the coordinator observed —
  so shard-local (re-)execution reproduces the global serial result
  bit-for-bit without contacting any other shard.

Localization is deterministic: replaying the same events through the
same frontier always yields the same shard transaction, which is what
makes shard-local command logging and event replay sound.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.cluster.frontier import DependencyFrontier
from repro.engine.events import Event
from repro.engine.execution import stable_hash
from repro.engine.functions import apply_state_function, register_state_function
from repro.engine.operations import Condition
from repro.engine.refs import RefTable, StateRef
from repro.engine.state import StateStore
from repro.engine.transactions import Transaction
from repro.errors import WorkloadError
from repro.workloads.base import Workload

#: Deterministic output sentinel for transactions whose home shard is
#: elsewhere; filtered out during cluster-level output aggregation.
SHARD_INTERNAL = "shard-internal"


def _frontier_resolved(own: float, reads: Tuple[float, ...], params: tuple) -> float:
    """Run the original state function with coordinator-pinned reads."""
    inner, vals, orig = params
    return apply_state_function(inner, own, tuple(vals), tuple(orig))


register_state_function("frontier_resolved", _frontier_resolved)


class ShardMap:
    """Deterministic record → shard mapping (range partitioning)."""

    def __init__(self, workload: Workload, num_shards: int):
        self.num_shards = num_shards
        self._sizes: Dict[str, int] = dict(workload._table_sizes)

    def shard_of(self, ref: StateRef) -> int:
        size = self._sizes.get(ref.table)
        if size is None or not isinstance(ref.key, int):
            return stable_hash(ref) % self.num_shards
        return ref.key * self.num_shards // size

    def shards_of_txn(self, txn: Transaction) -> Tuple[int, ...]:
        """Every shard a transaction touches (ops, reads and conditions)."""
        shards: Set[int] = {self.shard_of(op.ref) for op in txn.ops}
        for ref in txn.read_set():
            shards.add(self.shard_of(ref))
        return tuple(sorted(shards))

    def op_shards(self, txn: Transaction) -> Tuple[int, ...]:
        """Shards owning at least one written record of the transaction."""
        return tuple(sorted({self.shard_of(op.ref) for op in txn.ops}))

    def is_cross(self, txn: Transaction) -> bool:
        return len(self.shards_of_txn(txn)) > 1


class ShardWorkload(Workload):
    """One shard's view of a global workload.

    ``build_transaction`` localizes cross-shard transactions through the
    shard's dependency frontier; single-shard transactions pass through
    untouched.  ``generate`` is intentionally unsupported — the cluster
    generates one global stream and routes it.
    """

    def __init__(self, inner: Workload, shard_map: ShardMap, shard_id: int):
        super().__init__(inner.num_partitions)
        self.inner = inner
        self.shard_map = shard_map
        self.shard_id = shard_id
        self.name = f"{inner.name}/shard{shard_id}"
        self._table_sizes = dict(inner._table_sizes)
        self.frontier = DependencyFrontier()

    # ------------------------------------------------------------------
    # Workload contract
    # ------------------------------------------------------------------

    def initial_state(self) -> StateStore:
        """This shard's slice of the global initial tables."""
        full = self.inner.initial_state()
        sliced = {
            table: {
                key: value
                for key, value in records.items()
                if self.shard_map.shard_of(StateRef(table, key)) == self.shard_id
            }
            for table, records in full.snapshot().items()
        }
        return StateStore(sliced)

    def generate(self, num_events: int, seed: int = 0) -> List[Event]:
        raise WorkloadError(
            "shard workloads do not generate events; the cluster routes "
            "the global stream"
        )

    def build_transaction(
        self, event: Event, uid_base: int, refs: RefTable
    ) -> Transaction:
        if not self.frontier.is_cross(event.seq):
            # Single-shard transaction: everything it touches lives here,
            # so the global template applies verbatim.
            return self.inner.build_transaction(event, uid_base, refs)
        gtxn = self.inner.build_transaction(event, 0, refs)
        entry = self.frontier.entry(event.seq)
        ops = []
        next_uid = uid_base
        for index, op in enumerate(gtxn.ops):
            if self.shard_map.shard_of(op.ref) != self.shard_id:
                continue
            if op.reads and not entry.aborted:
                vals = self.frontier.reads_for(event.seq, index)
                op = op._replace(
                    uid=next_uid,
                    func="frontier_resolved",
                    params=(op.func, vals, op.params),
                    reads=(),
                )
            else:
                # Aborted operations never run their UDF; dropping the
                # reads just removes dangling cross-shard edges.
                op = op._replace(uid=next_uid, reads=())
            ops.append(op)
            next_uid += 1
        if not ops:
            raise WorkloadError(
                f"event {event.seq} routed to shard {self.shard_id} "
                "but owns no operation here"
            )
        # The cluster-wide verdict is pinned by the frontier: an aborted
        # transaction aborts on every shard via an always-false condition;
        # a committed one carries no conditions at all.
        conditions = (Condition("never"),) if entry.aborted else ()
        return Transaction(event.seq, event.seq, event, tuple(ops), conditions)

    def output_for(
        self, txn: Transaction, committed: bool, op_values: Dict[int, float]
    ) -> tuple:
        seq = txn.event.seq
        if self.frontier.is_cross(seq) and self.frontier.entry(seq).home != self.shard_id:
            return (SHARD_INTERNAL, self.shard_id)
        return self.inner.output_for(txn, committed, op_values)
