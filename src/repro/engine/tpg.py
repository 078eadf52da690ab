"""Task precedence graph (TPG) construction.

MorphStream's TxnManager turns a batch of state transactions into a
graph whose vertices are state access operations and whose edges are
the fine-grained dependencies of §II-A:

- **TD** (temporal): previous operation writing the same record;
- **PD** (parametric): for every cross-key read (operation read sets and
  condition refs), the most recent earlier-timestamp writer of that
  record inside the batch — or the base state if none;
- **LD** (logical): every non-validator operation depends on its
  transaction's condition-variable-check (first operation).

Timestamp order is a topological order of this graph (all edges point
from smaller to strictly smaller-or-equal-txn sources), which the
executors rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.operations import Operation
from repro.engine.refs import StateRef
from repro.engine.transactions import Transaction

#: (ref, source op uid or None): where a condition ref's value comes from.
ReadSource = Tuple[StateRef, Optional[int]]


@dataclass
class TaskPrecedenceGraph:
    """The dependency structure of one batch of transactions."""

    txns: Tuple[Transaction, ...]
    #: All operations in timestamp (and hence topological) order.
    ops: Tuple[Operation, ...] = ()
    #: Per-record operation chains, timestamp-sorted.
    chains: Dict[StateRef, List[Operation]] = field(default_factory=dict)
    #: op uid -> uid of the previous writer of the same record (TD).
    td_prev: Dict[int, int] = field(default_factory=dict)
    #: op uid -> one writer uid (``None``: base state) per entry of
    #: ``op.reads``, in order (PD).  Ints only: the GC stops tracking it.
    pd_sources: Dict[int, Tuple[Optional[int], ...]] = field(default_factory=dict)
    #: txn id -> read sources for the union of condition refs (PD).
    cond_sources: Dict[int, Tuple[ReadSource, ...]] = field(default_factory=dict)
    #: txn id -> uid of the condition-variable-check operation (LD hub).
    validator_uid: Dict[int, int] = field(default_factory=dict)
    op_by_uid: Dict[int, Operation] = field(default_factory=dict)
    txn_by_id: Dict[int, Transaction] = field(default_factory=dict)
    #: PD edges (read and condition sources that are not the base
    #: state), counted by :func:`build_tpg` as it emits them.  Only
    #: ``build_tpg`` sets it; it is not derived from the maps, so it is
    #: no constructor argument and goes stale if they are edited.
    pd_edges: int = field(default=0, init=False, repr=False)

    def dependencies(
        self,
        op: Operation,
        include_pd: bool = True,
        include_ld: bool = True,
        reads_resolved: bool = True,
    ) -> List[int]:
        """Uids ``op`` must wait for (TD + PD + LD), each once.

        The one derivation of "what runs before ``op``" — the task DAG
        (:func:`~repro.engine.execution.build_op_tasks`), schedule
        validation and the dependency logs all ask here: its chain
        predecessor, the sources of its reads, then — for the validator
        — the sources of its transaction's conditions, else the LD edge
        to the validator.  ``include_pd`` / ``include_ld`` drop an edge
        class; ``reads_resolved=False`` drops only the operation's own
        read sources (an aborted transaction never resolves them, but
        its conditions were read to decide the abort).

        Keyed by uid so a source reached twice (as chain predecessor
        and as read source, say) counts once, first position kept.
        Sources are writers of strictly earlier transactions and the
        validator is another operation, so ``op`` never appears itself.
        """
        uid = op.uid
        prev = self.td_prev.get(uid)
        deps = {} if prev is None else {prev: None}
        if include_pd and reads_resolved:
            for src in self.pd_sources.get(uid, ()):
                if src is not None:
                    deps[src] = None
        validator = self.validator_uid[op.txn_id]
        if uid != validator:
            if include_ld:
                deps[validator] = None
        elif include_pd:
            for _ref, src in self.cond_sources.get(op.txn_id, ()):
                if src is not None:
                    deps[src] = None
        return list(deps)

    def edge_counts(self) -> Dict[str, int]:
        """Number of TD / PD / LD edges — sizing for logs and costs.

        Asked once per epoch, so nothing is re-walked: TD edges are the
        entries of ``td_prev``, every transaction has one LD edge per
        non-validator operation, and PD edges were counted as
        :func:`build_tpg` emitted them.
        """
        return {
            "td": len(self.td_prev),
            "pd": self.pd_edges,
            "ld": len(self.ops) - len(self.txns),
        }


def build_tpg(txns: Sequence[Transaction]) -> TaskPrecedenceGraph:
    """Construct the TPG for ``txns`` (any order; sorted by timestamp)."""
    ordered = tuple(sorted(txns, key=lambda t: t.ts))
    tpg = TaskPrecedenceGraph(txns=ordered)
    txn_by_id = tpg.txn_by_id
    validator_uid = tpg.validator_uid
    cond_sources = tpg.cond_sources
    pd_sources = tpg.pd_sources
    op_by_uid = tpg.op_by_uid
    td_prev = tpg.td_prev
    chains = tpg.chains
    last_writer: Dict[StateRef, int] = {}
    writer_of = last_writer.get
    ops: List[Operation] = []
    pd_edges = 0

    for txn in ordered:
        txn_id = txn.txn_id
        txn_ops = txn.ops
        txn_by_id[txn_id] = txn
        validator_uid[txn_id] = txn_ops[0].uid

        # Resolve sources against writers of strictly earlier
        # transactions: the last_writer map is updated only after the
        # whole transaction is processed (snapshot read semantics).
        if txn.conditions:
            resolved: Dict[StateRef, Optional[int]] = {}
            for cond in txn.conditions:
                for ref in cond.refs:
                    if ref not in resolved:
                        src = resolved[ref] = writer_of(ref)
                        if src is not None:
                            pd_edges += 1
            cond_sources[txn_id] = tuple(resolved.items())
        else:
            cond_sources[txn_id] = ()

        ops.extend(txn_ops)
        for op in txn_ops:
            uid = op.uid
            ref = op.ref
            op_by_uid[uid] = op
            if op.reads:
                sources = pd_sources[uid] = tuple(map(writer_of, op.reads))
                pd_edges += len(sources) - sources.count(None)
            else:
                pd_sources[uid] = ()
            # A transaction writes a record at most once, so the record
            # has an earlier writer exactly when its chain exists.
            prev = writer_of(ref)
            if prev is None:
                chains[ref] = [op]
            else:
                td_prev[uid] = prev
                chains[ref].append(op)

        for op in txn_ops:
            last_writer[op.ref] = op.uid

    tpg.ops = tuple(ops)
    tpg.pd_edges = pd_edges
    return tpg
