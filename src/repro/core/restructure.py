"""Operation restructuring (§V-B2).

With aborted transactions dropped (abort pushdown) and parametric
dependencies eliminable through the ParametricView, the surviving state
access operations can be rearranged into per-record, timestamp-sorted
chains.  This module builds those chains and resolves every cross-key
read of every operation into one of three classes, stored per
operation as one tuple aligned with ``op.reads`` (the layout of
``TaskPrecedenceGraph.pd_sources``):

- ``None`` (BASE) — no earlier in-epoch writer: read the checkpointed
  store;
- :data:`VIEW` (``-1``) — the source chain lives in another partition
  (or selective logging is off): the value was recorded at runtime,
  resolve by view lookup with zero coordination;
- a writer uid (LOCAL) — the source chain lives in the same partition:
  resolve during shadow-based exploration.

A tuple of ints and ``None`` holds no object the cyclic GC must walk,
so it is untracked after the first collection.

The classification depends only on record partitions (never on which
specific transactions committed), which is what makes the runtime-logged
view and the recovery-side classification agree — property tests
exercise this invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.operations import Operation
from repro.engine.refs import StateRef
from repro.engine.tpg import TaskPrecedenceGraph, build_tpg
from repro.engine.transactions import Transaction


#: ``RestructuredEpoch.sources`` entry of a read resolved through the
#: ParametricView.  No operation has a negative uid.
VIEW = -1


@dataclass
class RestructuredEpoch:
    """Chains plus classified reads for one epoch's surviving work."""

    tpg: TaskPrecedenceGraph
    #: record -> ts-sorted surviving operations.
    chains: Dict[StateRef, List[Operation]] = field(default_factory=dict)
    #: op uid -> one entry per ``op.reads``, in order: ``None`` (BASE),
    #: :data:`VIEW`, or the LOCAL writer's uid.
    sources: Dict[int, Tuple[Optional[int], ...]] = field(default_factory=dict)
    #: op uid -> the operation's position in its transaction, for the
    #: operations with a VIEW read only: with the txn id and the read's
    #: ref, the key of its ParametricView entry.
    op_index: Dict[int, int] = field(default_factory=dict)
    #: op uid -> intra-partition source uids (input to shadow exploration).
    local_deps: Dict[int, Tuple[int, ...]] = field(default_factory=dict)


def restructure_operations(
    txns: Sequence[Transaction],
    partition_of: Optional[Dict[StateRef, int]],
) -> RestructuredEpoch:
    """Restructure surviving transactions into independent chains.

    ``txns`` are the committed transactions of one epoch (abort pushdown
    has already run).  ``partition_of`` is the chain partition map the
    runtime logged; ``None`` means selective logging is off, in which
    case *every* sourced read resolves through the view and chains are
    fully independent.
    """
    tpg = build_tpg(txns)
    result = RestructuredEpoch(tpg=tpg, chains=tpg.chains)
    pd_sources = tpg.pd_sources
    sources = result.sources
    op_index = result.op_index
    local_deps = result.local_deps
    partition = None if partition_of is None else partition_of.get
    for txn in tpg.txns:
        for index, op in enumerate(txn.ops):
            uid = op.uid
            writers = pd_sources[uid]
            if not writers:
                sources[uid] = writers
                continue
            home = None if partition is None else partition(op.ref)
            resolved: List[Optional[int]] = []
            local: List[int] = []
            view = False
            for ref, src in zip(op.reads, writers):
                if src is None:
                    resolved.append(None)
                elif partition is not None and partition(ref) == home:
                    resolved.append(src)
                    local.append(src)
                else:
                    resolved.append(VIEW)
                    view = True
            if view:
                sources[uid] = tuple(resolved)
                op_index[uid] = index
            else:
                # BASE and LOCAL entries are the writers themselves.
                sources[uid] = writers
            if local:
                local_deps[uid] = tuple(dict.fromkeys(local))
    return result


def chains_by_partition(
    restructured: RestructuredEpoch,
    partition_of: Optional[Dict[StateRef, int]],
    num_partitions: int,
) -> List[List[List[Operation]]]:
    """Group chains into partition task bundles.

    With selective logging off every chain is its own bundle (fully
    independent tasks); otherwise chains sharing a partition form one
    bundle so their LOCAL reads can be shadow-resolved by one worker.
    Bundles and chains keep deterministic (first-timestamp) order.
    """
    ordered_chains = sorted(
        restructured.chains.items(), key=lambda kv: kv[1][0].uid
    )
    if partition_of is None:
        # With selective logging off, every dependency resolves through
        # the view, so chains are fully independent and any grouping is
        # valid; fold them into a bounded number of bundles to keep
        # dispatch cheap while giving LPT room to balance.
        num_bundles = max(1, min(len(ordered_chains), 4 * num_partitions))
        bundles = [[] for _ in range(num_bundles)]
        for index, (_ref, chain) in enumerate(ordered_chains):
            bundles[index % num_bundles].append(chain)
        return [b for b in bundles if b]
    bundles: List[List[List[Operation]]] = [[] for _ in range(num_partitions)]
    for ref, chain in ordered_chains:
        pid = partition_of.get(ref)
        if pid is None:
            # A record first written after the partition map was logged
            # cannot happen within an epoch (the map covers the epoch's
            # chains), but guard against misuse.
            pid = 0
        bundles[pid].append(chain)
    return [b for b in bundles if b]
