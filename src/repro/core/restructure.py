"""Operation restructuring (§V-B2).

With aborted transactions dropped (abort pushdown) and parametric
dependencies eliminable through the ParametricView, the surviving state
access operations can be rearranged into per-record, timestamp-sorted
chains.  This module builds those chains and classifies every cross-key
read of every operation into one of three resolution classes:

- ``BASE`` — no earlier in-epoch writer: read the checkpointed store;
- ``VIEW`` — the source chain lives in another partition (or selective
  logging is off): the value was recorded at runtime, resolve by view
  lookup with zero coordination;
- ``LOCAL`` — the source chain lives in the same partition: resolve
  during shadow-based exploration.

The classification depends only on record partitions (never on which
specific transactions committed), which is what makes the runtime-logged
view and the recovery-side classification agree — property tests
exercise this invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.operations import Operation
from repro.engine.refs import StateRef
from repro.engine.tpg import TaskPrecedenceGraph, build_tpg
from repro.engine.transactions import Transaction


class ReadClass(Enum):
    """How one cross-key read is resolved during recovery."""

    BASE = "base"
    VIEW = "view"
    LOCAL = "local"


@dataclass(frozen=True)
class ReadResolution:
    """One classified read: where its value comes from."""

    ref: StateRef
    read_class: ReadClass
    #: the reading operation's position in its transaction: with its
    #: txn id and ``ref``, the key of the read's ParametricView entry.
    op_index: int
    #: uid of the in-partition source operation (LOCAL only).
    source_uid: Optional[int] = None


@dataclass
class RestructuredEpoch:
    """Chains plus classified reads for one epoch's surviving work."""

    tpg: TaskPrecedenceGraph
    #: record -> ts-sorted surviving operations.
    chains: Dict[StateRef, List[Operation]] = field(default_factory=dict)
    #: op uid -> classified resolutions for ``op.reads`` in order.
    resolutions: Dict[int, Tuple[ReadResolution, ...]] = field(
        default_factory=dict
    )
    #: op uid -> intra-partition source uids (input to shadow exploration).
    local_deps: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    num_view_reads: int = 0
    num_local_reads: int = 0


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
    for txn in tpg.txns:
        for op_index, op in enumerate(txn.ops):
            sources = tpg.pd_sources[op.uid]
            if not sources:
                result.resolutions[op.uid] = ()
                continue
            resolutions: List[ReadResolution] = []
            local: List[int] = []
            for ref, src in zip(op.reads, sources):
                if src is None:
                    resolutions.append(ReadResolution(ref, ReadClass.BASE, op_index))
                    continue
                same_partition = (
                    partition_of is not None
                    and partition_of.get(ref) == partition_of.get(op.ref)
                )
                if same_partition:
                    resolutions.append(
                        ReadResolution(ref, ReadClass.LOCAL, op_index, source_uid=src)
                    )
                    local.append(src)
                    result.num_local_reads += 1
                else:
                    resolutions.append(ReadResolution(ref, ReadClass.VIEW, op_index))
                    result.num_view_reads += 1
            result.resolutions[op.uid] = tuple(resolutions)
            if local:
                result.local_deps[op.uid] = tuple(dict.fromkeys(local))
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
