"""Frozen, test-only oracle of PACMAN's static key-access analysis.

``static_batches`` exactly as it stood while it was a union-find over
records (a nested ``find()`` per probe, a sorted footprint list per
transaction).  ``WALPacman._batch_tasks`` sums each component's weight
in the insertion order of ``component_of_txn``, so the numbering *and*
that order reach virtual time: the tests hold the live function's items
``==`` to this one's, and its access count too.  It is never imported
by ``src/``.  Do not optimise or tidy it; a change to which batch a
transaction lands in must show up as a diff against this file.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.engine.refs import StateRef
from repro.engine.transactions import Transaction


def reference_txn_refs(txn: Transaction) -> List[StateRef]:
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


def reference_static_batches(
    txns: Sequence[Transaction],
) -> Tuple[Dict[int, int], int]:
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
        refs = reference_txn_refs(txn)
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
