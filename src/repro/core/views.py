"""Intermediate-result views: AbortView and ParametricView (Fig. 5).

MorphStreamR does not log dependencies — it logs the *results of
resolving them* at runtime, so recovery can consume the result instead
of re-coordinating:

- :class:`AbortView` — the logical-dependency results: ids of
  transactions that aborted.  During recovery these let the engine drop
  doomed events before preprocessing (abort pushdown).
- :class:`ParametricView` — the parametric-dependency results: for a
  consuming operation and a source record, the exact value the
  operation read at runtime.  During recovery a cross-partition read
  becomes a hash-table lookup instead of a cross-thread wait.

Entries are keyed by ``(txn_id, op_index, from_ref)`` — a *stable*
identity that survives abort pushdown (operation uids are assigned per
batch and would shift when doomed events are dropped before
preprocessing).  ``op_index`` is the operation's position inside its
transaction; index ``-1`` denotes the transaction's condition check.
The serialized form also carries the paper's ``(From_key, To_key)``
pair for each entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.engine.refs import StateRef
from repro.errors import RecoveryError

#: Pseudo operation index for condition-check (validator) reads.
CONDITION_INDEX = -1


@dataclass(frozen=True)
class AbortView:
    """Aborted transaction ids of one epoch (resolved LD results)."""

    epoch_id: int
    aborted: FrozenSet[int] = frozenset()

    def __contains__(self, txn_id: int) -> bool:
        return txn_id in self.aborted

    def __len__(self) -> int:
        return len(self.aborted)

    def encoded(self) -> tuple:
        return (self.epoch_id, tuple(sorted(self.aborted)))

    @staticmethod
    def from_encoded(raw: tuple) -> "AbortView":
        epoch_id, aborted = raw
        return AbortView(epoch_id, frozenset(aborted))


class ParametricView:
    """Resolved parametric-dependency values of one epoch.

    ``record`` is called by the Logging Manager whenever a tracked
    dependency is resolved at runtime; ``lookup`` is called by recovery
    to eliminate the dependency.  A miss on lookup is a recovery bug,
    not a soft condition, and raises :class:`RecoveryError`.
    """

    def __init__(self, epoch_id: int):
        self.epoch_id = epoch_id
        self._entries: Dict[Tuple[int, int, StateRef], Tuple[StateRef, float]] = {}

    def record(
        self,
        txn_id: int,
        op_index: int,
        from_ref: StateRef,
        to_ref: StateRef,
        value: float,
    ) -> None:
        self._entries[(txn_id, op_index, from_ref)] = (to_ref, value)

    def lookup(self, txn_id: int, op_index: int, from_ref: StateRef) -> float:
        try:
            return self._entries[(txn_id, op_index, from_ref)][1]
        except KeyError:
            raise RecoveryError(
                f"ParametricView epoch {self.epoch_id}: no intermediate "
                f"result for txn {txn_id} op {op_index} reading {from_ref}"
            ) from None

    def has(self, txn_id: int, op_index: int, from_ref: StateRef) -> bool:
        return (txn_id, op_index, from_ref) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def encoded(self) -> tuple:
        entries = [
            (txn_id, op_index, from_ref, to_ref, value)
            for (txn_id, op_index, from_ref), (to_ref, value) in sorted(
                self._entries.items()
            )
        ]
        return (self.epoch_id, tuple(entries))

    @staticmethod
    def from_encoded(raw: tuple) -> "ParametricView":
        epoch_id, entries = raw
        view = ParametricView(epoch_id)
        for txn_id, op_index, from_ref, to_ref, value in entries:
            view.record(
                txn_id,
                op_index,
                StateRef.from_encoded(from_ref),
                StateRef.from_encoded(to_ref),
                value,
            )
        return view
