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
Of the paper's ``(From_key, To_key)`` pair only the from key is kept:
the to key is the reading operation's own record
(``txn.ops[op_index].ref``, ``ops[0].ref`` for the condition check),
which the replayed event already names, and no lookup reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, FrozenSet, Optional, Tuple

from repro.engine.refs import StateRef
from repro.errors import RecoveryError, StorageError
from repro.storage.codec import pack_column, unpack_column

#: Pseudo operation index for condition-check (validator) reads.
CONDITION_INDEX = -1

#: ``pack_column`` codes of a view's columns: txn id, op index (signed,
#: for :data:`CONDITION_INDEX`), table index, key, value.
_VIEW_CODES = ("BHI", "bhi", "BHI", "BHI", "d")

ViewKey = Tuple[int, int, StateRef]


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

    def __init__(
        self, epoch_id: int, entries: Optional[Dict[ViewKey, float]] = None
    ):
        self.epoch_id = epoch_id
        self._entries: Dict[ViewKey, float] = {} if entries is None else entries

    def record(
        self, txn_id: int, op_index: int, from_ref: StateRef, value: float
    ) -> None:
        self._entries[(txn_id, op_index, from_ref)] = value

    def lookup(self, txn_id: int, op_index: int, from_ref: StateRef) -> float:
        try:
            return self._entries[(txn_id, op_index, from_ref)]
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
        """``(epoch_id, tables, columns, rows)``.

        The sorted entries go as five packed columns (txn id, op index,
        index into ``tables``, key, value): a few ``array`` calls, not a
        codec walk per entry.  A view some column cannot hold (a ``str``
        key, an id past 32 bits) goes as ``rows`` of ``(txn_id,
        op_index, from_ref, value)`` instead.
        """
        keys = sorted(self._entries)
        values = list(map(self._entries.__getitem__, keys))
        txn_ids, op_indexes, refs = tuple(zip(*keys)) or ((), (), ())
        tables = tuple(sorted({table for table, _key in refs}))
        slot = {table: index for index, table in enumerate(tables)}
        fields = (
            txn_ids,
            op_indexes,
            [slot[table] for table, _key in refs],
            [key for _table, key in refs],
            values,
        )
        columns = tuple(map(pack_column, fields, _VIEW_CODES))
        if None in columns:
            rows = tuple(zip(txn_ids, op_indexes, refs, values))
            return (self.epoch_id, (), (), rows)
        return (self.epoch_id, tables, columns, ())

    @staticmethod
    def from_encoded(raw: tuple) -> "ParametricView":
        epoch_id, tables, columns, rows = raw
        entries = {
            (txn_id, op_index, StateRef(*ref)): value
            for txn_id, op_index, ref, value in rows
        }
        count = len(rows)
        if columns:
            unpacked = tuple(map(unpack_column, columns, _VIEW_CODES))
            if len(columns) != len(_VIEW_CODES) or len(set(map(len, unpacked))) != 1:
                raise StorageError(f"ParametricView epoch {epoch_id}: columns disagree")
            txn_ids, op_indexes, slots, keys, values = unpacked
            # ``tuple.__new__`` builds each StateRef in C (see logmanager).
            refs = map(
                tuple.__new__, repeat(StateRef), zip(map(tables.__getitem__, slots), keys)
            )
            entries.update(zip(zip(txn_ids, op_indexes, refs), values))
            count += len(values)
        if len(entries) != count:
            raise StorageError(f"ParametricView epoch {epoch_id} repeats an entry")
        return ParametricView(epoch_id, entries)
