"""Shared mutable state: tables of numeric records.

The two-table layout of Streaming Ledger (accounts, assets), the
single-table Grep&Sum store and the two-table Toll Processing store all
fit the same model: named tables mapping keys to float values.  The
store supports codec-friendly snapshots (used for global checkpoints)
and exact-equality comparison (used by every recovery test).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.engine.refs import Key, StateRef
from repro.errors import ConfigError, TransactionError


class StateStore:
    """In-memory multi-table key/value store of float records."""

    def __init__(self, tables: Mapping[str, Mapping[Key, float]] = ()):
        self._tables: Dict[str, Dict[Key, float]] = {}
        #: opt-in write journal: while a list is attached, :meth:`set`
        #: appends every ref it writes, so a holder learns what changed
        #: in O(writes).  Recovery attaches one for its watermarks.
        self.journal: Optional[List[StateRef]] = None
        if tables:
            for name, records in tables.items():
                self.create_table(name, records)

    def create_table(self, name: str, records: Mapping[Key, float] = ()) -> None:
        if name in self._tables:
            raise ConfigError(f"table {name!r} already exists")
        self._tables[name] = dict(records)

    def get(self, ref: StateRef) -> float:
        try:
            return self._tables[ref.table][ref.key]
        except KeyError:
            raise TransactionError(f"no record at {ref}") from None

    def peek(self, ref: StateRef):
        """Non-raising read: the record's value, or ``None`` if absent.

        Used by the degraded-serving path, which reads records out of a
        restored checkpoint snapshot and must distinguish "key was never
        part of the state" from a transaction-level error.
        """
        table = self._tables.get(ref.table)
        if table is None:
            return None
        return table.get(ref.key)

    def set(self, ref: StateRef, value: float) -> None:
        table = self._tables.get(ref.table)
        if table is None or ref.key not in table:
            raise TransactionError(f"no record at {ref}")
        table[ref.key] = value
        if self.journal is not None:
            self.journal.append(ref)

    def refs(self) -> Iterable[StateRef]:
        for name, table in self._tables.items():
            for key in table:
                yield StateRef(name, key)

    def snapshot(self) -> Dict[str, Dict[Key, float]]:
        """Deep, codec-serializable copy of every table."""
        return {name: dict(table) for name, table in self._tables.items()}

    def restore(self, snapshot: Mapping[str, Mapping[Key, float]]) -> None:
        """Replace all contents with ``snapshot`` (as taken by :meth:`snapshot`)."""
        self._tables = {name: dict(table) for name, table in snapshot.items()}

    def copy(self) -> "StateStore":
        fresh = StateStore()
        fresh._tables = self.snapshot()
        return fresh

    def equals(self, other: "StateStore", tolerance: float = 0.0) -> bool:
        """Exact (or toleranced) equality of all tables and records."""
        if set(self._tables) != set(other._tables):
            return False
        for name, table in self._tables.items():
            other_table = other._tables[name]
            if set(table) != set(other_table):
                return False
            for key, value in table.items():
                if tolerance:
                    if abs(value - other_table[key]) > tolerance:
                        return False
                elif value != other_table[key]:
                    return False
        return True

    def diff(self, other: "StateStore", limit: int = 10) -> list:
        """First ``limit`` differing records — recovery-failure diagnostics."""
        differences = []
        for name in sorted(set(self._tables) | set(other._tables)):
            mine = self._tables.get(name, {})
            theirs = other._tables.get(name, {})
            for key in sorted(set(mine) | set(theirs), key=str):
                a, b = mine.get(key), theirs.get(key)
                if a != b:
                    differences.append((StateRef(name, key), a, b))
                    if len(differences) >= limit:
                        return differences
        return differences
