"""Shared mutable state: tables of numeric records.

The two-table layout of Streaming Ledger (accounts, assets), the
single-table Grep&Sum store and the two-table Toll Processing store all
fit the same model: named tables mapping keys to float values.  The
store supports codec-friendly snapshots (used for global checkpoints)
and exact-equality comparison (used by every recovery test).

While every table is a codec state table the store keeps its last
encoding (a :class:`~repro.storage.codec.StateImage`) and holds only
the records written since; the next encoding patches those in.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Union

from repro.engine.refs import Key, StateRef
from repro.errors import ConfigError, TransactionError
from repro.storage.codec import ImageLayout, StateImage, encode, layout_of


class _Table(dict):
    """A table's records in hand, and in a store with an image its key
    index and value column, out of which the others are read (without
    one the index is empty, never written: the table holds them all)."""

    __slots__ = ("index", "column")

    def __init__(self, records: Mapping = (), index: Mapping = {}, column=()):
        super().__init__(records)
        self.index, self.column = index, column

    def complete(self) -> Dict[Key, float]:
        """Every record, as a fresh dict (an image's in key order)."""
        records = dict(zip(self.index, self.column))
        records.update(self)
        return records


class _Reads(dict):
    """Record values keyed by ref, each read on first touch and kept."""

    __slots__ = ("_tables",)

    def __init__(self, tables: Dict[str, _Table]):
        self._tables = tables

    def __missing__(self, ref: StateRef) -> float:
        key = ref.key
        try:
            table = self._tables[ref.table]
            value = table[key] if key in table else table.column[table.index[key]]
        except KeyError:
            raise TransactionError(f"no record at {ref}") from None
        self[ref] = value
        return value


class StateStore:
    """In-memory multi-table key/value store of float records."""

    def __init__(self, tables: Mapping[str, Mapping[Key, float]] = ()):
        self._tables: Dict[str, _Table] = {}
        self._image: Optional[StateImage] = None
        #: opt-in write journal: while a dict is attached, :meth:`set`
        #: keeps in it each ref it writes with the value its first write
        #: since overwrote, so a holder learns what changed in O(writes).
        #: Recovery attaches one for its watermarks.
        self.journal: Optional[Dict[StateRef, float]] = None
        if tables:
            for name, records in tables.items():
                self.create_table(name, records)

    def create_table(self, name: str, records: Mapping[Key, float] = ()) -> None:
        if name in self._tables:
            raise ConfigError(f"table {name!r} already exists")
        self._drop_image()
        self._tables[name] = _Table(records)

    def get(self, ref: StateRef) -> float:
        key = ref.key
        try:
            table = self._tables[ref.table]
            return table[key] if key in table else table.column[table.index[key]]
        except KeyError:
            raise TransactionError(f"no record at {ref}") from None

    def peek(self, ref: StateRef):
        """Non-raising read: the record's value, or ``None`` if absent.

        Used by the degraded-serving path, which reads records out of a
        restored checkpoint snapshot and must distinguish "key was never
        part of the state" from a transaction-level error.
        """
        try:
            return self.get(ref)
        except TransactionError:
            return None

    def reads(self) -> Dict[StateRef, float]:
        """:meth:`get` as a dict that keeps what it read, until a write."""
        return _Reads(self._tables)

    def set(self, ref: StateRef, value: float) -> None:
        key = ref.key
        table = self._tables.get(ref.table)
        if table is None or (key not in table and key not in table.index):
            raise TransactionError(f"no record at {ref}")
        if self.journal is not None:
            before = table[key] if key in table else table.column[table.index[key]]
            self.journal.setdefault(ref, before)
        table[key] = value

    def refs(self) -> Iterable[StateRef]:
        for name, table in self.snapshot().items():
            for key in table:
                yield StateRef(name, key)

    def snapshot(self) -> Dict[str, Dict[Key, float]]:
        """Deep, codec-serializable copy of every table."""
        return {name: table.complete() for name, table in self._tables.items()}

    def encoded(self) -> bytes:
        """``encode(self.snapshot())``: the image with the records written
        since patched in, else a full encoding, the image if it can be."""
        if self._image is not None and self._image.patch(self._tables):
            for table in self._tables.values():
                table.clear()
            return bytes(self._image.data)
        self._drop_image()
        data = encode(self._tables)
        layout = layout_of(data, self._tables)
        if layout is not None:
            self.restore(StateImage(layout, bytearray(data)))
        return data

    def _drop_image(self) -> None:
        """Read every record out of the image into its table."""
        if self._image is not None:
            self._image = None
            self._tables = {n: _Table(t.complete()) for n, t in self._tables.items()}

    @property
    def layout(self) -> Optional[ImageLayout]:
        return None if self._image is None else self._image.layout

    def restore(self, snapshot: Union[StateImage, Mapping[str, Mapping]]) -> None:
        """Replace all contents with ``snapshot``: tables as taken by
        :meth:`snapshot`, or an image, which the store takes over."""
        if isinstance(snapshot, StateImage):
            self._image = snapshot
            self._tables = {n: _Table((), *c) for n, c in snapshot.columns.items()}
        else:
            self._image = None
            self._tables = {name: _Table(table) for name, table in snapshot.items()}

    def copy(self) -> "StateStore":
        return StateStore(self.snapshot())

    def equals(self, other: "StateStore", tolerance: float = 0.0) -> bool:
        """Exact (or toleranced) equality of all tables and records."""
        mine, theirs = self.snapshot(), other.snapshot()
        if set(mine) != set(theirs):
            return False
        for name, table in mine.items():
            other_table = theirs[name]
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
        tables, other_tables = self.snapshot(), other.snapshot()
        for name in sorted(set(tables) | set(other_tables)):
            mine = tables.get(name, {})
            theirs = other_tables.get(name, {})
            for key in sorted(set(mine) | set(theirs), key=str):
                a, b = mine.get(key), theirs.get(key)
                if a != b:
                    differences.append((StateRef(name, key), a, b))
                    if len(differences) >= limit:
                        return differences
        return differences
