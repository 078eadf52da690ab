"""References to shared mutable state records.

A :class:`StateRef` names one record: ``(table, key)``.  It is the unit
of temporal dependencies (two operations conflict iff they target the
same ref) and the vertex key for operation chains.
"""

from __future__ import annotations

from typing import NamedTuple, Union

Key = Union[int, str]


class StateRef(NamedTuple):
    """Immutable (table, key) address of one shared state record."""

    table: str
    key: Key

    def encoded(self) -> tuple:
        """Codec-friendly representation (plain tuple)."""
        return (self.table, self.key)

    @staticmethod
    def from_encoded(raw: tuple) -> "StateRef":
        return StateRef(raw[0], raw[1])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.table}[{self.key}]"


class RefTable(dict):
    """table -> key -> ``StateRef``: one ref per record for one batch.

    ``preprocess`` makes one per call, so ``refs[table][key]`` is one
    object across the batch, and the table dies with the call.
    """

    def __missing__(self, table: str) -> "_KeyRefs":
        keys = self[table] = _KeyRefs(table)
        return keys


class _KeyRefs(dict):
    __slots__ = ("table",)

    def __init__(self, table: str):
        self.table = table

    def __missing__(self, key: Key) -> StateRef:
        # ``tuple.__new__`` skips the NamedTuple's Python-level ``__new__``.
        ref = self[key] = tuple.__new__(StateRef, (self.table, key))
        return ref
