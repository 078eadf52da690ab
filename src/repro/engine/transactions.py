"""State transactions (Def. 2): all state accesses of one input event.

Invariants enforced at construction time:

- all operations share the transaction's timestamp;
- no two operations write the same record (within-transaction reads see
  the pre-transaction snapshot, so a double write would be ambiguous);
- the first operation is the designated *condition-variable-check*
  (§VI-A2): it is the operation on which every other operation in the
  transaction logically depends, and it evaluates all conditions.

A ``NamedTuple`` whose ``__new__`` checks them, so the constructor,
``_make``, ``_replace`` and unpickling all validate.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, NamedTuple, Tuple

from repro.engine.events import Event
from repro.engine.operations import Condition, Operation
from repro.engine.refs import StateRef
from repro.errors import TransactionError


class _Fields(NamedTuple):  # typing.NamedTuple forbids its own __new__
    txn_id: int
    ts: int
    event: Event
    ops: Tuple[Operation, ...]
    conditions: Tuple[Condition, ...] = ()


class Transaction(_Fields):
    """One state transaction: ordered operations plus abort conditions."""

    __slots__ = ()

    def __new__(cls, txn_id, ts, event, ops, conditions=()) -> "Transaction":
        if not ops:
            raise TransactionError(f"transaction {txn_id} has no operations")
        seen: set = set()
        for op in ops:
            if op.ts != ts or op.txn_id != txn_id:
                raise TransactionError(
                    f"operation {op.uid} has ts/txn ({op.ts}, {op.txn_id}) "
                    f"!= transaction ({ts}, {txn_id})"
                )
            if op.ref in seen:
                raise TransactionError(
                    f"transaction {txn_id} writes {op.ref} twice"
                )
            seen.add(op.ref)
        return tuple.__new__(cls, (txn_id, ts, event, ops, conditions))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Transaction":
        return cls(*iterable)

    @property
    def validator(self) -> Operation:
        """The condition-variable-check operation (first state access)."""
        return self.ops[0]

    def write_set(self) -> FrozenSet[StateRef]:
        return frozenset(op.ref for op in self.ops)

    def read_set(self) -> FrozenSet[StateRef]:
        """Every record the transaction reads (ops' reads + condition refs)."""
        refs = set()
        for op in self.ops:
            refs.update(op.reads)
        for cond in self.conditions:
            refs.update(cond.refs)
        return frozenset(refs)

