"""State transactions (Def. 2): all state accesses of one input event.

Invariants enforced at construction time:

- all operations share the transaction's timestamp;
- no two operations write the same record (within-transaction reads see
  the pre-transaction snapshot, so a double write would be ambiguous);
- the first operation is the designated *condition-variable-check*
  (§VI-A2): it is the operation on which every other operation in the
  transaction logically depends, and it evaluates all conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.engine.events import Event
from repro.engine.operations import Condition, Operation
from repro.engine.refs import StateRef
from repro.errors import TransactionError


@dataclass(frozen=True)
class Transaction:
    """One state transaction: ordered operations plus abort conditions."""

    txn_id: int
    ts: int
    event: Event
    ops: Tuple[Operation, ...]
    conditions: Tuple[Condition, ...] = ()

    def __post_init__(self) -> None:
        if not self.ops:
            raise TransactionError(f"transaction {self.txn_id} has no operations")
        seen: set = set()
        for op in self.ops:
            if op.ts != self.ts or op.txn_id != self.txn_id:
                raise TransactionError(
                    f"operation {op.uid} has ts/txn ({op.ts}, {op.txn_id}) "
                    f"!= transaction ({self.ts}, {self.txn_id})"
                )
            if op.ref in seen:
                raise TransactionError(
                    f"transaction {self.txn_id} writes {op.ref} twice"
                )
            seen.add(op.ref)

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

