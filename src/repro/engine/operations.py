"""State access operations and transaction-level abort conditions.

Following Def. 1 of the paper, every operation is a timestamped write
``W_t(k, f(k_1, ..., k_n))``; pure reads appear as the read set of a
write (the workloads in §VIII have no standalone reads either).  The
cross-key reads in ``reads`` are exactly what induces *parametric
dependencies*; the per-transaction :class:`Condition` list is what
induces *logical dependencies* (one failing condition aborts every
operation of the transaction).

Both records are ``NamedTuple``s, like :class:`StateRef`: an epoch
constructs one :class:`Operation` per state access, and a NamedTuple
is built by one Python-level ``__new__`` around one C call where a
frozen class pays one ``object.__setattr__`` per field.  Hot paths (every workload's
``build_transaction``) therefore construct them positionally, and
loops that read several fields bind them to locals once.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.engine.refs import StateRef


class Condition(NamedTuple):
    """A transaction-level abort predicate.

    ``func`` names a registered condition; ``refs`` are the state
    records whose (pre-transaction) values are passed to it, and
    ``params`` the event parameters.  Per §VI-A2 the engine designates
    the transaction's first operation as the *condition-variable-check*
    that evaluates all conditions; other operations logically depend on
    it.
    """

    func: str
    refs: Tuple[StateRef, ...] = ()
    params: Tuple = ()

    def encoded(self) -> tuple:
        return (self.func, tuple(r.encoded() for r in self.refs), self.params)

    @staticmethod
    def from_encoded(raw: tuple) -> "Condition":
        func, refs, params = raw
        return Condition(func, tuple(StateRef.from_encoded(r) for r in refs), tuple(params))


class Operation(NamedTuple):
    """One timestamped write to a shared state record.

    ``uid`` is unique within a processing batch and assigned in
    timestamp order by preprocessing, so ascending-uid order is a
    topological order of the TPG.  ``reads`` lists the *other* records
    the state function consumes; the operation's own record is passed
    separately as ``own``.
    """

    uid: int
    txn_id: int
    ts: int
    ref: StateRef
    func: str
    params: Tuple = ()
    reads: Tuple[StateRef, ...] = ()

    def encoded(self) -> tuple:
        return (
            self.uid,
            self.txn_id,
            self.ts,
            self.ref.encoded(),
            self.func,
            self.params,
            tuple(r.encoded() for r in self.reads),
        )

    @staticmethod
    def from_encoded(raw: tuple) -> "Operation":
        uid, txn_id, ts, ref, func, params, reads = raw
        return Operation(
            uid,
            txn_id,
            ts,
            StateRef.from_encoded(ref),
            func,
            tuple(params),
            tuple(StateRef.from_encoded(r) for r in reads),
        )
