"""Streaming Ledger (SL): the paper's flagship TSP application.

Transfers money and assets between user accounts (Fig. 1): *deposit*
events top up one account and one asset record; *transfer* events move
a balance between two accounts and between two asset records, guarded
by sufficient-balance conditions on the source records.

Dependency profile (§VIII-A): a relatively high number of dependencies —
the balance conditions parametrically depend on earlier writers of the
source records, and the four writes of a transfer are logically
dependent on the condition check.  Transfers whose destination lies in
a different range partition produce the multi-partition transactions
studied in Figs. 12b and 14a.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.engine.events import Event
from repro.engine.operations import Condition, Operation
from repro.engine.refs import RefTable, StateRef
from repro.engine.state import StateStore
from repro.engine.transactions import Transaction
from repro.errors import WorkloadError
from repro.workloads.base import FORCED_ABORT, Workload
from repro.workloads.zipf import ZipfianGenerator

ACCOUNTS = "accounts"
ASSETS = "assets"


def _forced_condition(ref: StateRef, forced: bool) -> tuple:
    """A deterministic always-false predicate over a real state read
    (the event's first account), used by sensitivity studies to dial
    the abort ratio."""
    return (Condition("lt", (ref,), FORCED_ABORT),) if forced else ()


class StreamingLedger(Workload):
    """Deposit/transfer stream over an accounts table and an assets table."""

    name = "SL"

    def __init__(
        self,
        num_accounts: int = 1024,
        *,
        transfer_ratio: float = 0.5,
        multi_partition_ratio: float = 0.2,
        skew: float = 0.2,
        initial_balance: float = 10_000.0,
        max_amount: float = 100.0,
        forced_abort_ratio: float = 0.0,
        query_ratio: float = 0.0,
        num_partitions: int = 8,
    ):
        super().__init__(num_partitions)
        if num_accounts < 2:
            raise WorkloadError("SL needs at least two accounts")
        if not 0.0 <= transfer_ratio <= 1.0:
            raise WorkloadError("transfer_ratio must be in [0, 1]")
        if not 0.0 <= multi_partition_ratio <= 1.0:
            raise WorkloadError("multi_partition_ratio must be in [0, 1]")
        if not 0.0 <= forced_abort_ratio <= 1.0:
            raise WorkloadError("forced_abort_ratio must be in [0, 1]")
        if not 0.0 <= query_ratio <= 1.0:
            raise WorkloadError("query_ratio must be in [0, 1]")
        self.num_accounts = num_accounts
        self.transfer_ratio = transfer_ratio
        self.multi_partition_ratio = multi_partition_ratio
        self.skew = skew
        self.initial_balance = initial_balance
        self.max_amount = max_amount
        self.forced_abort_ratio = forced_abort_ratio
        self.query_ratio = query_ratio
        self._table_sizes = {ACCOUNTS: num_accounts, ASSETS: num_accounts}

    def initial_state(self) -> StateStore:
        records = {k: self.initial_balance for k in range(self.num_accounts)}
        return StateStore({ACCOUNTS: dict(records), ASSETS: dict(records)})

    def _pick_partner(
        self, rng: random.Random, src: int, cross_partition: bool
    ) -> int:
        """Destination key: same partition as ``src`` unless crossing."""
        src_part = src * self.num_partitions // self.num_accounts
        if cross_partition and self.num_partitions > 1:
            part = rng.randrange(self.num_partitions - 1)
            if part >= src_part:
                part += 1
        else:
            part = src_part
        lo, hi = self.partition_bounds(ACCOUNTS, part)
        dst = rng.randrange(lo, hi)
        if dst == src:  # same partition may collide; nudge deterministically
            dst = lo + (dst - lo + 1) % (hi - lo)
        if dst == src:
            raise WorkloadError("partition too small for distinct partner")
        return dst

    def generate(self, num_events: int, seed: int = 0) -> List[Event]:
        rng = random.Random(seed)
        zipf = ZipfianGenerator(self.num_accounts, self.skew, rng)
        events: List[Event] = []
        for seq in range(num_events):
            amount_a = round(rng.uniform(1.0, self.max_amount), 2)
            amount_b = round(rng.uniform(1.0, self.max_amount), 2)
            forced = rng.random() < self.forced_abort_ratio
            if rng.random() < self.query_ratio:
                events.append(Event(seq, "query", (zipf.next(),)))
                continue
            if rng.random() < self.transfer_ratio:
                src = zipf.next()
                cross = rng.random() < self.multi_partition_ratio
                dst = self._pick_partner(rng, src, cross)
                payload = (src, dst, amount_a, amount_b, forced)
                events.append(Event(seq, "transfer", payload))
            else:
                acc = zipf.next()
                ast = zipf.next()
                events.append(
                    Event(seq, "deposit", (acc, ast, amount_a, amount_b, forced))
                )
        return events

    def build_transaction(
        self, event: Event, uid_base: int, refs: RefTable
    ) -> Transaction:
        # Hot path: positional (uid, txn_id, ts, ref, func, params, reads).
        kind = event.kind
        seq = event.seq
        accounts = refs[ACCOUNTS]
        if kind == "query":
            # A read-only balance inquiry (Def. 1's R_t(k)): the value
            # at the query's timestamp, observed via the chain but
            # leaving the account unchanged.
            (account,) = event.payload
            op = Operation(uid_base, seq, seq, accounts[account], "identity")
            return Transaction(seq, seq, event, (op,))
        if kind == "deposit":
            acc, ast, amount_a, amount_b, forced = event.payload
            acc_ref = accounts[acc]
            ops = (
                Operation(uid_base, seq, seq, acc_ref, "deposit", (amount_a,)),
                Operation(
                    uid_base + 1, seq, seq, refs[ASSETS][ast], "deposit",
                    (amount_b,),
                ),
            )
            conditions = _forced_condition(acc_ref, forced)
            return Transaction(seq, seq, event, ops, conditions)
        if kind == "transfer":
            src, dst, amount_a, amount_b, forced = event.payload
            assets = refs[ASSETS]
            src_acc = accounts[src]
            src_ast = assets[src]
            # One tuple per value, shared by every operation and
            # condition that names it.
            by_a = (amount_a,)
            by_b = (amount_b,)
            from_acc = (src_acc,)
            from_ast = (src_ast,)
            # The destination writes read the source record, following
            # Fig. 3 of the paper (O3 = W(B, f3(B, A, V2)) reads A):
            # crediting is parametrically dependent on the debited state.
            ops = (
                Operation(uid_base, seq, seq, src_acc, "debit", by_a),
                Operation(
                    uid_base + 1, seq, seq, accounts[dst], "credit_from",
                    by_a, from_acc,
                ),
                Operation(uid_base + 2, seq, seq, src_ast, "debit", by_b),
                Operation(
                    uid_base + 3, seq, seq, assets[dst], "credit_from",
                    by_b, from_ast,
                ),
            )
            conditions = (
                Condition("ge", from_acc, by_a),
                Condition("ge", from_ast, by_b),
            ) + _forced_condition(src_acc, forced)
            return Transaction(seq, seq, event, ops, conditions)
        raise WorkloadError(f"unknown SL event kind {event.kind!r}")

    def output_for(
        self, txn: Transaction, committed: bool, op_values: Dict[int, float]
    ) -> tuple:
        if not committed:
            return (txn.event.kind, "aborted")
        value = round(op_values[txn.ops[0].uid], 6)
        if txn.event.kind == "transfer":
            return ("invoice", value)
        if txn.event.kind == "query":
            return ("query", value)
        return ("balance", value)
