"""Online Bidding (OB): auction items with price and quantity state.

One of the stream applications the paper's introduction motivates
(online bidding) and a standard member of the MorphStream benchmark
family.  Two mutable tables per item — asking price and remaining
quantity — and three event kinds:

- **bid**: buy ``qty`` units at ``offer`` — commits only if the offer
  meets the asking price *and* enough quantity remains (two conditions,
  i.e. rich logical dependencies), decrementing quantity and raising
  the price by a small premium;
- **alter**: the seller adjusts the asking price (EWMA toward a target);
- **topup**: the seller restocks quantity.

Bids on hot items naturally abort once quantity runs out or prices
climb past the offers — data-dependent aborts like Toll Processing, but
with *two* interacting conditions per transaction.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.engine.events import Event
from repro.engine.operations import Condition, Operation
from repro.engine.refs import RefTable
from repro.engine.state import StateStore
from repro.engine.transactions import Transaction
from repro.errors import WorkloadError
from repro.workloads.base import Workload
from repro.workloads.zipf import ZipfianGenerator

PRICE = "ask_price"
QUANTITY = "quantity"


class OnlineBidding(Workload):
    """Bid/alter/topup stream over per-item price and quantity tables."""

    name = "OB"

    def __init__(
        self,
        num_items: int = 512,
        *,
        bid_ratio: float = 0.8,
        alter_ratio: float = 0.1,
        skew: float = 0.5,
        initial_price: float = 50.0,
        initial_quantity: float = 40.0,
        price_premium: float = 0.02,
        num_partitions: int = 8,
    ):
        super().__init__(num_partitions)
        if num_items < 1:
            raise WorkloadError("OB needs at least one item")
        if not 0.0 <= bid_ratio <= 1.0 or not 0.0 <= alter_ratio <= 1.0:
            raise WorkloadError("ratios must be in [0, 1]")
        if bid_ratio + alter_ratio > 1.0:
            raise WorkloadError("bid_ratio + alter_ratio must not exceed 1")
        if initial_price <= 0 or initial_quantity <= 0:
            raise WorkloadError("initial price and quantity must be positive")
        if not 0.0 <= price_premium < 1.0:
            raise WorkloadError("price_premium must be in [0, 1)")
        self.num_items = num_items
        self.bid_ratio = bid_ratio
        self.alter_ratio = alter_ratio
        self.skew = skew
        self.initial_price = initial_price
        self.initial_quantity = initial_quantity
        self.price_premium = price_premium
        self._table_sizes = {PRICE: num_items, QUANTITY: num_items}

    def initial_state(self) -> StateStore:
        return StateStore(
            {
                PRICE: {i: self.initial_price for i in range(self.num_items)},
                QUANTITY: {
                    i: self.initial_quantity for i in range(self.num_items)
                },
            }
        )

    def generate(self, num_events: int, seed: int = 0) -> List[Event]:
        rng = random.Random(seed)
        zipf = ZipfianGenerator(self.num_items, self.skew, rng)
        events: List[Event] = []
        for seq in range(num_events):
            item = zipf.next()
            draw = rng.random()
            if draw < self.bid_ratio:
                # Offers cluster around the initial price; hot items
                # drift above it and start rejecting low offers.
                offer = round(
                    rng.uniform(0.8, 1.6) * self.initial_price, 2
                )
                qty = float(rng.randint(1, 3))
                events.append(Event(seq, "bid", (item, offer, qty)))
            elif draw < self.bid_ratio + self.alter_ratio:
                target = round(rng.uniform(0.7, 1.4) * self.initial_price, 2)
                events.append(Event(seq, "alter", (item, target)))
            else:
                amount = float(rng.randint(5, 20))
                events.append(Event(seq, "topup", (item, amount)))
        return events

    def build_transaction(
        self, event: Event, uid_base: int, refs: RefTable
    ) -> Transaction:
        # Hot path: positional (uid, txn_id, ts, ref, func, params, reads).
        seq = event.seq
        if event.kind == "bid":
            item, offer, qty = event.payload
            price_ref = refs[PRICE][item]
            qty_ref = refs[QUANTITY][item]
            by_qty = (qty,)
            premium = (1.0 + self.price_premium, 0.0)
            ops = (
                Operation(uid_base, seq, seq, qty_ref, "debit", by_qty),
                Operation(
                    uid_base + 1, seq, seq, price_ref, "scale_add", premium
                ),
            )
            conditions = (
                # Enough stock remains...
                Condition("ge", (qty_ref,), by_qty),
                # ...and the offer clears the current asking price.
                Condition("lt", (price_ref,), (offer,)),
            )
            return Transaction(seq, seq, event, ops, conditions)
        if event.kind == "alter":
            item, target = event.payload
            ref = refs[PRICE][item]
            op = Operation(uid_base, seq, seq, ref, "ewma", (target, 0.5))
            return Transaction(seq, seq, event, (op,))
        if event.kind == "topup":
            item, amount = event.payload
            ref = refs[QUANTITY][item]
            op = Operation(uid_base, seq, seq, ref, "deposit", (amount,))
            return Transaction(seq, seq, event, (op,))
        raise WorkloadError(f"unknown OB event kind {event.kind!r}")

    def output_for(
        self, txn: Transaction, committed: bool, op_values: Dict[int, float]
    ) -> tuple:
        kind = txn.event.kind
        if kind == "bid":
            if not committed:
                return ("bid", "rejected")
            remaining = op_values[txn.ops[0].uid]
            return ("bid", "won", round(remaining, 6))
        if not committed:  # pragma: no cover - alters/topups never abort
            return (kind, "aborted")
        return (kind, round(op_values[txn.ops[0].uid], 6))
