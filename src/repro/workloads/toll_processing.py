"""Toll Processing (TP): Linear-Road-style congestion tolling [18].

Roads are divided into segments; two mutable tables record the
(exponentially averaged) speed of each segment and the count of unique
vehicles seen on it.  Each vehicle report triggers one state transaction
that updates both records and computes a toll from the resulting
congestion.

Abort profile (§VIII-A): transaction aborting is common in TP.  Here
aborts are *data-dependent*: a report is rejected once its segment's
vehicle count reaches capacity, so hot segments saturate as the stream
progresses and their reports abort — exactly the kind of abort only
resolvable through dependency information.
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
from repro.workloads.base import FORCED_ABORT, Workload
from repro.workloads.zipf import ZipfianGenerator

SPEED = "road_speed"
COUNT = "road_count"

#: Toll formula constants: base toll scaled by congestion below the limit.
SPEED_LIMIT = 80.0
BASE_TOLL = 2.0


class TollProcessing(Workload):
    """Vehicle-report stream updating per-segment speed and count tables."""

    name = "TP"

    def __init__(
        self,
        num_segments: int = 512,
        *,
        skew: float = 0.3,
        capacity: float = 60.0,
        alpha: float = 0.3,
        initial_speed: float = 60.0,
        forced_abort_ratio: float = 0.0,
        num_partitions: int = 8,
    ):
        super().__init__(num_partitions)
        if num_segments < 1:
            raise WorkloadError("TP needs at least one segment")
        if not 0.0 < alpha <= 1.0:
            raise WorkloadError("alpha must be in (0, 1]")
        if capacity <= 0:
            raise WorkloadError("capacity must be > 0")
        if not 0.0 <= forced_abort_ratio <= 1.0:
            raise WorkloadError("forced_abort_ratio must be in [0, 1]")
        self.num_segments = num_segments
        self.skew = skew
        self.capacity = capacity
        self.alpha = alpha
        self.initial_speed = initial_speed
        self.forced_abort_ratio = forced_abort_ratio
        self._table_sizes = {SPEED: num_segments, COUNT: num_segments}

    def initial_state(self) -> StateStore:
        return StateStore(
            {
                SPEED: {s: self.initial_speed for s in range(self.num_segments)},
                COUNT: {s: 0.0 for s in range(self.num_segments)},
            }
        )

    def generate(self, num_events: int, seed: int = 0) -> List[Event]:
        rng = random.Random(seed)
        zipf = ZipfianGenerator(self.num_segments, self.skew, rng)
        events: List[Event] = []
        for seq in range(num_events):
            segment = zipf.next()
            speed = round(rng.uniform(20.0, 100.0), 2)
            forced = rng.random() < self.forced_abort_ratio
            events.append(Event(seq, "report", (segment, speed, forced)))
        return events

    def build_transaction(
        self, event: Event, uid_base: int, refs: RefTable
    ) -> Transaction:
        if event.kind != "report":
            raise WorkloadError(f"unknown TP event kind {event.kind!r}")
        # Hot path: positional (uid, txn_id, ts, ref, func, params, reads).
        seq = event.seq
        segment, speed, forced = event.payload
        count_ref = refs[COUNT][segment]
        ops = (
            Operation(
                uid_base, seq, seq, refs[SPEED][segment], "ewma",
                (speed, self.alpha),
            ),
            Operation(uid_base + 1, seq, seq, count_ref, "increment"),
        )
        on_count = (count_ref,)
        conditions = (Condition("lt", on_count, (self.capacity,)),)
        if forced:
            conditions += (Condition("lt", on_count, FORCED_ABORT),)
        return Transaction(seq, seq, event, ops, conditions)

    def output_for(
        self, txn: Transaction, committed: bool, op_values: Dict[int, float]
    ) -> tuple:
        if not committed:
            return ("report", "rejected")
        avg_speed = op_values[txn.ops[0].uid]
        congestion = max(0.0, 1.0 - avg_speed / SPEED_LIMIT)
        toll = round(BASE_TOLL * congestion, 6)
        return ("toll", toll)
