"""Grep&Sum (GS): skewed shared-state summation.

Each *sum* transaction reads a list of states and writes a summation
result back to the first one (§VIII-A) — one operation with a cross-key
read set, so every list element contributes one parametric dependency.
GS is the flexible workload of the sensitivity study (Fig. 14): skew,
multi-partition ratio, abort ratio and read-list length are all dials.

A *write* event kind (blind deposit) supports the write-only
configuration of Fig. 14b.
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

TABLE = "records"


class GrepSum(Workload):
    """Read a Zipfian list of records, write the summation to the first."""

    name = "GS"

    def __init__(
        self,
        num_keys: int = 4096,
        *,
        list_len: int = 4,
        skew: float = 0.5,
        write_ratio: float = 0.0,
        multi_partition_ratio: float = 0.5,
        abort_ratio: float = 0.0,
        initial_value: float = 1.0,
        num_partitions: int = 8,
    ):
        super().__init__(num_partitions)
        if num_keys < max(2, list_len):
            raise WorkloadError("num_keys must cover the read list")
        if list_len < 1:
            raise WorkloadError("list_len must be >= 1")
        for name, ratio in (
            ("write_ratio", write_ratio),
            ("multi_partition_ratio", multi_partition_ratio),
            ("abort_ratio", abort_ratio),
        ):
            if not 0.0 <= ratio <= 1.0:
                raise WorkloadError(f"{name} must be in [0, 1]")
        self.num_keys = num_keys
        self.list_len = list_len
        self.skew = skew
        self.write_ratio = write_ratio
        self.multi_partition_ratio = multi_partition_ratio
        self.abort_ratio = abort_ratio
        self.initial_value = initial_value
        self._table_sizes = {TABLE: num_keys}

    def initial_state(self) -> StateStore:
        return StateStore(
            {TABLE: {k: self.initial_value for k in range(self.num_keys)}}
        )

    def _read_list(self, rng: random.Random, zipf: ZipfianGenerator) -> List[int]:
        """First key Zipfian; remaining keys same/cross partition."""
        first = zipf.next()
        keys = [first]
        first_part = first * self.num_partitions // self.num_keys
        while len(keys) < self.list_len:
            cross = rng.random() < self.multi_partition_ratio
            if cross and self.num_partitions > 1:
                part = rng.randrange(self.num_partitions - 1)
                if part >= first_part:
                    part += 1
            else:
                part = first_part
            lo, hi = self.partition_bounds(TABLE, part)
            candidate = rng.randrange(lo, hi)
            attempts = 0
            while candidate in keys and attempts < hi - lo:
                candidate = lo + (candidate - lo + 1) % (hi - lo)
                attempts += 1
            if candidate in keys:
                raise WorkloadError("partition too small for distinct read list")
            keys.append(candidate)
        return keys

    def generate(self, num_events: int, seed: int = 0) -> List[Event]:
        rng = random.Random(seed)
        zipf = ZipfianGenerator(self.num_keys, self.skew, rng)
        events: List[Event] = []
        for seq in range(num_events):
            if rng.random() < self.write_ratio:
                key = zipf.next()
                value = round(rng.uniform(0.0, 1.0), 4)
                events.append(Event(seq, "write", (key, value)))
            else:
                keys = self._read_list(rng, zipf)
                contribution = round(rng.uniform(0.0, 0.1), 4)
                forced = rng.random() < self.abort_ratio
                events.append(
                    Event(seq, "sum", (tuple(keys), contribution, forced))
                )
        return events

    def build_transaction(
        self, event: Event, uid_base: int, refs: RefTable
    ) -> Transaction:
        # Hot path: positional (uid, txn_id, ts, ref, func, params, reads).
        seq = event.seq
        records = refs[TABLE]
        if event.kind == "write":
            key, value = event.payload
            op = Operation(
                uid_base, seq, seq, records[key], "deposit", (value,)
            )
            return Transaction(seq, seq, event, (op,))
        if event.kind == "sum":
            keys, contribution, forced = event.payload
            target, *reads = map(records.__getitem__, keys)
            op = Operation(
                uid_base,
                seq,
                seq,
                target,
                "grep_sum",
                (contribution,),
                tuple(reads),
            )
            conditions = ()
            if forced:
                conditions = (Condition("lt", (target,), FORCED_ABORT),)
            return Transaction(seq, seq, event, (op,), conditions)
        raise WorkloadError(f"unknown GS event kind {event.kind!r}")

    def output_for(
        self, txn: Transaction, committed: bool, op_values: Dict[int, float]
    ) -> tuple:
        if not committed:
            return (txn.event.kind, "aborted")
        return (txn.event.kind, round(op_values[txn.ops[0].uid], 9))
