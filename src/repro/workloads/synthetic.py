"""Synthetic workload: randomized-but-deterministic transaction shapes.

The three paper benchmarks exercise fixed transaction templates.  For
differential testing of the engine and the recovery schemes we also
want *arbitrary* shapes: transactions with many operations, cross-table
read sets of varying width, zero or several conditions, and any mix of
natural (value-dependent) and forced aborts.  ``SyntheticWorkload``
draws such shapes from a seeded RNG, so every stress case is replayable
from its parameters.

All built-in state functions are fair game for operations; conditions
compare a read record against a threshold drawn so that both outcomes
actually occur over a run.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.engine.events import Event
from repro.engine.operations import Condition, Operation
from repro.engine.refs import RefTable
from repro.engine.state import StateStore
from repro.engine.transactions import Transaction
from repro.errors import WorkloadError
from repro.workloads.base import Workload
from repro.workloads.zipf import ZipfianGenerator

#: Operation templates: (function name, #params, #reads it consumes).
_OP_TEMPLATES: Tuple[Tuple[str, int, int], ...] = (
    ("deposit", 1, 0),
    ("debit", 1, 0),
    ("credit_from", 1, 1),
    ("grep_sum", 1, 2),
    ("ewma", 2, 0),
    ("scale_add", 2, 0),
)

#: Condition templates comparing one read value against a threshold.
_COND_TEMPLATES: Tuple[str, ...] = ("ge", "lt", "gt")


class SyntheticWorkload(Workload):
    """Random transaction shapes over a configurable set of tables."""

    name = "SYN"

    def __init__(
        self,
        num_keys: int = 256,
        *,
        num_tables: int = 3,
        max_ops: int = 4,
        max_conditions: int = 2,
        skew: float = 0.4,
        condition_ratio: float = 0.5,
        forced_abort_ratio: float = 0.05,
        initial_value: float = 100.0,
        num_partitions: int = 4,
    ):
        super().__init__(num_partitions)
        if num_keys < max_ops + 3:
            raise WorkloadError("num_keys must exceed max_ops plus read slack")
        if num_tables < 1:
            raise WorkloadError("need at least one table")
        if max_ops < 1:
            raise WorkloadError("max_ops must be >= 1")
        for name, ratio in (
            ("condition_ratio", condition_ratio),
            ("forced_abort_ratio", forced_abort_ratio),
        ):
            if not 0.0 <= ratio <= 1.0:
                raise WorkloadError(f"{name} must be in [0, 1]")
        self.num_keys = num_keys
        self.num_tables = num_tables
        self.max_ops = max_ops
        self.max_conditions = max_conditions
        self.skew = skew
        self.condition_ratio = condition_ratio
        self.forced_abort_ratio = forced_abort_ratio
        self.initial_value = initial_value
        self.tables = tuple(f"syn{t}" for t in range(num_tables))
        self._table_sizes = {t: num_keys for t in self.tables}

    def initial_state(self) -> StateStore:
        return StateStore(
            {
                t: {k: self.initial_value for k in range(self.num_keys)}
                for t in self.tables
            }
        )

    def _ref(self, rng: random.Random, zipf: ZipfianGenerator) -> Tuple[str, int]:
        return (self.tables[rng.randrange(self.num_tables)], zipf.next())

    def generate(self, num_events: int, seed: int = 0) -> List[Event]:
        """Each event's payload fully describes its transaction shape."""
        rng = random.Random(seed)
        zipf = ZipfianGenerator(self.num_keys, self.skew, rng)
        events: List[Event] = []
        for seq in range(num_events):
            num_ops = rng.randint(1, self.max_ops)
            ops = []
            written: set = set()
            for _ in range(num_ops):
                func, num_params, num_reads = _OP_TEMPLATES[
                    rng.randrange(len(_OP_TEMPLATES))
                ]
                ref = self._ref(rng, zipf)
                attempts = 0
                while ref in written and attempts < 32:
                    ref = self._ref(rng, zipf)
                    attempts += 1
                if ref in written:
                    continue
                written.add(ref)
                if func == "ewma":
                    params = (round(rng.uniform(0.0, 200.0), 4), 0.5)
                elif func == "scale_add":
                    params = (
                        round(rng.uniform(0.5, 0.99), 4),
                        round(rng.uniform(0.0, 5.0), 4),
                    )
                else:
                    params = tuple(
                        round(rng.uniform(0.0, 10.0), 4)
                        for _ in range(num_params)
                    )
                reads = tuple(
                    self._ref(rng, zipf) for _ in range(num_reads)
                )
                ops.append((ref, func, params, reads))
            conditions = []
            if rng.random() < self.condition_ratio:
                for _ in range(rng.randint(1, self.max_conditions)):
                    func = _COND_TEMPLATES[rng.randrange(len(_COND_TEMPLATES))]
                    ref = self._ref(rng, zipf)
                    # Thresholds straddle the value range so conditions
                    # pass sometimes and fail sometimes.
                    threshold = round(rng.uniform(0.0, 2 * self.initial_value), 4)
                    conditions.append((func, ref, (threshold,)))
            if rng.random() < self.forced_abort_ratio:
                ref = self._ref(rng, zipf)
                conditions.append(("lt", ref, (float("-inf"),)))
            events.append(Event(seq, "syn", (tuple(ops), tuple(conditions))))
        return events

    def build_transaction(
        self, event: Event, uid_base: int, refs: RefTable
    ) -> Transaction:
        if event.kind != "syn":
            raise WorkloadError(f"unexpected event kind {event.kind!r}")
        # Hot path: positional (uid, txn_id, ts, ref, func, params, reads).
        seq = event.seq
        raw_ops, raw_conditions = event.payload
        ops = tuple(
            Operation(
                uid, seq, seq, refs[table][key], func, tuple(params),
                tuple(refs[t][k] for t, k in reads),
            )
            for uid, ((table, key), func, params, reads) in enumerate(raw_ops, uid_base)
        )
        conditions = tuple(
            Condition(func, (refs[table][key],), tuple(params))
            for func, (table, key), params in raw_conditions
        )
        return Transaction(seq, seq, event, ops, conditions)

    def output_for(
        self, txn: Transaction, committed: bool, op_values: Dict[int, float]
    ) -> tuple:
        if not committed:
            return ("syn", "aborted")
        return ("syn", round(sum(op_values[op.uid] for op in txn.ops), 6))
