"""Workload contract shared by the three benchmark applications.

A workload owns four deterministic mappings:

1. ``initial_state()`` — the shared mutable tables before any event;
2. ``generate(n, seed)`` — a seedable event stream;
3. ``build_transaction(event, uid_base, refs)`` — preprocessing: the
   exact state transaction an event triggers (Def. 2), with operation
   uids assigned from ``uid_base`` and every ``StateRef`` looked up in
   the batch's :class:`~repro.engine.refs.RefTable` ``refs``;
4. ``output_for(txn, committed, op_values)`` — postprocessing: the
   output the event delivers downstream.

Determinism of (3) and (4) is what makes command logging and event
replay sound: rebuilding a transaction from its persisted event always
yields the same read/write sets and the same output.

Workloads also expose key-range partitioning (``partition_of``), the
notion behind *multi-partition transactions*: state is range-partitioned
across workers, and a transaction touching several partitions induces
the cross-partition dependencies MorphStreamR's selective logging is
about.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Tuple

from repro.engine.events import Event
from repro.engine.refs import RefTable, StateRef
from repro.engine.state import StateStore
from repro.engine.transactions import Transaction
from repro.errors import WorkloadError

#: Params of the always-false ``lt`` condition that forces an abort
#: (no value is below minus infinity); one tuple, shared.
FORCED_ABORT = (float("-inf"),)


class Workload(ABC):
    """Deterministic TSP application: generator + transaction templates."""

    name = "abstract"

    def __init__(self, num_partitions: int = 8):
        if num_partitions < 1:
            raise WorkloadError("num_partitions must be >= 1")
        self.num_partitions = num_partitions
        #: table name -> number of integer keys (0..n-1); subclasses fill.
        self._table_sizes: Dict[str, int] = {}

    @abstractmethod
    def initial_state(self) -> StateStore:
        """A fresh store holding the application's initial tables."""

    @abstractmethod
    def generate(self, num_events: int, seed: int = 0) -> List[Event]:
        """A deterministic stream of ``num_events`` events."""

    @abstractmethod
    def build_transaction(
        self, event: Event, uid_base: int, refs: RefTable
    ) -> Transaction:
        """Preprocessing: the state transaction ``event`` triggers."""

    @abstractmethod
    def output_for(
        self, txn: Transaction, committed: bool, op_values: Dict[int, float]
    ) -> tuple:
        """Postprocessing: the downstream output of one event."""

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------

    def partition_of(self, ref: StateRef) -> int:
        """Range partition of a record: ``key * P // table_size``.

        Integer keys are required; this is the partitioning that defines
        "multi-partition transactions" in the sensitivity studies.
        """
        size = self._table_sizes.get(ref.table)
        if size is None:
            raise WorkloadError(f"unknown table {ref.table!r}")
        if not isinstance(ref.key, int) or not 0 <= ref.key < size:
            raise WorkloadError(f"key {ref.key!r} outside table {ref.table!r}")
        return ref.key * self.num_partitions // size

    def partition_bounds(self, table: str, partition: int) -> Tuple[int, int]:
        """Half-open key range ``[lo, hi)`` of one partition of a table."""
        size = self._table_sizes.get(table)
        if size is None:
            raise WorkloadError(f"unknown table {table!r}")
        if not 0 <= partition < self.num_partitions:
            raise WorkloadError(f"partition {partition} out of range")
        lo = -(-size * partition // self.num_partitions)  # ceil division
        hi = -(-size * (partition + 1) // self.num_partitions)
        return lo, hi

    def spans_partitions(self, txn: Transaction) -> bool:
        """True if the transaction touches more than one partition."""
        parts = {self.partition_of(op.ref) for op in txn.ops}
        for cond_ref in txn.read_set():
            parts.add(self.partition_of(cond_ref))
        return len(parts) > 1
