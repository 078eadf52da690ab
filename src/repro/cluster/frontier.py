"""Per-epoch cross-shard dependency frontier.

The single-instance MorphStreamR logs an AbortView and a ParametricView
so workers can recover independently (§V of the paper).  A sharded
cluster faces the same problem one level up: a transaction whose
operations span shards makes shard-local recovery depend on values
another shard produced.  The *dependency frontier* is the cluster
analog of those views — for every cross-shard transaction of an epoch
it pins

* the commit/abort verdict (abort view lifted to the cluster), and
* the exact value of every read a surviving operation performs
  (parametric view lifted to the cluster).

Each shard persists the slice of the frontier touching it as an extra
log stream (``"frontier"``), so shard recovery only ever consumes
durable local bytes — concurrent shard recoveries then converge to the
serial ground truth without any cross-shard RPC.

Frontier entries are keyed by ``(event seq, op index within the global
transaction)`` rather than operation uid: uids are assigned per run and
per localization, while seq/op-index are stable across both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.engine.refs import StateRef
from repro.errors import MissingSegmentError


@dataclass(frozen=True)
class FrontierEntry:
    """Pinned outcome of one cross-shard transaction."""

    seq: int
    home: int
    aborted: bool
    #: op index (position in the global transaction's ops) -> read values.
    reads: Dict[int, Tuple[float, ...]] = field(default_factory=dict)

    def encoded(self) -> list:
        return [
            self.seq,
            self.home,
            int(self.aborted),
            [[idx, list(vals)] for idx, vals in sorted(self.reads.items())],
        ]

    @staticmethod
    def decode(payload: list) -> "FrontierEntry":
        seq, home, aborted, reads = payload
        return FrontierEntry(
            seq=seq,
            home=home,
            aborted=bool(aborted),
            reads={idx: tuple(vals) for idx, vals in reads},
        )


class DependencyFrontier:
    """All frontier entries a shard has learned, keyed by event seq."""

    def __init__(self) -> None:
        self._entries: Dict[int, FrontierEntry] = {}

    def record(self, entry: FrontierEntry) -> None:
        self._entries[entry.seq] = entry

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def is_cross(self, seq: int) -> bool:
        return seq in self._entries

    def entry(self, seq: int) -> FrontierEntry:
        try:
            return self._entries[seq]
        except KeyError:
            raise MissingSegmentError(
                f"dependency frontier has no entry for event {seq}"
            ) from None

    def aborted(self, seq: int) -> bool:
        return self.entry(seq).aborted

    def reads_for(self, seq: int, op_index: int) -> Tuple[float, ...]:
        entry = self.entry(seq)
        try:
            return entry.reads[op_index]
        except KeyError:
            raise MissingSegmentError(
                f"frontier entry {seq} lacks reads for op {op_index}"
            ) from None

    def load_epoch(self, payload: list) -> None:
        for item in payload:
            self.record(FrontierEntry.decode(item))


class FederatedView:
    """Read-through view over every shard's live store, write-buffered.

    Used by the coordinator's frontier pass: it executes the epoch's
    global TPG against the union of shard states to learn exact read
    values and verdicts, without mutating any shard store (shards apply
    their own localized transactions afterwards).  Reads hit the write
    buffer first, then the owning shard's store.
    """

    def __init__(self, shard_of, stores) -> None:
        self._shard_of = shard_of
        self._stores = stores
        self._buffer: Dict[StateRef, float] = {}

    def get(self, ref: StateRef) -> float:
        if ref in self._buffer:
            return self._buffer[ref]
        return self._stores[self._shard_of(ref)].get(ref)

    def set(self, ref: StateRef, value: float) -> None:
        self._buffer[ref] = value

    def reads(self) -> Dict[StateRef, float]:
        """As :meth:`~repro.engine.state.StateStore.reads`."""
        return _Reads(self.get)


class _Reads(dict):
    def __init__(self, get) -> None:
        self._get = get

    def __missing__(self, ref: StateRef) -> float:
        value = self[ref] = self._get(ref)
        return value
