"""Crash-surviving stores layered on the codec and the device model.

Three stores mirror what the paper persists (§VI-C), and a fourth holds
what this reproduction adds:

- :class:`EventStore` — every batch of input events, appended by the
  spout before processing (step ① of Fig. 10), enabling replay from the
  failure point.
- :class:`SnapshotStore` — periodic state snapshots (global checkpoints).
- :class:`LogStore` — scheme-specific log records (WAL commands, DL
  dependency records, LV vectors, MorphStreamR views), group-committed
  per epoch.
- :class:`ProgressStore` — the watermark of a recovery in flight, so a
  recovery that itself crashes resumes instead of starting over.

All payloads pass through :mod:`repro.storage.codec`.  The snapshot, log
and progress stores each keep their durable bytes (framed blobs, decoded
by readers) in one dict, the thing :mod:`repro.storage.filedisk` mirrors
to files; the event store keeps the payloads it was handed beside each
one's codec bytes, sliced from the append that wrote them, so replay
decodes nothing and a command log splices an event instead of encoding
it again.  A simulated crash destroys every in-memory component
*except* these stores.  Each mutating/reading call returns the virtual
seconds the device charged so callers can bill a core.

A payload is encoded once.  A writer that also needs the payload's size
encodes it itself and hands the store the :class:`Encoded` bytes; every
size a store reports afterwards comes from what was written, never from
encoding again.

Every store optionally routes its fetches, and its framed flushes (so
not ingress appends), through a
:class:`~repro.storage.faults.FaultInjector` (the chaos layer): a flush
may land torn, bit-flipped or not at all, and a fetch may fail with an
injected EIO.  Stores never hide the damage — framed segments fail
:func:`~repro.storage.integrity.verify` at read time with the stream
and segment named, and the recovery fallback ladder decides what rung
to degrade to.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CorruptSegmentError, MissingSegmentError, StorageError
from repro.storage.codec import (
    Encoded,
    decode,
    encode,
    encoded_list_size,
    split_list,
)
from repro.storage.device import StorageDevice
from repro.storage.faults import FaultInjector
from repro.storage.integrity import protect, verify


def _payload(value: Any) -> bytes:
    """Codec bytes of ``value``: an :class:`Encoded` already holds them,
    anything else takes its one :func:`encode` pass here."""
    return value.data if isinstance(value, Encoded) else encode(value)


def _decode_verified(blob: bytes, context: str) -> Any:
    """Verify a frame and decode its payload.

    A frame whose checksum holds but whose payload does not decode is
    corrupt all the same (written by a damaged process, or a collision):
    report it as such, naming the segment, so the recovery ladder
    degrades past it like any other unreadable segment.
    """
    payload = verify(blob, context)
    try:
        return decode(payload)
    except StorageError as exc:
        raise CorruptSegmentError(
            f"segment in {context} passes its checksum but does not "
            f"decode: {exc}"
        ) from exc


class EventStore:
    """Durable input-event log: arrival-order ingress + epoch sealing.

    The spout appends events the moment they arrive (§VI-C step ①), so
    a crash never loses input — not even events still waiting for the
    punctuation that would form their epoch.  When an epoch forms, its
    events are *sealed*: a tiny boundary record marks which pending
    events belong to it (no payload rewrite).

    Recovery reads sealed epochs by id and can also fetch the pending
    tail (arrived but never processed) to resume exactly where the
    stream stopped.  A mid-epoch crash leaves its epoch sealed but never
    processed; :meth:`reopen_epoch` un-seals it so the events re-enter
    the pending tail and are reprocessed like fresh input.
    """

    def __init__(
        self, device: StorageDevice, faults: Optional[FaultInjector] = None
    ):
        self._device = device
        self._faults = faults
        #: sealed epoch -> event payloads (as appended), in arrival order.
        self._epochs: Dict[int, List[Any]] = {}
        #: arrived but not yet sealed into an epoch.
        self._pending: List[Any] = []
        #: codec bytes of each event, sliced from the append that wrote
        #: them and kept beside it (same keys, same order) through seal
        #: and reopen: every size below is arithmetic over their lengths.
        self._epoch_bytes: Dict[int, List[bytes]] = {}
        self._pending_bytes: List[bytes] = []

    def append_events(self, events: List[Any]) -> float:
        """Ingress append: persist arriving events; returns I/O seconds."""
        batch = list(events)
        sizes: List[int] = []
        blob = encode(batch, sizes)
        self._arrivals_encoded(blob)
        self._pending.extend(batch)
        self._pending_bytes.extend(split_list(blob, sizes))
        return self._device.write(len(blob))

    def _arrivals_encoded(self, blob: bytes) -> None:
        """Hook: the bytes of one ingress append, for a store with a
        real medium to write them to."""

    def seal_epoch(self, epoch_id: int, count: int) -> float:
        """Mark the next ``count`` pending events as epoch ``epoch_id``.

        Writes only a boundary record; payloads were already durable at
        arrival.  Returns I/O seconds.
        """
        if epoch_id in self._epochs:
            raise StorageError(f"epoch {epoch_id} already sealed")
        if count > len(self._pending):
            raise StorageError(
                f"cannot seal {count} events; only {len(self._pending)} pending"
            )
        self._epochs[epoch_id] = self._pending[:count]
        self._pending = self._pending[count:]
        self._epoch_bytes[epoch_id] = self._pending_bytes[:count]
        self._pending_bytes = self._pending_bytes[count:]
        boundary = encode((epoch_id, count))
        return self._device.write(len(boundary))

    def reopen_epoch(self, epoch_id: int) -> int:
        """Un-seal the *newest* sealed epoch back into the pending tail.

        Used after a mid-epoch crash: the dying process sealed the
        epoch's boundary but never finished processing it, so recovery
        returns its events to the ingress buffer for reprocessing.
        Only the tail epoch may be reopened (older epochs committed).
        Returns the number of events returned to the buffer.
        """
        payloads = self._epochs.get(epoch_id)
        if payloads is None:
            raise MissingSegmentError(f"no events sealed for epoch {epoch_id}")
        if epoch_id != max(self._epochs):
            raise StorageError(
                f"cannot reopen epoch {epoch_id}: only the newest sealed "
                "epoch may be returned to the ingress tail"
            )
        del self._epochs[epoch_id]
        self._pending = list(payloads) + self._pending
        self._pending_bytes = self._epoch_bytes.pop(epoch_id) + self._pending_bytes
        return len(payloads)

    def count_epoch(self, epoch_id: int) -> int:
        """Number of events sealed into one epoch (boundary metadata —
        no payload read is charged)."""
        try:
            return len(self._epochs[epoch_id])
        except KeyError:
            raise MissingSegmentError(
                f"no events sealed for epoch {epoch_id}"
            ) from None

    def epoch_bytes(self, epoch_id: int) -> List[bytes]:
        """Codec bytes of each event sealed into one epoch, in arrival
        order (do not mutate the list).

        Charges no device time: the bytes are this process's own ingress
        write, still in hand, or, for a tail restored after a crash,
        bytes :meth:`read_pending` already billed.  A command log splices
        them instead of walking the events through the codec again.
        """
        try:
            return self._epoch_bytes[epoch_id]
        except KeyError:
            raise MissingSegmentError(
                f"no events sealed for epoch {epoch_id}"
            ) from None

    def read_epochs(self, first_epoch: int, last_epoch: int) -> Tuple[List[Any], float]:
        """Read back events of epochs ``first..last`` inclusive.

        Returns ``(events, io_seconds)``.  Missing epochs raise
        :class:`MissingSegmentError` — events are persisted before
        processing, so a gap means they were garbage-collected (or the
        store was misused) and no coarser replay source exists.
        """
        events: List[Any] = []
        seconds = 0.0
        for epoch_id in range(first_epoch, last_epoch + 1):
            payloads = self._epochs.get(epoch_id)
            if payloads is None:
                raise MissingSegmentError(
                    f"no events sealed for epoch {epoch_id}"
                )
            if self._faults is not None:
                self._faults.on_read("events", f"event epoch {epoch_id}")
            seconds += self._device.read(
                encoded_list_size(self._epoch_bytes[epoch_id])
            )
            events.extend(payloads)
        return events, seconds

    def read_pending(self) -> Tuple[List[Any], float]:
        """Fetch the unsealed ingress tail; returns (events, io_seconds)."""
        seconds = (
            self._device.read(encoded_list_size(self._pending_bytes))
            if self._pending
            else 0.0
        )
        return list(self._pending), seconds

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def last_sealed_epoch(self):
        """Newest sealed epoch id, or ``None`` before the first seal."""
        return max(self._epochs) if self._epochs else None

    def truncate_before(self, epoch_id: int) -> int:
        """Garbage-collect sealed epochs older than ``epoch_id``.

        The pending tail is never reclaimed.  Returns bytes freed.
        """
        stale = [e for e in self._epochs if e < epoch_id]
        freed = 0
        for e in stale:
            del self._epochs[e]
            freed += encoded_list_size(self._epoch_bytes.pop(e))
        return freed

    @property
    def bytes_stored(self) -> int:
        sealed = sum(map(encoded_list_size, self._epoch_bytes.values()))
        pending = encoded_list_size(self._pending_bytes) if self._pending else 0
        return sealed + pending


class SnapshotStore:
    """Durable store of global state checkpoints keyed by epoch.

    Two kinds of checkpoints can be persisted:

    - **full** snapshots carry every table;
    - **delta** snapshots carry only records written since the previous
      checkpoint, chained to a base epoch.  Loading a delta epoch walks
      the chain back to its full anchor and reapplies deltas in order —
      the classic incremental-checkpointing trade: less runtime I/O for
      a longer recovery reload.
    """

    _FULL = "full"
    _DELTA = "delta"

    def __init__(
        self, device: StorageDevice, faults: Optional[FaultInjector] = None
    ):
        self._device = device
        self._faults = faults
        #: epoch -> (kind, framed blob, base epoch or None).
        self._snapshots: Dict[int, Tuple[str, bytes, Optional[int]]] = {}

    def _write(self, epoch_id: int, entry: Tuple[str, bytes, Optional[int]]) -> float:
        kind, blob, base = entry
        if self._faults is not None:
            landed = self._faults.on_write(
                "snapshot", f"{kind} snapshot epoch {epoch_id}", blob
            )
            if landed is None:  # dropped flush: nothing reaches the medium
                return self._device.write(len(blob))
            entry = (kind, landed, base)
        self._snapshots[epoch_id] = entry
        return self._device.write(len(blob))

    def put(self, epoch_id: int, state: Any) -> float:
        """Persist a full snapshot taken at the end of ``epoch_id``
        (``state`` as a value, or already :class:`Encoded`)."""
        blob = protect(_payload(state))
        return self._write(epoch_id, (self._FULL, blob, None))

    def put_delta(self, epoch_id: int, delta: Any, base_epoch: int) -> float:
        """Persist a delta over the checkpoint at ``base_epoch``.

        ``delta`` is a (table -> {key: value}) mapping of records
        written since ``base_epoch``'s checkpoint.
        """
        if base_epoch not in self._snapshots:
            raise StorageError(
                f"delta base epoch {base_epoch} has no checkpoint"
            )
        if epoch_id <= base_epoch:
            raise StorageError("delta must come after its base")
        blob = protect(_payload(delta))
        return self._write(epoch_id, (self._DELTA, blob, base_epoch))

    def latest_epoch(self) -> Optional[int]:
        """Epoch of the most recent snapshot, or ``None`` if none exists."""
        return max(self._snapshots) if self._snapshots else None

    def epochs_desc(self) -> List[int]:
        """Every checkpointed epoch, newest first (the fallback ladder's
        candidate order when the latest checkpoint is unreadable)."""
        return sorted(self._snapshots, reverse=True)

    def is_delta(self, epoch_id: int) -> bool:
        entry = self._snapshots.get(epoch_id)
        return entry is not None and entry[0] == self._DELTA

    def chain_base(self, epoch_id: int) -> int:
        """The full-snapshot anchor of the chain ending at ``epoch_id``."""
        entry = self._snapshots.get(epoch_id)
        if entry is None:
            raise MissingSegmentError(f"no snapshot for epoch {epoch_id}")
        while entry[0] == self._DELTA:
            epoch_id = entry[2]
            entry = self._snapshots.get(epoch_id)
            if entry is None:
                raise MissingSegmentError(
                    f"broken delta chain: base epoch {epoch_id} missing"
                )
        return epoch_id

    def load(self, epoch_id: int) -> Tuple[Any, float]:
        """Reconstruct the state checkpointed at ``epoch_id``.

        Full snapshots decode directly; delta snapshots walk back to
        their full anchor and reapply each delta, charging I/O for every
        segment touched.  Returns ``(state, io_seconds)``.
        """
        chain: List[Tuple[str, bytes, int]] = []
        cursor: Optional[int] = epoch_id
        while cursor is not None:
            entry = self._snapshots.get(cursor)
            if entry is None:
                raise MissingSegmentError(f"no snapshot for epoch {cursor}")
            kind, blob, base = entry
            chain.append((kind, blob, cursor))
            if kind == self._FULL:
                break
            cursor = base
        else:  # pragma: no cover - loop always breaks or raises
            raise StorageError("unreachable")

        seconds = 0.0
        state: Any = None
        for kind, blob, seg_epoch in reversed(chain):
            context = f"{kind} snapshot epoch {seg_epoch}"
            if self._faults is not None:
                self._faults.on_read("snapshot", context)
            seconds += self._device.read(len(blob))
            payload = _decode_verified(blob, context)
            if kind == self._FULL:
                state = payload
            else:
                for table, records in payload.items():
                    state.setdefault(table, {}).update(records)
        return state, seconds

    def discard_from(self, epoch_id: int) -> int:
        """Drop checkpoints at or after ``epoch_id`` (mid-epoch crash
        leftovers: a torn snapshot of an epoch that never committed).

        Deltas only chain backwards, so discarding a suffix never breaks
        a surviving chain.  Returns bytes dropped.
        """
        doomed = [e for e in self._snapshots if e >= epoch_id]
        freed = 0
        for e in doomed:
            freed += len(self._snapshots.pop(e)[1])
        return freed

    def truncate_before(self, epoch_id: int) -> int:
        """Reclaim checkpoints older than ``epoch_id``.

        Never breaks a delta chain: epochs that anchor a surviving delta
        are kept even if older than the cutoff.
        """
        needed = set()
        for epoch in self._snapshots:
            if epoch >= epoch_id:
                needed.add(self.chain_base(epoch))
                cursor = epoch
                while self._snapshots[cursor][0] == self._DELTA:
                    cursor = self._snapshots[cursor][2]
                    needed.add(cursor)
        stale = [
            e for e in self._snapshots if e < epoch_id and e not in needed
        ]
        freed = 0
        for e in stale:
            freed += len(self._snapshots.pop(e)[1])
        return freed

    @property
    def bytes_stored(self) -> int:
        return sum(len(blob) for _k, blob, _b in self._snapshots.values())


class LogStore:
    """Durable, epoch-segmented log of scheme-specific records.

    A scheme may keep several named streams (e.g. MorphStreamR's
    ``abort_view`` and ``parametric_view``); each ``(stream, epoch)``
    pair is one group-committed segment.
    """

    def __init__(
        self, device: StorageDevice, faults: Optional[FaultInjector] = None
    ):
        self._device = device
        self._faults = faults
        self._segments: Dict[Tuple[str, int], bytes] = {}

    def commit_epoch(self, stream: str, epoch_id: int, records: Any) -> float:
        """Group-commit ``records`` (a value, or already
        :class:`Encoded`) for ``epoch_id``; returns I/O seconds."""
        key = (stream, epoch_id)
        if key in self._segments:
            raise StorageError(
                f"log stream {stream!r} epoch {epoch_id} already committed"
            )
        blob = protect(_payload(records))
        landed: Optional[bytes] = blob
        if self._faults is not None:
            landed = self._faults.on_write(
                "log",
                f"log stream {stream!r} epoch {epoch_id}",
                blob,
                stream=stream,
            )
        if landed is not None:
            self._segments[key] = landed
        return self._device.write(len(blob))

    def has_epoch(self, stream: str, epoch_id: int) -> bool:
        return (stream, epoch_id) in self._segments

    def read_epoch(self, stream: str, epoch_id: int) -> Tuple[Any, float]:
        """Decode one committed segment; returns (records, io_seconds)."""
        blob = self._segments.get((stream, epoch_id))
        if blob is None:
            raise MissingSegmentError(
                f"log stream {stream!r} has no committed epoch {epoch_id}"
            )
        context = f"log stream {stream!r} epoch {epoch_id}"
        if self._faults is not None:
            self._faults.on_read("log", context, stream=stream)
        seconds = self._device.read(len(blob))
        return _decode_verified(blob, context), seconds

    def read_epochs(
        self, stream: str, first_epoch: int, last_epoch: int
    ) -> Tuple[List[Any], float]:
        """Read and concatenate segments ``first..last`` that exist.

        Epochs without a committed segment are skipped (a scheme with a
        long commit interval legitimately has gaps).
        """
        out: List[Any] = []
        seconds = 0.0
        for epoch_id in range(first_epoch, last_epoch + 1):
            if (stream, epoch_id) in self._segments:
                records, io_s = self.read_epoch(stream, epoch_id)
                seconds += io_s
                out.append(records)
        return out, seconds

    def quarantine(self, stream: str, epoch_id: int) -> int:
        """Drop one unreadable segment (ladder truncate-and-continue).

        Called when recovery detected a torn/corrupt segment and fell
        back to a coarser mechanism for the epoch: the bad bytes must
        not trip a retry.  Returns bytes dropped (0 if absent).
        """
        blob = self._segments.pop((stream, epoch_id), None)
        return len(blob) if blob is not None else 0

    def discard_from(self, epoch_id: int) -> int:
        """Drop every stream's segments at or after ``epoch_id``
        (mid-epoch crash leftovers of epochs that never committed)."""
        doomed = [key for key in self._segments if key[1] >= epoch_id]
        freed = 0
        for key in doomed:
            freed += len(self._segments.pop(key))
        return freed

    def truncate_before(self, epoch_id: int) -> int:
        stale = [key for key in self._segments if key[1] < epoch_id]
        freed = 0
        for key in stale:
            freed += len(self._segments.pop(key))
        return freed

    @property
    def bytes_stored(self) -> int:
        return sum(len(blob) for blob in self._segments.values())


class ProgressStore:
    """Single-slot durable record of how far a recovery has progressed.

    Recovery is itself a long computation that can crash; this store
    holds its watermark so a re-run resumes instead of restarting from
    scratch.  Two CRC-framed slots:

    - the **watermark** — the next epoch to replay, ladder bookkeeping
      and a delta log of the records replay has changed since the
      checkpoint the attempt started from, overwritten as recovery
      advances (epoch granularity);
    - the **chain mark** — a tiny counter of chains finished *within*
      the in-flight epoch, used to quantify (not skip) the wasted
      re-execution of the idempotently re-run epoch.

    Each ``save`` overwrites in place, so a torn flush damages the slot:
    :meth:`load` then raises and recovery degrades to a fresh start —
    strictly convergent, just slower.  Saving a new watermark clears the
    chain mark (marks are relative to the current watermark's epoch).
    """

    _CONTEXT = "recovery progress watermark"
    _MARK_CONTEXT = "recovery chain mark"

    def __init__(
        self, device: StorageDevice, faults: Optional[FaultInjector] = None
    ):
        self._device = device
        self._faults = faults
        #: ``"progress"`` (the watermark) and ``"chain_mark"`` -> framed
        #: bytes; an absent key is an empty slot.
        self._slots: Dict[str, bytes] = {}
        #: Observability: ``(crash_epoch, next_epoch)`` of every
        #: watermark that landed, in save order.  The invariant checker
        #: asserts the sequence is monotone per crash — resumable
        #: recovery must never publish a watermark that moves the
        #: replay cursor backwards (absent slot damage).
        self.watermark_history: List[Tuple[Any, Any]] = []

    def save(self, record: Any, charge_bytes: Optional[int] = None) -> float:
        """Overwrite the watermark slot; returns I/O seconds.

        ``record`` may carry :class:`Encoded` parts (or be one): they
        are spliced into the slot as they are.  ``charge_bytes`` models
        an append-only watermark log: the caller passes the bytes this
        save appends to the record (the delta blobs that are new since
        the previous watermark) and only those are billed; the parts
        saved before are already on the medium.
        """
        blob = protect(_payload(record))
        landed: Optional[bytes] = blob
        if self._faults is not None:
            landed = self._faults.on_write("progress", self._CONTEXT, blob)
        if landed is not None:
            self._slots["progress"] = landed
            self._slots.pop("chain_mark", None)
            if isinstance(record, dict) and "next_epoch" in record:
                self.watermark_history.append(
                    (record.get("crash_epoch"), record.get("next_epoch"))
                )
        return self._device.write(
            len(blob) if charge_bytes is None else charge_bytes
        )

    def load(self) -> Tuple[Optional[Any], float]:
        """Read the watermark; returns ``(record, io_seconds)``.

        ``record`` is ``None`` when no watermark was ever saved (or it
        was cleared).  A damaged slot raises like any framed segment.
        """
        slot = self._slots.get("progress")
        if slot is None:
            return None, 0.0
        if self._faults is not None:
            self._faults.on_read("progress", self._CONTEXT)
        seconds = self._device.read(len(slot))
        return _decode_verified(slot, self._CONTEXT), seconds

    def clear(self) -> float:
        """Drop the watermark (recovery finished); returns I/O seconds."""
        self._slots.clear()
        return self._device.write(1)

    @property
    def exists(self) -> bool:
        return "progress" in self._slots

    def save_chain_mark(self, mark: Any) -> float:
        """Overwrite the per-chain progress mark of the in-flight epoch."""
        blob = protect(encode(mark))
        landed: Optional[bytes] = blob
        if self._faults is not None:
            landed = self._faults.on_write(
                "progress", self._MARK_CONTEXT, blob
            )
        if landed is not None:
            self._slots["chain_mark"] = landed
        return self._device.write(len(blob))

    def load_chain_mark(self) -> Tuple[Optional[Any], float]:
        """Read the chain mark; ``(None, 0.0)`` when absent.

        A damaged mark is treated as absent — it only quantifies wasted
        work, so losing it must never block recovery.
        """
        mark = self._slots.get("chain_mark")
        if mark is None:
            return None, 0.0
        if self._faults is not None:
            self._faults.on_read("progress", self._MARK_CONTEXT)
        seconds = self._device.read(len(mark))
        try:
            return decode(verify(mark, self._MARK_CONTEXT)), seconds
        except StorageError:
            return None, seconds

    @property
    def bytes_stored(self) -> int:
        return sum(len(blob) for blob in self._slots.values())


class Disk:
    """Convenience bundle: one device (and fault plan) shared by the
    four stores."""

    def __init__(
        self,
        device: Optional[StorageDevice] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.device = device or StorageDevice()
        self.faults = faults
        self.events = EventStore(self.device, faults)
        self.snapshots = SnapshotStore(self.device, faults)
        self.logs = LogStore(self.device, faults)
        self.progress = ProgressStore(self.device, faults)

    @property
    def bytes_stored(self) -> int:
        return (
            self.events.bytes_stored
            + self.snapshots.bytes_stored
            + self.logs.bytes_stored
            + self.progress.bytes_stored
        )
