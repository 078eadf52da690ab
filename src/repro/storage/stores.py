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

All payloads pass through :mod:`repro.storage.codec`, except input
events, which are packed rows (:mod:`repro.storage.rows`).  Each store
keeps its durable bytes in one dict, the thing
:mod:`repro.storage.filedisk` mirrors to files (the event store's layout
is on :class:`EventStore`); beside it the event store keeps each event's
row, sliced from the append that wrote it, and nothing else: replay
decodes the rows it reads, and a command log splices them.  A simulated
crash destroys every in-memory component *except* these stores.  Each
mutating/reading call returns the virtual seconds the device charged so
callers can bill a core.

A payload is encoded once.  A writer that also needs the payload's size
encodes it itself and hands the store the :class:`Encoded` bytes; every
size a store reports afterwards comes from what was written, never from
encoding again.

Every store optionally routes its fetches, and its framed flushes
other than ingress appends, through a
:class:`~repro.storage.faults.FaultInjector` (the chaos layer): a flush
may land torn, bit-flipped or not at all, and a fetch may fail with an
injected EIO.  Stores never hide the damage — framed segments fail
:func:`~repro.storage.integrity.verify` at read time with the stream
and segment named, and the recovery fallback ladder decides what rung
to degrade to.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CorruptSegmentError, MissingSegmentError, StorageError
from repro.storage.codec import Encoded, ImageLayout, decode, encode
from repro.storage.device import StorageDevice
from repro.storage.faults import FaultInjector
from repro.storage.integrity import protect, verify
from repro.storage.rows import ROWS, RowSchemas, decode_rows, split_rows


def _payload(value: Any) -> bytes:
    """Codec bytes of ``value``: an :class:`Encoded` already holds them,
    anything else takes its one :func:`encode` pass here."""
    return value.data if isinstance(value, Encoded) else encode(value)


def _decode_verified(blob: bytes, context: str, layout: Optional[ImageLayout] = None) -> Any:
    """Verify a frame and decode its payload (a rows payload to
    :class:`~repro.storage.rows.Rows`, anything else with the codec),
    unless ``layout`` adopts it as a :class:`~repro.storage.codec.StateImage`.

    A frame whose checksum holds but whose payload does not decode is
    corrupt all the same (written by a damaged process, or a collision):
    report it as such, naming the segment, so the recovery ladder
    degrades past it like any other unreadable segment.
    """
    payload = verify(blob, context)
    image = None if layout is None else layout.adopt(payload)
    if image is not None:
        return image
    try:
        return decode_rows(payload) if payload[:1] == ROWS else decode(payload)
    except StorageError as exc:
        raise CorruptSegmentError(
            f"segment in {context} passes its checksum but does not "
            f"decode: {exc}"
        ) from exc


class _Store:
    """What the four stores share: the device that prices every
    operation, the fault plan, and the one write and read path."""

    def __init__(
        self, device: StorageDevice, faults: Optional[FaultInjector] = None
    ):
        self._device = device
        self._faults = faults

    def _flush(
        self,
        category: str,
        context: str,
        payload: Any,
        land: Callable[[bytes], Any],
        stream: Optional[str] = None,
        charge: Optional[int] = None,
        lead: bytes = b"",
    ) -> float:
        """Frame ``payload`` (after a ``lead`` format byte), let the fault
        plan tear, flip or drop the blob, hand what lands to ``land`` and
        charge the whole blob (or ``charge`` bytes): a dropped flush
        still costs its I/O.  Ingress appends (``"events"``) are not in
        the fault model: :class:`~repro.storage.faults.FaultSpec` refuses
        write faults on them, so they never reach the plan."""
        blob = lead + protect(_payload(payload))
        landed: Optional[bytes] = blob
        if self._faults is not None and category != "events":
            landed = self._faults.on_write(category, context, blob, stream=stream)
        if landed is not None:
            land(landed)
        return self._device.write(len(blob) if charge is None else charge)

    def _fetch(
        self, category: str, context: str, nbytes: int, stream: Optional[str] = None
    ) -> float:
        """Let the fault plan fail one fetch, then charge its bytes."""
        if self._faults is not None:
            self._faults.on_read(category, context, stream=stream)
        return self._device.read(nbytes)


#: The event store's ``base`` slot (see :class:`EventStore`).
_BASE = ("base", 0)


def _size(rows: List[bytes]) -> int:
    return sum(map(len, rows))


class EventStore(_Store):
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

    The store keeps bytes only: each event's packed row
    (:mod:`repro.storage.rows`), sliced from the append that wrote it,
    and every read decodes the rows it returns.  A command log splices
    the rows (:meth:`epoch_bytes`, :meth:`rows_payload`) instead of
    encoding its commands again.

    The durable form is one dict of blobs, ``_log``, changed one whole
    item at a time: ``("arrivals", i)`` holds the ingress append whose
    first event has index ``i`` (events are numbered in arrival order
    over the store's life); ``("seal", e)`` epoch ``e``'s boundary
    record ``(e, count)`` (epochs seal in id order, each taking the
    oldest pending events); ``_BASE`` the first live event's index and
    the epoch that starts there.  Garbage collection overwrites
    ``_BASE`` first, its commit point, then deletes the items below it.
    An append is :data:`~repro.storage.rows.ROWS` followed by the frame
    of its rows payload, the only form a reopen reads.
    """

    def __init__(
        self, device: StorageDevice, faults: Optional[FaultInjector] = None
    ):
        super().__init__(device, faults)
        self._log: Dict[Tuple[str, int], bytes] = {}
        #: global index the next appended event gets.
        self._next_index = 0
        #: the epoch ``_BASE`` names; no seal may go below it.
        self._base_epoch = 0
        self._schemas = RowSchemas()
        #: each sealed epoch's rows, and the unsealed tail's, in arrival
        #: order: every size below is arithmetic over their lengths.
        self._epoch_bytes: Dict[int, List[bytes]] = {}
        self._pending_bytes: List[bytes] = []

    def _restore(self) -> None:
        """Rebuild the epochs and the pending tail from ``_log`` (a
        reopened medium), deleting the items a garbage collection
        interrupted after its commit point left below ``_BASE``."""
        base, self._base_epoch = (
            decode(self._log[_BASE]) if _BASE in self._log else (0, 0)
        )
        for start in sorted(i for kind, i in self._log if kind == "arrivals"):
            self._pending_bytes.extend(self._read_append(start)[max(base - start, 0) :])
        self._next_index = base + len(self._pending_bytes)
        for epoch_id in sorted(e for kind, e in self._log if kind == "seal"):
            if epoch_id >= self._base_epoch:
                self._take(epoch_id, decode(self._log[("seal", epoch_id)])[1])
        self._sweep(base)

    def _read_append(self, start: int) -> List[bytes]:
        """The rows of one reopened append, its declarations adopted.  An
        append not led by :data:`~repro.storage.rows.ROWS` (the codec
        list older builds wrote, say) or whose payload does not decode is
        a :class:`CorruptSegmentError`; a frame that fails its check
        raises as :func:`verify` does; each names the append."""
        blob = self._log[("arrivals", start)]
        context = f"event append {start}"
        if blob[:1] != ROWS:
            raise CorruptSegmentError(f"{context} is not led by the rows byte")
        payload = verify(blob[1:], context)
        try:
            decls, rows, _tail = split_rows(payload)
            self._schemas.declare(decls)
        except StorageError as exc:
            raise CorruptSegmentError(f"{context} does not decode: {exc}") from exc
        return rows

    def _sweep(self, base: int) -> None:
        """Delete the seals below ``_BASE``'s epoch and the appends that
        lie wholly below event ``base``."""
        starts = sorted(i for kind, i in self._log if kind == "arrivals")
        for start, end in zip(starts, starts[1:] + [self._next_index]):
            if start < base and end <= base:
                del self._log[("arrivals", start)]
        doomed = [k for k in self._log if k[0] == "seal" and k[1] < self._base_epoch]
        for key in doomed:
            del self._log[key]

    def append_events(self, events: Sequence[Any]) -> float:
        """Ingress append: persist arriving ``(seq, kind, payload)``
        events as one framed rows payload; returns I/O seconds."""
        rows = self._schemas.pack(events)
        key = ("arrivals", self._next_index)
        self._next_index += len(rows)
        self._pending_bytes.extend(rows)
        return self._flush(
            "events",
            f"event append {key[1]}",
            Encoded(self._schemas.payload(rows)),
            partial(self._log.__setitem__, key),
            lead=ROWS,
        )

    def seal_epoch(self, epoch_id: int, count: int) -> float:
        """Mark the next ``count`` pending events as epoch ``epoch_id``.

        Writes only a boundary record; payloads were already durable at
        arrival.  Returns I/O seconds.
        """
        if epoch_id <= max(self._epoch_bytes, default=self._base_epoch - 1):
            raise StorageError(f"epoch {epoch_id} sealed out of id order")
        if count > len(self._pending_bytes):
            raise StorageError(
                f"cannot seal {count} events; only {len(self._pending_bytes)} pending"
            )
        boundary = encode((epoch_id, count))
        self._log[("seal", epoch_id)] = boundary
        self._take(epoch_id, count)
        return self._device.write(len(boundary))

    def _take(self, epoch_id: int, count: int) -> None:
        """Move the oldest ``count`` pending events into ``epoch_id``."""
        self._epoch_bytes[epoch_id] = self._pending_bytes[:count]
        self._pending_bytes = self._pending_bytes[count:]

    def reopen_epoch(self, epoch_id: int) -> int:
        """Un-seal the *newest* sealed epoch back into the pending tail.

        Used after a mid-epoch crash: the dying process sealed the
        epoch's boundary but never finished processing it, so recovery
        returns its events to the ingress buffer for reprocessing.
        Only the tail epoch may be reopened (older epochs committed).
        Returns the number of events returned to the buffer.
        """
        rows = self._epoch_bytes.get(epoch_id)
        if rows is None:
            raise MissingSegmentError(f"no events sealed for epoch {epoch_id}")
        if epoch_id != max(self._epoch_bytes):
            raise StorageError(
                f"cannot reopen epoch {epoch_id}: only the newest sealed "
                "epoch may be returned to the ingress tail"
            )
        del self._log[("seal", epoch_id)]
        del self._epoch_bytes[epoch_id]
        self._pending_bytes = rows + self._pending_bytes
        return len(rows)

    def count_epoch(self, epoch_id: int) -> int:
        """Number of events sealed into one epoch (boundary metadata —
        no payload read is charged)."""
        return len(self.epoch_bytes(epoch_id))

    def epoch_bytes(self, epoch_id: int) -> List[bytes]:
        """The row of each event sealed into one epoch, in arrival order
        (do not mutate the list).

        Charges no device time: the rows are this process's own ingress
        write, still in hand, or, for a tail restored after a crash,
        bytes :meth:`read_pending` already billed.  A command log splices
        them (:meth:`rows_payload`) instead of walking the events through
        the codec again.
        """
        try:
            return self._epoch_bytes[epoch_id]
        except KeyError:
            raise MissingSegmentError(
                f"no events sealed for epoch {epoch_id}"
            ) from None

    def rows_payload(self, rows: List[bytes], tail: Optional[tuple] = None) -> bytes:
        """A self-contained rows payload of some of this store's rows
        (and one ``tail`` int tuple per row): a command-log segment."""
        return self._schemas.payload(rows, tail)

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
            rows = self.epoch_bytes(epoch_id)
            seconds += self._fetch("events", f"event epoch {epoch_id}", _size(rows))
            events.extend(self._schemas.unpack(rows))
        return events, seconds

    def read_pending(self) -> Tuple[List[Any], float]:
        """Fetch the unsealed ingress tail; returns (events, io_seconds)."""
        rows = self._pending_bytes
        seconds = self._device.read(_size(rows)) if rows else 0.0
        return self._schemas.unpack(rows), seconds

    @property
    def pending_count(self) -> int:
        return len(self._pending_bytes)

    def last_sealed_epoch(self):
        """Newest sealed epoch id, or ``None`` before the first seal."""
        return max(self._epoch_bytes) if self._epoch_bytes else None

    def truncate_before(self, epoch_id: int) -> int:
        """Garbage-collect sealed epochs older than ``epoch_id``.

        The pending tail is never reclaimed.  Returns bytes freed.
        """
        stale = [e for e in self._epoch_bytes if e < epoch_id]
        if not stale:
            return 0
        freed = sum(_size(self._epoch_bytes.pop(e)) for e in stale)
        live = len(self._pending_bytes) + sum(map(len, self._epoch_bytes.values()))
        base = self._next_index - live
        self._base_epoch = min(self._epoch_bytes, default=max(stale) + 1)
        # The commit point: from here a reopen serves the collected log
        # and deletes whatever of the sweep below did not happen.
        self._log[_BASE] = encode((base, self._base_epoch))
        self._sweep(base)
        return freed

    @property
    def bytes_stored(self) -> int:
        sealed = sum(map(_size, self._epoch_bytes.values()))
        return sealed + _size(self._pending_bytes)


class SnapshotStore(_Store):
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
        super().__init__(device, faults)
        #: epoch -> (kind, framed blob, base epoch or None).
        self._snapshots: Dict[int, Tuple[str, bytes, Optional[int]]] = {}

    def _write(
        self, epoch_id: int, kind: str, payload: Any, base: Optional[int]
    ) -> float:
        def land(blob: bytes) -> None:
            self._snapshots[epoch_id] = (kind, blob, base)

        context = f"{kind} snapshot epoch {epoch_id}"
        return self._flush("snapshot", context, payload, land)

    def put(self, epoch_id: int, state: Any) -> float:
        """Persist a full snapshot taken at the end of ``epoch_id``
        (``state`` as a value, or already :class:`Encoded`)."""
        return self._write(epoch_id, self._FULL, state, None)

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
        return self._write(epoch_id, self._DELTA, delta, base_epoch)

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

    def load(self, epoch_id: int, layout: Optional[ImageLayout] = None) -> Tuple[Any, float]:
        """Reconstruct the state checkpointed at ``epoch_id``.

        A full snapshot laid out as ``layout`` is adopted as the image of
        its bytes; others decode directly.  Delta snapshots walk back to
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
            seconds += self._fetch("snapshot", context, len(blob))
            payload = _decode_verified(blob, context, layout if len(chain) == 1 else None)
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


class LogStore(_Store):
    """Durable, epoch-segmented log of scheme-specific records.

    A scheme may keep several named streams (e.g. MorphStreamR's
    ``abort_view`` and ``parametric_view``); each ``(stream, epoch)``
    pair is one group-committed segment.
    """

    def __init__(
        self, device: StorageDevice, faults: Optional[FaultInjector] = None
    ):
        super().__init__(device, faults)
        self._segments: Dict[Tuple[str, int], bytes] = {}

    def commit_epoch(self, stream: str, epoch_id: int, records: Any) -> float:
        """Group-commit ``records`` (a value, or already
        :class:`Encoded`) for ``epoch_id``; returns I/O seconds."""
        key = (stream, epoch_id)
        if key in self._segments:
            raise StorageError(
                f"log stream {stream!r} epoch {epoch_id} already committed"
            )
        context = f"log stream {stream!r} epoch {epoch_id}"
        land = partial(self._segments.__setitem__, key)
        return self._flush("log", context, records, land, stream=stream)

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
        seconds = self._fetch("log", context, len(blob), stream=stream)
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


class ProgressStore(_Store):
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
        super().__init__(device, faults)
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

        def land(blob: bytes) -> None:
            self._slots["progress"] = blob
            self._slots.pop("chain_mark", None)
            if isinstance(record, dict) and "next_epoch" in record:
                self.watermark_history.append(
                    (record.get("crash_epoch"), record.get("next_epoch"))
                )

        return self._flush("progress", self._CONTEXT, record, land, charge=charge_bytes)

    def load(self) -> Tuple[Optional[Any], float]:
        """Read the watermark; returns ``(record, io_seconds)``.

        ``record`` is ``None`` when no watermark was ever saved (or it
        was cleared).  A damaged slot raises like any framed segment.
        """
        slot = self._slots.get("progress")
        if slot is None:
            return None, 0.0
        seconds = self._fetch("progress", self._CONTEXT, len(slot))
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
        land = partial(self._slots.__setitem__, "chain_mark")
        return self._flush("progress", self._MARK_CONTEXT, mark, land)

    def load_chain_mark(self) -> Tuple[Optional[Any], float]:
        """Read the chain mark; ``(None, 0.0)`` when absent.

        A damaged mark is treated as absent — it only quantifies wasted
        work, so losing it must never block recovery.
        """
        mark = self._slots.get("chain_mark")
        if mark is None:
            return None, 0.0
        seconds = self._fetch("progress", self._MARK_CONTEXT, len(mark))
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
