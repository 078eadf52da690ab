"""File-backed durable stores: crash-survival across real processes.

The in-memory :class:`~repro.storage.stores.Disk` survives a *simulated*
crash.  This module makes durability literal: every durable mutation is
written through to a real file under a root directory, and a brand-new
process can reopen that directory and recover.  Virtual-time accounting
is unchanged (the device model still prices every operation); the files
are the proof that nothing recovers from live memory.

Layout::

    root/
      events/arrivals_<n>.bin      one file per ingress append
      events/boundaries.log        one line per sealed epoch: "<id> <count>"
      snapshots/<id>.full          framed full snapshot
      snapshots/<id>.delta.<base>  framed delta over <base>
      logs/<stream>/<id>.bin       framed group-committed segment

Writes happen before the in-memory update returns, mirroring a
write-ahead discipline; deletes (GC) remove files.  ``open`` rebuilds
the in-memory state purely from the files.

Partial flushes are representable: a file may legitimately hold a torn
(prefix-only) or bit-flipped segment after a crash or injected fault.
Reopening performs an ARIES-style tail scan over each log stream — the
*newest* segment(s) failing frame verification are truncated away (a
torn tail is the expected debris of a crash mid-flush) and recorded in
``truncated_tails``; unreadable segments in the middle of retained
history are kept for the recovery fallback ladder to handle loudly.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, List, Optional, Tuple

from repro.errors import StorageError
from repro.storage.codec import decode, encode
from repro.storage.device import StorageDevice
from repro.storage.faults import FaultInjector
from repro.storage.integrity import verify
from repro.storage.stores import (
    Disk,
    EventStore,
    LogStore,
    ProgressStore,
    SnapshotStore,
)


class FileEventStore(EventStore):
    """Event store writing arrivals and epoch boundaries through to disk."""

    def __init__(
        self,
        device: StorageDevice,
        root: Path,
        faults: Optional[FaultInjector] = None,
    ):
        super().__init__(device, faults)
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._arrival_index = 0
        self._load()

    def _boundaries_path(self) -> Path:
        return self._root / "boundaries.log"

    def _load(self) -> None:
        arrivals = sorted(
            self._root.glob("arrivals_*.bin"),
            key=lambda p: int(p.stem.split("_")[1]),
        )
        stream: List[Any] = []
        sizes: List[int] = []
        for path in arrivals:
            stream.extend(decode(path.read_bytes(), sizes))
            self._arrival_index = int(path.stem.split("_")[1]) + 1
        cursor = 0
        if self._boundaries_path().exists():
            for line in self._boundaries_path().read_text().splitlines():
                epoch_id, count = (int(part) for part in line.split())
                self._epochs[epoch_id] = stream[cursor : cursor + count]
                self._epoch_sizes[epoch_id] = sizes[cursor : cursor + count]
                cursor += count
        self._pending = stream[cursor:]
        self._pending_sizes = sizes[cursor:]
        # GC'd epochs leave holes: boundaries of reclaimed epochs were
        # rewritten at truncate time, so the replay above is exact.

    def _arrivals_encoded(self, blob: bytes) -> None:
        path = self._root / f"arrivals_{self._arrival_index}.bin"
        path.write_bytes(blob)
        self._arrival_index += 1

    def seal_epoch(self, epoch_id: int, count: int) -> float:
        seconds = super().seal_epoch(epoch_id, count)
        with self._boundaries_path().open("a") as handle:
            handle.write(f"{epoch_id} {count}\n")
        return seconds

    def reopen_epoch(self, epoch_id: int) -> int:
        count = super().reopen_epoch(epoch_id)
        # The un-seal must itself be durable: rewrite the boundaries so
        # a second crash does not resurrect the half-processed epoch.
        self._rewrite_files()
        return count

    def truncate_before(self, epoch_id: int) -> int:
        freed = super().truncate_before(epoch_id)
        self._rewrite_files()
        return freed

    def _rewrite_files(self) -> None:
        """Compact: one arrivals file of surviving events + boundaries."""
        for path in self._root.glob("arrivals_*.bin"):
            path.unlink()
        surviving: List[Any] = []
        lines = []
        for epoch_id in sorted(self._epochs):
            payloads = self._epochs[epoch_id]
            surviving.extend(payloads)
            lines.append(f"{epoch_id} {len(payloads)}")
        surviving.extend(self._pending)
        (self._root / "arrivals_0.bin").write_bytes(encode(surviving))
        self._arrival_index = 1
        self._boundaries_path().write_text(
            "\n".join(lines) + ("\n" if lines else "")
        )


class FileSnapshotStore(SnapshotStore):
    """Snapshot store persisting framed blobs as files."""

    def __init__(
        self,
        device: StorageDevice,
        root: Path,
        faults: Optional[FaultInjector] = None,
    ):
        super().__init__(device, faults)
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        for path in self._root.iterdir():
            parts = path.name.split(".")
            if parts[-1] == "full" or parts[-2:-1] == ["full"]:
                epoch_id = int(parts[0])
                self._snapshots[epoch_id] = (self._FULL, path.read_bytes(), None)
            elif "delta" in parts:
                epoch_id = int(parts[0])
                base = int(parts[-1])
                self._snapshots[epoch_id] = (
                    self._DELTA,
                    path.read_bytes(),
                    base,
                )

    def put(self, epoch_id: int, state: Any) -> float:
        seconds = super().put(epoch_id, state)
        entry = self._snapshots.get(epoch_id)
        if entry is not None:  # a dropped flush never reaches the medium
            (self._root / f"{epoch_id}.full").write_bytes(entry[1])
        return seconds

    def put_delta(self, epoch_id: int, delta: Any, base_epoch: int) -> float:
        seconds = super().put_delta(epoch_id, delta, base_epoch)
        entry = self._snapshots.get(epoch_id)
        if entry is not None:
            (self._root / f"{epoch_id}.delta.{base_epoch}").write_bytes(
                entry[1]
            )
        return seconds

    def discard_from(self, epoch_id: int) -> int:
        before = set(self._snapshots)
        freed = super().discard_from(epoch_id)
        for stale in before - set(self._snapshots):
            for path in self._root.glob(f"{stale}.*"):
                path.unlink()
        return freed

    def truncate_before(self, epoch_id: int) -> int:
        before = set(self._snapshots)
        freed = super().truncate_before(epoch_id)
        for stale in before - set(self._snapshots):
            for path in self._root.glob(f"{stale}.*"):
                path.unlink()
        return freed


class FileLogStore(LogStore):
    """Log store persisting framed segments as files per stream."""

    def __init__(
        self,
        device: StorageDevice,
        root: Path,
        faults: Optional[FaultInjector] = None,
    ):
        super().__init__(device, faults)
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        #: (stream, epoch) pairs whose segments were truncated away by
        #: the reopen tail scan (torn flushes of the dying process).
        self.truncated_tails: List[Tuple[str, int]] = []
        for stream_dir in self._root.iterdir():
            if not stream_dir.is_dir():
                continue
            for path in stream_dir.glob("*.bin"):
                epoch_id = int(path.stem)
                self._segments[(stream_dir.name, epoch_id)] = path.read_bytes()
        self._scan_torn_tails()

    def _scan_torn_tails(self) -> None:
        """ARIES-style tail scan: truncate trailing unreadable segments.

        The newest segment of a stream may be a torn flush from the
        crash that killed the previous process; such tails are dropped
        (file and all) so recovery falls back cleanly.  An unreadable
        segment *behind* a readable one is genuine corruption and is
        kept — the fallback ladder must confront it loudly at read time.
        """
        streams = {stream for stream, _e in self._segments}
        for stream in streams:
            epochs = sorted(
                e for s, e in self._segments if s == stream
            )
            for epoch_id in reversed(epochs):
                blob = self._segments[(stream, epoch_id)]
                try:
                    verify(blob, f"log stream {stream!r} epoch {epoch_id}")
                    break  # first readable segment ends the tail scan
                except StorageError:
                    del self._segments[(stream, epoch_id)]
                    path = self._root / stream / f"{epoch_id}.bin"
                    if path.exists():
                        path.unlink()
                    self.truncated_tails.append((stream, epoch_id))

    def commit_epoch(self, stream: str, epoch_id: int, records: Any) -> float:
        seconds = super().commit_epoch(stream, epoch_id, records)
        blob = self._segments.get((stream, epoch_id))
        if blob is not None:  # a dropped flush never reaches the medium
            stream_dir = self._root / stream
            stream_dir.mkdir(parents=True, exist_ok=True)
            (stream_dir / f"{epoch_id}.bin").write_bytes(blob)
        return seconds

    def quarantine(self, stream: str, epoch_id: int) -> int:
        freed = super().quarantine(stream, epoch_id)
        path = self._root / stream / f"{epoch_id}.bin"
        if path.exists():
            path.unlink()
        return freed

    def discard_from(self, epoch_id: int) -> int:
        before = set(self._segments)
        freed = super().discard_from(epoch_id)
        for stream, stale in before - set(self._segments):
            path = self._root / stream / f"{stale}.bin"
            if path.exists():
                path.unlink()
        return freed

    def truncate_before(self, epoch_id: int) -> int:
        before = set(self._segments)
        freed = super().truncate_before(epoch_id)
        for stream, stale in before - set(self._segments):
            path = self._root / stream / f"{stale}.bin"
            if path.exists():
                path.unlink()
        return freed


class FileProgressStore(ProgressStore):
    """Progress store persisting its two slots as files under ``root``.

    ``progress.bin`` holds the watermark, ``chain_mark.bin`` the
    in-flight epoch's chain counter.  A new process reopening the root
    finds the watermark of a recovery that died mid-flight and resumes.

    Slot writes are atomic (write to a temp sibling, then
    ``os.replace``): a plain in-place overwrite can be interrupted
    between truncate and write, leaving a zero-length slot that fails
    framing verification and silently degrades the next recovery to a
    fresh start.  With the rename, a reader only ever sees the old slot
    or the new one, never a torn intermediate.
    """

    def __init__(
        self,
        device: StorageDevice,
        root: Path,
        faults: Optional[FaultInjector] = None,
    ):
        super().__init__(device, faults)
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        # Debris from a crash between temp-write and rename: the rename
        # never happened, so the published slot (if any) is still the
        # previous consistent one and the temp file is garbage.
        for stale in self._root.glob("*.tmp"):
            stale.unlink()
        slot_path = self._root / "progress.bin"
        if slot_path.exists():
            self._slot = slot_path.read_bytes()
        mark_path = self._root / "chain_mark.bin"
        if mark_path.exists():
            self._chain_mark = mark_path.read_bytes()

    def _atomic_write(self, name: str, data: bytes) -> None:
        path = self._root / name
        tmp = self._root / (name + ".tmp")
        tmp.write_bytes(data)
        # Crash gates bracketing the publish: a registered fault may
        # kill the process with the temp sibling on disk but the rename
        # not yet performed ("progress.tmp-written" — reopen must sweep
        # the debris and still see the previous consistent slot), or
        # right after the rename ("progress.replaced" — the new slot is
        # the one a reopen must serve).  Either way, no torn watermark.
        if self._faults is not None:
            self._faults.at_point("progress.tmp-written")
        os.replace(tmp, path)
        if self._faults is not None:
            self._faults.at_point("progress.replaced")

    def save(self, record: Any, charge_bytes: Optional[int] = None) -> float:
        seconds = super().save(record, charge_bytes)
        if self._slot is not None:
            self._atomic_write("progress.bin", self._slot)
        mark_path = self._root / "chain_mark.bin"
        if mark_path.exists():
            mark_path.unlink()
        return seconds

    def clear(self) -> float:
        seconds = super().clear()
        for name in ("progress.bin", "chain_mark.bin"):
            path = self._root / name
            if path.exists():
                path.unlink()
        return seconds

    def save_chain_mark(self, mark: Any) -> float:
        seconds = super().save_chain_mark(mark)
        if self._chain_mark is not None:
            self._atomic_write("chain_mark.bin", self._chain_mark)
        return seconds


class FileBackedDisk(Disk):
    """A :class:`Disk` whose three stores write through to ``root``.

    Opening the same root in another process reconstructs the durable
    state exactly — the honest-durability mode used by the
    process-restart example and its tests.
    """

    def __init__(
        self,
        root: Path,
        device: Optional[StorageDevice] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.device = device or StorageDevice()
        self.faults = faults
        root = Path(root)
        self.root = root
        self.events = FileEventStore(self.device, root / "events", faults)
        self.snapshots = FileSnapshotStore(
            self.device, root / "snapshots", faults
        )
        self.logs = FileLogStore(self.device, root / "logs", faults)
        self.progress = FileProgressStore(
            self.device, root / "progress", faults
        )

    def last_sealed_epoch(self) -> Optional[int]:
        """The newest epoch whose events were sealed (None if none)."""
        return self.events.last_sealed_epoch()
