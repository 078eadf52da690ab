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
      progress/progress.bin        framed recovery watermark
      progress/chain_mark.bin      framed chain mark of the in-flight epoch

The snapshot, log and progress stores are the in-memory ones with their
dict of durable bytes replaced by a :class:`_FileMap`, so a file changes
exactly when the dict does: a dropped flush never reaches the medium, GC
removes files, and a file may hold a torn or bit-flipped segment after a
crash or injected fault (see :class:`FileLogStore` for what reopening
does about it).  The event store differs from its in-memory form, not
only in medium (arrival-order blobs here, decoded per-epoch lists
there), and writes through itself.
"""

from __future__ import annotations

import os
from collections import UserDict
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import StorageError
from repro.storage.codec import decode, join_list, split_list
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
        self._boundaries = self._root / "boundaries.log"
        self._arrival_index = 0
        stream: List[Any] = []
        items: List[bytes] = []
        for index, path in sorted(
            (int(path.stem.split("_")[1]), path)
            for path in self._root.glob("arrivals_*.bin")
        ):
            blob = path.read_bytes()
            sizes: List[int] = []
            stream.extend(decode(blob, sizes))
            items.extend(split_list(blob, sizes))
            self._arrival_index = index + 1
        cursor = 0
        if self._boundaries.exists():
            for line in self._boundaries.read_text().splitlines():
                epoch_id, count = (int(part) for part in line.split())
                self._epochs[epoch_id] = stream[cursor : cursor + count]
                self._epoch_bytes[epoch_id] = items[cursor : cursor + count]
                cursor += count
        self._pending = stream[cursor:]
        self._pending_bytes = items[cursor:]
        # GC'd epochs leave holes: boundaries of reclaimed epochs were
        # rewritten at truncate time, so the replay above is exact.

    def _arrivals_encoded(self, blob: bytes) -> None:
        path = self._root / f"arrivals_{self._arrival_index}.bin"
        path.write_bytes(blob)
        self._arrival_index += 1

    def seal_epoch(self, epoch_id: int, count: int) -> float:
        seconds = super().seal_epoch(epoch_id, count)
        with self._boundaries.open("a") as handle:
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
        """Compact: one arrivals file of surviving events + boundaries.

        The file is the surviving events' kept bytes under one list
        header, so compaction encodes nothing.
        """
        for path in self._root.glob("arrivals_*.bin"):
            path.unlink()
        surviving: List[bytes] = []
        lines = []
        for epoch_id in sorted(self._epoch_bytes):
            items = self._epoch_bytes[epoch_id]
            surviving.extend(items)
            lines.append(f"{epoch_id} {len(items)}")
        surviving.extend(self._pending_bytes)
        (self._root / "arrivals_0.bin").write_bytes(join_list(surviving))
        self._arrival_index = 1
        self._boundaries.write_text("\n".join(lines) + ("\n" if lines else ""))


class _FileMap(UserDict):
    """A dict whose items are files under ``root``: one store's medium.

    Installed in place of a store's dict of durable bytes: ``UserDict``
    funnels every mutator (``pop``, ``clear``, ...) through the two
    methods below, so none can bypass the directory.  ``dump(key,
    value)`` gives the item's path relative to ``root`` and the bytes it
    holds; ``parse`` is its inverse, used to load what an earlier
    process left behind.

    An item is published by writing a temp sibling and renaming it over
    the target, so a reader only ever sees the old item or the new one;
    an in-place overwrite interrupted between truncate and write leaves
    a zero-length file that fails framing verification.  ``faults`` (the
    progress store passes its injector) fires the two registered crash
    points on either side of the rename.
    """

    def __init__(
        self,
        root: Path,
        dump: Callable[[Any, Any], Tuple[str, bytes]],
        parse: Callable[[str, bytes], Tuple[Any, Any]],
        faults: Optional[FaultInjector] = None,
    ):
        super().__init__()
        self._root = Path(root)
        self._dump, self._faults = dump, faults
        self._root.mkdir(parents=True, exist_ok=True)
        for path in self._root.rglob("*"):
            if path.suffix == ".tmp":
                # Debris of a crash between temp-write and rename: the
                # published item (if any) is still the previous one.
                path.unlink()
            elif path.is_file():
                key, value = parse(
                    path.relative_to(self._root).as_posix(), path.read_bytes()
                )
                self.data[key] = value

    def __setitem__(self, key: Any, value: Any) -> None:
        name, blob = self._dump(key, value)
        path = self._root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(blob)
        if self._faults is not None:
            self._faults.at_point("progress.tmp-written")
        os.replace(tmp, path)
        if key in self.data and self._dump(key, self.data[key])[0] != name:
            # One item, one file: the name may depend on the value (a
            # delta replacing a full snapshot of the same epoch).
            del self[key]
        self.data[key] = value
        if self._faults is not None:
            self._faults.at_point("progress.replaced")

    def __delitem__(self, key: Any) -> None:
        value = self.data.pop(key)
        (self._root / self._dump(key, value)[0]).unlink()


class FileSnapshotStore(SnapshotStore):
    """Snapshot store whose checkpoints are files."""

    def __init__(
        self,
        device: StorageDevice,
        root: Path,
        faults: Optional[FaultInjector] = None,
    ):
        super().__init__(device, faults)

        def dump(epoch_id: int, entry: Tuple[str, bytes, Optional[int]]):
            kind, blob, base = entry
            suffix = "" if base is None else f".{base}"
            return f"{epoch_id}.{kind}{suffix}", blob

        def parse(name: str, blob: bytes):
            epoch_id, kind, *base = name.split(".")
            return int(epoch_id), (kind, blob, int(base[0]) if base else None)

        self._snapshots = _FileMap(root, dump, parse)


class FileLogStore(LogStore):
    """Log store whose segments are files, one directory per stream;
    reopening truncates torn tails (``truncated_tails``)."""

    def __init__(
        self,
        device: StorageDevice,
        root: Path,
        faults: Optional[FaultInjector] = None,
    ):
        super().__init__(device, faults)

        def parse(name: str, blob: bytes):
            stream, _slash, segment = name.rpartition("/")
            return (stream, int(segment.removesuffix(".bin"))), blob

        self._segments = _FileMap(
            root, lambda key, blob: (f"{key[0]}/{key[1]}.bin", blob), parse
        )
        #: (stream, epoch) pairs whose segments the scan below dropped.
        self.truncated_tails: List[Tuple[str, int]] = []
        # ARIES-style tail scan.  The newest segment of a stream may be
        # a torn flush from the crash that killed the previous process;
        # such tails are dropped (file and all) so recovery falls back
        # cleanly.  An unreadable segment *behind* a readable one is
        # genuine corruption and is kept: the fallback ladder must
        # confront it loudly at read time.
        for stream in {stream for stream, _epoch in self._segments}:
            epochs = sorted(e for s, e in self._segments if s == stream)
            for epoch_id in reversed(epochs):
                blob = self._segments[(stream, epoch_id)]
                try:
                    verify(blob, f"log stream {stream!r} epoch {epoch_id}")
                    break  # first readable segment ends the tail scan
                except StorageError:
                    del self._segments[(stream, epoch_id)]
                    self.truncated_tails.append((stream, epoch_id))


class FileProgressStore(ProgressStore):
    """Progress store whose two slots are files under ``root``.

    A new process reopening the root finds the watermark of a recovery
    that died mid-flight and resumes.  Each slot write passes the two
    ``progress.*`` crash points (:mod:`repro.crashpoints`): whichever
    side of the rename a crash lands on, a reopen sweeps the debris and
    serves the old slot or the new one, never a torn watermark.
    """

    def __init__(
        self,
        device: StorageDevice,
        root: Path,
        faults: Optional[FaultInjector] = None,
    ):
        super().__init__(device, faults)
        self._slots = _FileMap(
            root,
            lambda slot, blob: (f"{slot}.bin", blob),
            lambda name, blob: (name.removesuffix(".bin"), blob),
            faults=faults,
        )


class FileBackedDisk(Disk):
    """A :class:`Disk` whose four stores write through to ``root``.

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
        self.device = device = device or StorageDevice()
        self.faults = faults
        self.root = root = Path(root)
        self.events = FileEventStore(device, root / "events", faults)
        self.snapshots = FileSnapshotStore(device, root / "snapshots", faults)
        self.logs = FileLogStore(device, root / "logs", faults)
        self.progress = FileProgressStore(device, root / "progress", faults)

    def last_sealed_epoch(self) -> Optional[int]:
        """The newest epoch whose events were sealed (None if none)."""
        return self.events.last_sealed_epoch()
