"""File-backed durable stores: crash-survival across real processes.

The in-memory :class:`~repro.storage.stores.Disk` survives a *simulated*
crash.  This module makes durability literal: every durable mutation is
written through to a real file under a root directory, and a brand-new
process can reopen that directory and recover.  Virtual-time accounting
is unchanged (the device model still prices every operation); the files
are the proof that nothing recovers from live memory.

Layout::

    root/
      events/arrivals/<i>.bin      one framed ingress append; <i> indexes its first event
      events/seal/<id>.bin         one sealed epoch's boundary record (id, count)
      events/base/0.bin            first live event and its epoch (moved by GC)
      snapshots/<id>.full          framed full snapshot
      snapshots/<id>.delta.<base>  framed delta over <base>
      logs/<stream>/<id>.bin       framed group-committed segment
      progress/progress.bin        framed recovery watermark
      progress/chain_mark.bin      framed chain mark of the in-flight epoch

Each store is the in-memory one with its dict of durable bytes replaced
by a :class:`_FileMap`, so a file changes exactly when the dict does: a
dropped flush never reaches the medium, GC removes files, and a file may
hold a torn or bit-flipped segment after a crash or injected fault (see
:class:`FileLogStore` for what reopening does about it).  Every change
to a file is one publish or one unlink, so a process that dies inside a
store call leaves the medium as it was before that change or after it.
"""

from __future__ import annotations

import os
from collections import UserDict
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import StorageError
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


def _pair_file(key: Tuple[str, int], blob: bytes) -> Tuple[str, bytes]:
    """A ``(name, number)`` key's item is the file ``<name>/<number>.bin``."""
    return f"{key[0]}/{key[1]}.bin", blob


def _pair_key(name: str, blob: bytes) -> Tuple[Tuple[str, int], bytes]:
    head, _slash, tail = name.rpartition("/")
    return (head, int(tail.removesuffix(".bin"))), blob


class FileEventStore(EventStore):
    """Event store whose appends, seals and base slot are files; a root
    in older builds' ``boundaries.log`` layout is refused, not read as
    an empty log."""

    def __init__(
        self,
        device: StorageDevice,
        root: Path,
        faults: Optional[FaultInjector] = None,
    ):
        super().__init__(device, faults)
        if any(path.is_file() for path in Path(root).glob("*")):
            raise StorageError(f"{root} holds the retired boundaries.log event layout")
        self._log = _FileMap(root, _pair_file, _pair_key)
        self._restore()


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
        self._segments = _FileMap(root, _pair_file, _pair_key)
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
        super().__init__(device, faults)
        self.root = root = Path(root)
        self.events = FileEventStore(self.device, root / "events", faults)
        self.snapshots = FileSnapshotStore(self.device, root / "snapshots", faults)
        self.logs = FileLogStore(self.device, root / "logs", faults)
        self.progress = FileProgressStore(self.device, root / "progress", faults)
