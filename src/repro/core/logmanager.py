"""Logging Manager (LM): records and serves intermediate results.

At runtime the LM receives resolved-dependency results from the
Execution Managers (§VI-C step ②), organizes them into per-epoch
AbortView / ParametricView segments, and group-commits them on commit
markers.  The partition map used for selective logging is committed
alongside (it defines which dependencies were considered
cross-partition, and recovery must classify reads identically).

A segment goes to disk as columns (version 2).  The partition map is,
per table, the table name once, the sorted keys as one packed column
and the partition ids as another; the ParametricView is the columns
:meth:`ParametricView.encoded` writes.  A table whose keys or ids no
column holds (a ``str`` key, a key past 32 bits) goes as
``((table, key), partition)`` pairs.  A segment of any other version is
refused as corrupt, with the segment named: a layout change bumps the
version, and this build reads only the one it writes.

During recovery the LM reloads a segment and provides dependency
inspection: abort verdicts for abort pushdown and view lookups for
dependency elimination (§V-C step ③).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Tuple

from repro.core.views import AbortView, ParametricView
from repro.engine.refs import Key, StateRef
from repro.errors import CorruptSegmentError, RecoveryError, StorageError
from repro.storage.codec import Encoded, encode, pack_column, unpack_column
from repro.storage.stores import Disk

#: Log-store stream for MorphStreamR view segments.
STREAM = "msr"

#: On-disk format version of view segments.  Bumped on layout changes;
#: recovery refuses a segment of any other version instead of
#: misinterpreting it.
SEGMENT_VERSION = 2

PartitionMap = Optional[Dict[StateRef, int]]


@dataclass
class ViewSegment:
    """One epoch's intermediate results, ready to commit or just loaded."""

    epoch_id: int
    abort_view: AbortView
    parametric_view: ParametricView
    partition_map: PartitionMap

    def encoded(self) -> tuple:
        partition_map = self.partition_map
        return (
            SEGMENT_VERSION,
            self.epoch_id,
            self.abort_view.encoded(),
            self.parametric_view.encoded(),
            None if partition_map is None else _map_encoded(partition_map),
        )

    @staticmethod
    def from_encoded(raw: tuple) -> "ViewSegment":
        if raw[0] != SEGMENT_VERSION:
            raise StorageError(
                f"view segment format version {raw[0]!r} is not supported "
                f"(this build reads version {SEGMENT_VERSION})"
            )
        _version, epoch_id, abort_raw, pview_raw, partition_raw = raw
        return ViewSegment(
            epoch_id=epoch_id,
            abort_view=AbortView.from_encoded(abort_raw),
            parametric_view=ParametricView.from_encoded(pview_raw),
            partition_map=(
                None if partition_raw is None else _map_decoded(*partition_raw)
            ),
        )


def _map_encoded(partition_map: Dict[StateRef, int]) -> tuple:
    """``(tables, pairs)``: per table its name, its sorted keys as one
    packed column and their partition ids as another; a table either
    column cannot hold goes into ``pairs``, one ``(ref, id)`` each."""
    by_table: Dict[str, Dict[Key, int]] = defaultdict(dict)
    for (table, key), pid in partition_map.items():
        by_table[table][key] = pid
    tables: List[tuple] = []
    pairs: List[tuple] = []
    for table, ids in sorted(by_table.items()):
        keys = sorted(ids)
        columns = (pack_column(keys), pack_column(list(map(ids.__getitem__, keys))))
        if None in columns:
            pairs += (((table, key), ids[key]) for key in keys)
        else:
            tables.append((table, *columns))
    return tuple(tables), tuple(pairs)


def _map_decoded(tables: tuple, pairs: tuple) -> Dict[StateRef, int]:
    partition_map = {StateRef(*ref): pid for ref, pid in pairs}
    count = len(pairs)
    for table, key_column, id_column in tables:
        keys, ids = unpack_column(key_column), unpack_column(id_column)
        if len(keys) != len(ids):
            raise StorageError(f"table {table!r}: {len(keys)} keys, {len(ids)} ids")
        # ``tuple.__new__`` builds each StateRef in C; calling the class
        # runs its Python ``__new__`` per key, half of this decode.
        refs = map(tuple.__new__, repeat(StateRef), zip(repeat(table), keys))
        partition_map.update(zip(refs, ids))
        count += len(keys)
    if len(partition_map) != count:
        raise StorageError("the partition map repeats a record")
    return partition_map


class LoggingManager:
    """Buffers view segments and group-commits them on commit markers."""

    def __init__(self, disk: Disk):
        self._disk = disk
        #: ``(epoch_id, encoded segment)``: a segment is encoded once,
        #: when staged; its size and its commit both read these bytes.
        self._buffer: List[Tuple[int, Encoded]] = []

    @property
    def buffered_bytes(self) -> int:
        return sum(len(blob) for _epoch_id, blob in self._buffer)

    @property
    def buffered_epochs(self) -> int:
        return len(self._buffer)

    def stage(self, segment: ViewSegment) -> None:
        """Buffer one epoch's views until the next commit marker."""
        self._buffer.append(
            (segment.epoch_id, Encoded(encode(segment.encoded())))
        )

    def commit(self) -> Tuple[float, int]:
        """Flush all buffered segments; returns (io_seconds, bytes).

        Each epoch keeps its own durable segment so recovery can fetch
        exactly the epochs it replays.
        """
        io_seconds = 0.0
        total_bytes = 0
        faults = self._disk.faults
        for epoch_id, blob in self._buffer:
            io_seconds += self._disk.logs.commit_epoch(STREAM, epoch_id, blob)
            total_bytes += len(blob)
            # Crash point inside group commit: an injected crash lands
            # with some-but-not-all segments of this commit durable.
            if faults is not None:
                faults.maybe_crash()
        self._buffer = []
        return io_seconds, total_bytes

    def drop_buffer(self) -> None:
        """A crash destroys uncommitted segments (they were volatile)."""
        self._buffer = []

    def has_epoch(self, epoch_id: int) -> bool:
        return self._disk.logs.has_epoch(STREAM, epoch_id)

    def load_epoch(self, epoch_id: int) -> Tuple[ViewSegment, float]:
        """Reload one committed segment; returns (segment, io_seconds).

        A segment whose frame verifies but whose fields do not fit
        together (a bad column width or length, a repeated key, a tuple
        of the wrong arity) is as corrupt as one failing its checksum.
        """
        if not self.has_epoch(epoch_id):
            raise RecoveryError(f"no committed view segment for epoch {epoch_id}")
        raw, io_seconds = self._disk.logs.read_epoch(STREAM, epoch_id)
        try:
            return ViewSegment.from_encoded(raw), io_seconds
        except (StorageError, ValueError, TypeError, LookupError) as exc:
            raise CorruptSegmentError(
                f"segment in log stream {STREAM!r} epoch {epoch_id} passes "
                f"its checksum but does not decode: {exc}"
            ) from exc
