"""Logging Manager (LM): records and serves intermediate results.

At runtime the LM receives resolved-dependency results from the
Execution Managers (§VI-C step ②), organizes them into per-epoch
AbortView / ParametricView segments, and group-commits them on commit
markers.  The partition map used for selective logging is committed
alongside (it defines which dependencies were considered
cross-partition, and recovery must classify reads identically).

During recovery the LM reloads a segment and provides dependency
inspection: abort verdicts for abort pushdown and view lookups for
dependency elimination (§V-C step ③).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.views import AbortView, ParametricView
from repro.engine.refs import StateRef
from repro.errors import RecoveryError
from repro.storage.codec import Encoded, encode
from repro.storage.stores import Disk

#: Log-store stream for MorphStreamR view segments.
STREAM = "msr"

#: On-disk format version of view segments.  Bumped on layout changes;
#: recovery refuses segments written by an unknown version instead of
#: misinterpreting them.
SEGMENT_VERSION = 1

PartitionMap = Optional[Dict[StateRef, int]]


@dataclass
class ViewSegment:
    """One epoch's intermediate results, ready to commit or just loaded."""

    epoch_id: int
    abort_view: AbortView
    parametric_view: ParametricView
    partition_map: PartitionMap

    def encoded(self) -> tuple:
        partition = (
            None
            if self.partition_map is None
            else tuple(sorted(self.partition_map.items()))
        )
        return (
            SEGMENT_VERSION,
            self.epoch_id,
            self.abort_view.encoded(),
            self.parametric_view.encoded(),
            partition,
        )

    @staticmethod
    def from_encoded(raw: tuple) -> "ViewSegment":
        version = raw[0]
        if version != SEGMENT_VERSION:
            raise RecoveryError(
                f"view segment format version {version} is not supported "
                f"(this build reads version {SEGMENT_VERSION})"
            )
        _version, epoch_id, abort_raw, pview_raw, partition_raw = raw
        partition: PartitionMap
        if partition_raw is None:
            partition = None
        else:
            partition = {
                StateRef.from_encoded(ref): pid for ref, pid in partition_raw
            }
        return ViewSegment(
            epoch_id=epoch_id,
            abort_view=AbortView.from_encoded(abort_raw),
            parametric_view=ParametricView.from_encoded(pview_raw),
            partition_map=partition,
        )


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
        """Reload one committed segment; returns (segment, io_seconds)."""
        if not self.has_epoch(epoch_id):
            raise RecoveryError(f"no committed view segment for epoch {epoch_id}")
        raw, io_seconds = self._disk.logs.read_epoch(STREAM, epoch_id)
        return ViewSegment.from_encoded(raw), io_seconds
