"""Exception hierarchy for the MorphStreamR reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one base type.  Specific subclasses mark the subsystem
that failed, which keeps failure handling explicit at the harness level
(e.g. a :class:`RecoveryError` aborts an experiment while a
:class:`ConfigError` is a usage bug).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied by the caller."""


class StorageError(ReproError):
    """A simulated durable-storage operation failed or was misused."""


class TornSegmentError(StorageError):
    """A durable segment is a prefix of what was written (torn flush).

    A torn tail is the expected aftermath of a crash mid-flush: callers
    may truncate the segment to the last consistent prefix and degrade
    to a coarser recovery mechanism (truncate-and-continue).
    """


class CorruptSegmentError(StorageError):
    """A durable segment fails its checksum (bit rot / partial-page flip).

    Unlike a torn tail, corruption in the middle of retained history is
    not survivable by truncation alone; callers fall back to a coarser
    mechanism if one exists and otherwise must fail loudly.
    """


class MissingSegmentError(StorageError):
    """A durable segment that should exist is absent (dropped flush)."""


class VectorMismatchError(CorruptSegmentError):
    """A logged LSN vector disagrees with the recomputed partial order.

    Raised by LV/LVC recovery when a record's logged vector does not
    match the vector recomputed from the rebuilt committed-only TPG —
    the record decoded cleanly (its CRC passed) but its dependency
    payload is stale or corrupted, so replaying under it could violate
    the commit-order partial order.  Subclassing
    :class:`CorruptSegmentError` keeps it inside the degradable set: the
    fallback ladder quarantines the vector log and replays the epoch
    from the persisted event store (rung 2) instead of trusting it.
    """

    def __init__(self, message: str, epoch_id: int = -1, record_index: int = -1):
        super().__init__(message)
        self.epoch_id = epoch_id
        self.record_index = record_index


class SealedEpochMismatchError(StorageError):
    """The event store sealed a different number of events than the
    epoch's batch holds.

    A command log splices the bytes the store kept for the sealed epoch,
    matched to the batch's events by position; a count that disagrees
    means the store and the pipeline lost step (a misused store), so
    nothing is logged rather than the wrong commands.
    """


class ReadFaultError(StorageError):
    """The device returned an I/O error for a read (injected EIO)."""


class InjectedCrash(ReproError):
    """A chaos-layer crash fired mid-epoch (simulated process death).

    Raised after some-but-not-all durable writes of the current epoch
    landed; the scheme is left in the crashed state and the caller is
    expected to run :meth:`~repro.ft.base.FTScheme.recover`.
    """


class SchedulingError(ReproError):
    """The parallel executor was given an inconsistent task graph."""


class TransactionError(ReproError):
    """A state transaction is malformed (e.g. duplicate write keys)."""


class RecoveryError(ReproError):
    """Failure recovery could not restore a consistent state."""


class ReassignmentError(RecoveryError):
    """Recovery lost every worker its lost work could be re-assigned to.

    Raised when a dead recovery worker's unfinished chains must move
    and no surviving worker remains.  The durable recovery-progress
    watermark is left intact, so a retry on healthy workers resumes
    rather than restarting from scratch.
    """


class ClusterDataLossError(RecoveryError):
    """A correlated failure destroyed every copy of some shard's state.

    Raised when the dead failure domains cover a shard's primary *and*
    all of its placement replicas — the replication factor was below the
    correlation width of the fault.  The cluster refuses to recover into
    a silently-wrong state; the error names the lost shards and the
    events whose effects cannot be reconstructed (the RPO of the
    incident).
    """

    def __init__(self, message: str, lost_shards=(), lost_events: int = 0):
        super().__init__(message)
        self.lost_shards = tuple(lost_shards)
        self.lost_events = lost_events


class WorkloadError(ReproError):
    """A workload generator was asked for an impossible configuration."""
