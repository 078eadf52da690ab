"""Canonical time-accounting bucket names.

Recovery buckets follow the paper's Fig. 11 breakdown; runtime buckets
follow Fig. 12d.  Using one shared vocabulary keeps scheme code and the
report layer in sync.
"""

# --- runtime (Fig. 12d) -----------------------------------------------------
#: Serializing and persisting log records / snapshots / events.
IO = "io"
#: Tracking dependencies and constructing log records.
TRACK = "track"
#: Synchronization for consistent snapshots and log commitment.
SYNC = "sync"

# --- recovery (Fig. 11) -----------------------------------------------------
#: Reloading states, input events and log records from durable storage.
RELOAD = "reload"
#: Performing state accesses and user-defined computations.
EXECUTE = "execute"
#: Identifying dependencies / constructing auxiliary structures.
CONSTRUCT = "construct"
#: Handling state transaction aborts.
ABORT = "abort"
#: Exploring available operations to process (dependency checks).
EXPLORE = "explore"
#: Synchronization, including waiting due to load imbalance.
WAIT = "wait"
#: Detecting a dead recovery worker and re-dispatching its chains.  Only
#: worker faults (``ResilientExecutor``) charge it, and no figure injects
#: them, so it is reported per run (``RecoveryReport.buckets``) but is
#: not a Fig. 11 column.
REASSIGN = "reassign"

#: Fig. 11's columns.  ``IO`` is recovery's durable bookkeeping (the
#: recovery-progress watermark saves and their final clear), so the bar
#: sums to ``RecoveryReport.elapsed_seconds``.
RECOVERY_BUCKETS = (RELOAD, EXECUTE, CONSTRUCT, ABORT, EXPLORE, WAIT, IO)

RUNTIME_OVERHEAD_BUCKETS = (IO, TRACK, SYNC)
RUNTIME_BUCKETS = (EXECUTE, CONSTRUCT, EXPLORE, WAIT) + RUNTIME_OVERHEAD_BUCKETS
