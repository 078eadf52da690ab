"""Scheme framework: the shared runtime pipeline and the scheme hooks.

Every fault-tolerance mechanism subclasses :class:`FTScheme` and reuses
the same MorphStream processing pipeline (§II-B): the input stream is
cut into punctuation epochs, each epoch is preprocessed into state
transactions, a task precedence graph is constructed, operations are
executed with dependency-respecting parallelism, and outputs are
delivered at epoch commit.  Schemes differ only in the two hooks:

- :meth:`FTScheme._on_epoch` — what to track/log/persist at runtime;
- :meth:`FTScheme._recover_epoch` — how to replay one lost epoch.

The framework guarantees the paper's failure-model obligations (§II-C):

- input events are persisted by the spout *before* processing, so no
  event is ever lost (delivery guarantee);
- outputs flow through a durable :class:`OutputSink` that deduplicates
  by event sequence number, so regenerated outputs during recovery are
  delivered exactly once;
- a crash destroys everything except the :class:`~repro.storage.Disk`
  and the sink; recovery may only consult durable bytes.

What one *crash* needs — the fallback ladder, progress watermarks,
the ``recovery.*`` crash points, stale reads while down — is
:class:`~repro.ft.recovery.Recovery`, made by :meth:`FTScheme.crash`
and dropped by the :meth:`FTScheme.recover` that converges; this module
keeps what lives as long as the scheme.
"""

from __future__ import annotations

import gc
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import buckets
from repro.engine.events import Event
from repro.engine.execution import (
    build_op_tasks,
    execute_tpg,
    hash_worker_of,
    preprocess,
)
from repro.engine.serial import SerialOutcome
from repro.engine.state import StateStore
from repro.engine.tpg import TaskPrecedenceGraph, build_tpg
from repro.engine.transactions import Transaction
from repro.errors import (
    ConfigError,
    CorruptSegmentError,
    InjectedCrash,
    RecoveryError,
    SealedEpochMismatchError,
    WorkloadError,
)
from repro.ft.recovery import Recovery
from repro.ft.reports import (  # noqa: F401  (re-exported)
    DegradedRead,
    EpochStats,
    FallbackEvent,
    RecoveryReport,
    RuntimeReport,
)
from repro.sim.clock import Machine
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.executor import ParallelExecutor, WorkerFault, WorkerFaultPlan
from repro.storage.codec import Encoded, encode
from repro.storage.rows import Rows
from repro.storage.stores import Disk


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Keep the cyclic collector off for one epoch or recovery attempt.

    Refcounting frees all that either allocates, so a collection inside
    one finds nothing; a cycle a fault path or a user's state function
    makes waits for the next boundary.  A caller's "off" stays off.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass
class EpochContext:
    """Everything a scheme hook may inspect about one processed epoch."""

    epoch_id: int
    events: Sequence[Event]
    txns: Sequence[Transaction]
    tpg: TaskPrecedenceGraph
    outcome: SerialOutcome
    outputs: Sequence[Tuple[int, tuple]]


class OutputSink:
    """Durable downstream operator with exactly-once deduplication.

    Delivery is idempotent per event sequence number; delivering a
    *different* payload for an already-delivered sequence is a
    correctness violation and raises :class:`RecoveryError` — this is
    how tests catch schemes that recover to the wrong outputs.
    """

    def __init__(self) -> None:
        self._outputs: Dict[int, tuple] = {}
        self.duplicates_suppressed = 0

    def deliver(self, seq: int, output: tuple) -> None:
        existing = self._outputs.get(seq)
        if existing is None:
            self._outputs[seq] = output
        elif existing == output:
            self.duplicates_suppressed += 1
        else:
            raise RecoveryError(
                f"output for event {seq} regenerated differently: "
                f"{existing!r} != {output!r}"
            )

    def outputs(self) -> Dict[int, tuple]:
        return dict(self._outputs)

    def __len__(self) -> int:
        return len(self._outputs)


class FTScheme(ABC):
    """Base class: MorphStream pipeline + fault-tolerance hooks."""

    name = "abstract"
    #: Whether the spout persists input events (all FT schemes; not NAT).
    persists_events = True
    #: Whether periodic global state snapshots are taken.
    takes_snapshots = True
    #: Whether recovery replays from the persisted event store.  Command
    #: -log schemes (WAL/DL/LV) replay from their own logs instead and
    #: never touch the event store during recovery.
    replays_from_events = True
    #: Log-store streams this scheme group-commits (quarantined when the
    #: fallback ladder abandons an epoch's segments).
    log_streams: Tuple[str, ...] = ()

    def __init__(
        self,
        workload,
        *,
        num_workers: int = 8,
        epoch_len: int = 512,
        snapshot_interval: int = 4,
        costs: CostModel = DEFAULT_COSTS,
        disk: Optional[Disk] = None,
        incremental_snapshots: bool = False,
        full_snapshot_every: int = 4,
        gc_keep_checkpoints: int = 1,
        recovery_faults: Sequence[WorkerFault] = (),
    ):
        if num_workers < 1:
            raise ConfigError("num_workers must be >= 1")
        if epoch_len < 1:
            raise ConfigError("epoch_len must be >= 1")
        if snapshot_interval < 1:
            raise ConfigError("snapshot_interval must be >= 1")
        if full_snapshot_every < 1:
            raise ConfigError("full_snapshot_every must be >= 1")
        if gc_keep_checkpoints < 1:
            raise ConfigError("gc_keep_checkpoints must be >= 1")
        self.workload = workload
        self.store: Optional[StateStore] = workload.initial_state()
        self.num_workers = num_workers
        self.epoch_len = epoch_len
        self.snapshot_interval = snapshot_interval
        self.costs = costs
        self.disk = disk or Disk()
        self.sink = OutputSink()
        self.machine = Machine(num_workers)
        self._executor = ParallelExecutor(
            self.machine, costs.sync_handoff, costs.remote_fetch
        )
        # Threads own state partitions (range partitioning): operations
        # on a record execute on the worker owning its partition, so a
        # same-partition dependency is thread-local and a cross-partition
        # one costs a handoff — the premise of selective logging (§VI-A).
        self._worker_of = self._partition_worker_of()
        self._next_epoch = 0
        self._events_processed = 0
        #: the crash being recovered from; ``None`` while healthy.
        self._recovery: Optional[Recovery] = None
        #: where the last crash landed; still answers once recovered.
        self._crash_epoch: Optional[int] = None
        self._pending_events: List[Event] = []
        self._peak_buffer_bytes = 0
        # One encoding of the initial state: its length is the memory
        # report's state size, its bytes the epoch -1 snapshot below.
        initial_state = Encoded(self.store.encoded())
        self._state_bytes = len(initial_state)
        #: how checkpoints lay out records, for reload to adopt their bytes.
        self.state_layout = self.store.layout
        #: incremental checkpointing: delta snapshots of dirty records,
        #: anchored by a full snapshot every ``full_snapshot_every``.
        self.incremental_snapshots = incremental_snapshots
        self.full_snapshot_every = full_snapshot_every
        self._dirty_refs: set = set()
        self._deltas_since_full = 0
        self._snapshot_bytes_written = 0
        #: GC retains events/logs/snapshots back to the K-th newest
        #: checkpoint, giving the checkpoint ladder somewhere to land.
        self.gc_keep_checkpoints = gc_keep_checkpoints
        self._snapshot_epochs: List[int] = []
        #: per-epoch observability series (volatile).
        self.epoch_stats: List[EpochStats] = []
        #: worker faults injected into recovery runs (the recovery
        #: machinery's own failures; validated against num_workers here
        #: so a bad plan fails at construction, not mid-recovery).
        self.recovery_faults: List[WorkerFault] = list(recovery_faults)
        WorkerFaultPlan(self.recovery_faults, num_workers)
        if self.takes_snapshots and self.disk.snapshots.latest_epoch() is None:
            # Epoch -1 snapshot: the initial state, so recovery always
            # has a base even if the crash precedes the first interval.
            # A pre-populated disk (reopened after a real process crash)
            # keeps its existing checkpoints instead.
            self.disk.snapshots.put(-1, initial_state)

    # ------------------------------------------------------------------
    # runtime
    # ------------------------------------------------------------------

    def process_stream(self, events: Sequence[Event]) -> RuntimeReport:
        """Process ``events`` epoch by epoch and report runtime metrics.

        Events carried over from a previous call (less than one epoch
        long) are prepended; a trailing partial epoch is buffered until
        more events arrive (punctuation semantics).
        """
        self._refuse_while_crashed()
        incoming = list(events)
        self._persist_arrivals(incoming)
        queue = self._pending_events + incoming
        start_elapsed = self.machine.elapsed()
        start_events = self._events_processed
        # Walk an index: re-slicing the remainder per epoch would copy
        # the whole stream once per epoch.  ``epoch_len`` is re-read each
        # round because an epoch may change it.
        done = 0
        while len(queue) - done >= self.epoch_len:
            batch = queue[done : done + self.epoch_len]
            done += len(batch)
            self._run_epoch(batch)
        self._pending_events = queue[done:]
        return self._runtime_report(start_elapsed, start_events)

    def process_epoch(self, batch: Sequence[Event]) -> List[Tuple[int, tuple]]:
        """Run exactly ``batch`` as one epoch and return its outputs.

        For a coordinator that cuts the epochs itself (the sharded
        cluster routes each cluster epoch's slice to its shards).  When
        recovery restored an ingress tail, that tail *is* the batch: it
        arrived — and was persisted — before the crash, so it is not
        persisted twice.
        """
        self._refuse_while_crashed()
        if self._pending_events:
            batch, self._pending_events = self._pending_events, []
        else:
            self._persist_arrivals(batch)
        return self._run_epoch(batch)

    @property
    def next_epoch(self) -> int:
        """The id the next processed epoch will get."""
        return self._next_epoch

    def _refuse_while_crashed(self) -> None:
        if self._recovery is not None:
            raise RecoveryError("scheme has crashed; call recover() first")

    def _persist_arrivals(self, incoming: Sequence[Event]) -> None:
        """The spout persists input events the moment they arrive
        (§VI-C step ①) — even a partial epoch survives a crash."""
        if self.persists_events and incoming:
            io_s = self.disk.events.append_events(incoming)
            self.charge_runtime_io(io_s, len(incoming) * 24)

    def _run_epoch(self, batch: Sequence[Event]) -> List[Tuple[int, tuple]]:
        try:
            with _collector_paused():
                return self._process_epoch(batch)
        except InjectedCrash:
            # The chaos layer killed the process mid-epoch: the current
            # epoch's durable writes are whatever landed, everything
            # volatile is gone.  The epoch being processed never
            # committed, so the crash point is the previous epoch;
            # recover() discards the partial artifacts and reprocesses
            # the sealed events.
            self._enter_crashed_state()
            raise

    def _process_epoch(self, batch: Sequence[Event]) -> List[Tuple[int, tuple]]:
        epoch_id = self._next_epoch
        epoch_start = self.machine.elapsed()
        log_bytes_start = self.disk.logs.bytes_stored
        epoch_len_in_force = self.epoch_len
        if self.persists_events:
            # Payloads are already durable; sealing writes only the
            # epoch boundary record.
            io_s = self.disk.events.seal_epoch(epoch_id, len(batch))
            self.charge_runtime_io(io_s, 16)
        txns, tpg, outcome, outputs = self._compute_epoch(
            self.machine, self._executor, self.store, batch
        )
        ctx = EpochContext(epoch_id, batch, txns, tpg, outcome, outputs)
        self._on_epoch(ctx)
        # Crash point: a scheme's group commit may have torn mid-flush.
        self._crash_gate()
        if self.incremental_snapshots:
            # Records this epoch wrote must be part of any checkpoint
            # taken at this epoch's boundary.
            self._dirty_refs.update(tpg.chains)
        if self.takes_snapshots and (epoch_id + 1) % self.snapshot_interval == 0:
            self._take_snapshot(epoch_id)
        self.machine.barrier(buckets.SYNC, extra=self.costs.sync_handoff)
        for seq, output in outputs:
            self.sink.deliver(seq, output)
        self._next_epoch += 1
        self._events_processed += len(batch)
        epoch_elapsed = self.machine.elapsed() - epoch_start
        self.epoch_stats.append(
            EpochStats(
                epoch_id=epoch_id,
                num_events=len(batch),
                num_aborted=len(outcome.aborted),
                elapsed_seconds=epoch_elapsed,
                throughput_eps=(
                    len(batch) / epoch_elapsed if epoch_elapsed > 0 else 0.0
                ),
                log_bytes_delta=self.disk.logs.bytes_stored - log_bytes_start,
                epoch_len=epoch_len_in_force,
            )
        )
        return outputs

    def _compute_epoch(
        self,
        machine: Machine,
        executor: ParallelExecutor,
        store: StateStore,
        batch: Sequence[Event],
        charge_aborts: bool = True,
    ):
        """The dual-phase MorphStream pipeline for one epoch.

        Shared verbatim between runtime processing and CKPT-style
        recovery replay (the only difference is which machine's clocks
        advance).  Returns ``(txns, tpg, outcome, outputs)``.
        """
        costs = self.costs
        txns = preprocess(batch, self.workload, 0)
        machine.spend_parallel(
            buckets.EXECUTE, [costs.preprocess_event] * len(batch)
        )
        tpg = build_tpg(txns)
        total_edges = sum(tpg.edge_counts().values())
        machine.spend_parallel(
            buckets.CONSTRUCT, [costs.construct_node] * len(tpg.ops)
        )
        machine.spend_parallel(
            buckets.CONSTRUCT, [costs.construct_edge] * total_edges
        )
        # Scheduler queues: each operation chain is dispatched to a
        # worker (the auxiliary scheduling structure MorphStream needs
        # and pure log replay does not).
        machine.spend_parallel(
            buckets.CONSTRUCT, [costs.task_dispatch] * len(tpg.chains)
        )
        outcome = execute_tpg(store, tpg)
        tasks = build_op_tasks(
            tpg,
            outcome,
            costs,
            self._worker_of,
            charge_aborts=charge_aborts,
            explore_per_dep=costs.explore_dependency,
        )
        executor.run(tasks)
        machine.spend_parallel(
            buckets.EXECUTE, [costs.postprocess_event] * len(batch)
        )
        outputs = self._make_outputs(txns, outcome)
        return txns, tpg, outcome, outputs

    def _make_outputs(
        self, txns: Sequence[Transaction], outcome: SerialOutcome
    ) -> List[Tuple[int, tuple]]:
        outputs = []
        for txn in txns:
            committed = txn.txn_id not in outcome.aborted
            output = self.workload.output_for(txn, committed, outcome.op_values)
            outputs.append((txn.event.seq, output))
        return outputs

    def _partition_worker_of(self):
        """Record → worker mapping via the workload's range partitioning.

        Falls back to a stable hash for records outside the workload's
        partitioned tables (does not happen with the built-in workloads).
        """
        workload = self.workload
        num_workers = self.num_workers
        fallback = hash_worker_of(num_workers)

        def worker_of(ref):
            try:
                return workload.partition_of(ref) % num_workers
            except WorkloadError:
                return fallback(ref)

        return worker_of

    def worker_of_txn(self, txn: Transaction) -> int:
        """The worker owning a transaction: its validator's partition."""
        return self._worker_of(txn.ops[0].ref)

    def _on_epoch(self, ctx: EpochContext) -> None:
        """Scheme hook: runtime tracking/logging for one epoch."""

    def _take_snapshot(self, epoch_id: int) -> None:
        base = self.disk.snapshots.latest_epoch()
        take_delta = (
            self.incremental_snapshots
            and base is not None
            and self._deltas_since_full < self.full_snapshot_every - 1
        )
        if take_delta:
            delta: Dict[str, Dict] = {}
            for ref in self._dirty_refs:
                delta.setdefault(ref.table, {})[ref.key] = self.store.get(ref)
            # ``_state_bytes`` stands: key sets are fixed at construction
            # and a record's width does not depend on its value.
            encoded = Encoded(encode(delta))
            io_s = self.disk.snapshots.put_delta(epoch_id, encoded, base)
            self._deltas_since_full += 1
        else:
            encoded = Encoded(self.store.encoded())
            self._state_bytes = len(encoded)
            io_s = self.disk.snapshots.put(epoch_id, encoded)
            self._deltas_since_full = 0
        self.charge_runtime_io(io_s, len(encoded))
        self._snapshot_bytes_written += len(encoded)
        self._dirty_refs = set()
        # Crash point: the checkpoint flush itself may have torn — GC
        # must not run then, or the replay sources would be lost.
        self._crash_gate()
        # Snapshot commit waits for notifications from every executor
        # (§VI-C step 6).
        self.machine.barrier(buckets.SYNC, extra=self.costs.sync_handoff)
        # Garbage collection: events, logs and older snapshots covered
        # by a checkpoint are reclaimed (§VI-C) — but only back to the
        # K-th newest checkpoint, so the fallback ladder keeps an older
        # restore point plus its replay sources if this one is damaged.
        self._snapshot_epochs.append(epoch_id)
        if len(self._snapshot_epochs) >= self.gc_keep_checkpoints:
            retain = self._snapshot_epochs[-self.gc_keep_checkpoints]
            self.disk.events.truncate_before(retain + 1)
            self.disk.logs.truncate_before(retain + 1)
            self.disk.snapshots.truncate_before(retain)

    def _crash_gate(self) -> None:
        """Raise :class:`InjectedCrash` if the chaos layer scheduled one."""
        faults = self.disk.faults
        if faults is not None:
            faults.maybe_crash()

    def charge_runtime_io(
        self, device_seconds: float, payload_bytes: int, blocking: bool = False
    ) -> None:
        """Charge one runtime flush: serialization + exposed device time.

        The asynchronous, non-blocking persistence path of §VI-C hides
        ``io_overlap`` of the device time.  Classic write-ahead-style
        group commits are ``blocking``: the pipeline stalls until the
        flush is durable, so the full device time is exposed.
        """
        serialize = payload_bytes * self.costs.serialize_byte
        overlap = 0.0 if blocking else self.costs.io_overlap
        exposed = device_seconds * (1.0 - overlap)
        self.machine.spend_all(buckets.IO, serialize / self.num_workers + exposed)

    def charge_tracking(self, per_item_seconds: Sequence[float]) -> None:
        """Charge parallelizable dependency-tracking work (Fig. 12d)."""
        self.machine.spend_parallel(buckets.TRACK, per_item_seconds)

    def _note_buffer(self, num_bytes: int) -> None:
        """Record a scheme's volatile log-buffer high-water mark."""
        self._peak_buffer_bytes = max(self._peak_buffer_bytes, num_bytes)

    def _committed_commands(self, ctx: EpochContext) -> List[bytes]:
        """The epoch's committed commands, in transaction order, as the
        rows the ingress append already wrote.

        A command log (WAL, PACMAN, DL, LV, LVC) logs each committed
        transaction's triggering event.  The event store kept every
        event's packed row when the spout appended it, so the log
        splices those (matched by ``seq`` through ``ctx.events``) into a
        rows payload (:meth:`_commit_commands`) instead of encoding the
        events a second time.
        """
        sealed = self.disk.events.epoch_bytes(ctx.epoch_id)
        if len(sealed) != len(ctx.events):
            raise SealedEpochMismatchError(
                f"epoch {ctx.epoch_id}: the event store sealed "
                f"{len(sealed)} events, the batch holds {len(ctx.events)}"
            )
        by_seq = dict(zip(map(attrgetter("seq"), ctx.events), sealed))
        aborted = ctx.outcome.aborted
        return [
            by_seq[txn.event.seq] for txn in ctx.txns if txn.txn_id not in aborted
        ]

    def _commit_commands(
        self, ctx: EpochContext, commands: List[bytes], tail: Optional[tuple] = None
    ) -> None:
        """Group-commit the epoch's command rows (and one ``tail`` int
        tuple per command) as the scheme's log segment, on the critical path.

        The segment is built once: the buffer high-water mark, the
        serialization charge and the committed segment all come from
        those bytes.  The flush is ``blocking`` (see
        :meth:`charge_runtime_io`).
        """
        segment = Encoded(self.disk.events.rows_payload(commands, tail))
        self._note_buffer(len(segment))
        io_s = self.disk.logs.commit_epoch(self.log_streams[0], ctx.epoch_id, segment)
        self.charge_runtime_io(io_s, len(segment), blocking=True)

    def _read_commands(self, machine: Machine, epoch_id: int) -> Rows:
        """Reload one epoch's command segment (charged as RELOAD): its
        commands and their tail tuples.  A segment that is not rows (the
        codec list older builds wrote, say) is corrupt."""
        stream = self.log_streams[0]
        raw, io_s = self.disk.logs.read_epoch(stream, epoch_id)
        machine.spend_all(buckets.RELOAD, io_s)
        if not isinstance(raw, Rows):
            raise CorruptSegmentError(
                f"segment in log stream {stream!r} epoch {epoch_id} is not rows"
            )
        return raw

    def _runtime_report(self, start_elapsed: float, start_events: int) -> RuntimeReport:
        elapsed = self.machine.elapsed() - start_elapsed
        events = self._events_processed - start_events
        return RuntimeReport(
            scheme=self.name,
            events_processed=events,
            epochs=self._next_epoch,
            elapsed_seconds=elapsed,
            throughput_eps=events / elapsed if elapsed > 0 else 0.0,
            buckets=self.machine.bucket_breakdown(),
            bytes_logged=self.disk.logs.bytes_stored,
            bytes_snapshotted=self.disk.snapshots.bytes_stored,
            bytes_events=self.disk.events.bytes_stored,
            peak_memory_bytes=self._state_bytes + self._peak_buffer_bytes,
            snapshot_bytes_written=self._snapshot_bytes_written,
        )

    # ------------------------------------------------------------------
    # failure and recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Single-node stoppage: lose everything volatile (§II-C)."""
        if self._next_epoch == 0:
            raise RecoveryError("cannot crash before any epoch was processed")
        self._enter_crashed_state()

    def _enter_crashed_state(self) -> None:
        """Shared crash bookkeeping: everything volatile is destroyed.

        The crash point is the last completed epoch.  A fresh crash
        starts a fresh recovery history.  The durable progress watermark
        is NOT touched: it either belongs to this crash (process death
        during a previous recovery attempt, e.g. a reopened file-backed
        disk) or is rejected at load time.
        """
        self._crash_epoch = self._next_epoch - 1
        self._recovery = Recovery(self._crash_epoch)
        self.store = None
        self._pending_events = []
        self._drop_volatile()

    def _drop_volatile(self) -> None:
        """Scheme hook: drop scheme-specific volatile buffers at a crash."""

    @property
    def crash_epoch(self) -> Optional[int]:
        return self._crash_epoch

    @property
    def events_processed(self) -> int:
        """Events processed into completed epochs over this scheme's life."""
        return self._events_processed

    def adopt_crash_state(self) -> None:
        """Attach to the durable state of a crashed *previous process*.

        For file-backed disks reopened after a real process death: the
        scheme positions itself as crashed at the last sealed epoch so
        ``recover()`` replays from durable bytes alone.
        """
        last_sealed = self.disk.events.last_sealed_epoch()
        snap_epoch = self.disk.snapshots.latest_epoch()
        candidates = [e for e in (last_sealed, snap_epoch) if e is not None]
        if not candidates:
            raise RecoveryError(
                "disk holds neither sealed epochs nor checkpoints; "
                "nothing to adopt"
            )
        # Right after a checkpoint, GC may have reclaimed every sealed
        # epoch — the crash point is then the checkpoint itself and
        # recovery only restores the snapshot plus the pending tail.
        self._next_epoch = max(candidates) + 1
        self._enter_crashed_state()

    def degraded_read(self, ref) -> DegradedRead:
        """Serve a read from the newest readable checkpoint while down.

        Degraded-mode serving: the node is crashed and recovery may be
        in flight, but durable checkpoints survive — so a read can be
        answered *stale* instead of erroring, tagged with the exact
        staleness bound (epochs the checkpoint lags the crash point).

        Raises :class:`RecoveryError` when the node is healthy (callers
        must read live state instead — a silent stale read on a healthy
        node would be a correctness bug), a storage error when no
        checkpoint is readable, and :class:`TransactionError` when the
        checkpoint has no such record.
        """
        if self._recovery is None:
            raise RecoveryError(
                "degraded reads are only served while the node is down; "
                "read live state instead"
            )
        return self._recovery.degraded_read(self, ref)

    def recover(self) -> RecoveryReport:
        """Restore state to the failure point (§V-C).

        Loads the newest *readable* checkpoint (walking back past
        torn/corrupt ones), then replays every lost epoch — via the
        scheme-specific :meth:`_recover_epoch` where its segments
        verify, degrading to event reprocessing where they do not.
        Epochs are replayed in order with a barrier in between (the
        commit order of the original run must be preserved across
        epochs).  Only when no checkpoint is readable, or the event
        store has a gap where a fallback needs it, does recovery fail —
        loudly, re-raising the storage error, with the scheme still in
        the crashed state so a repaired disk can retry.

        Recovery survives failures of its own machinery:

        - ``recovery_faults`` inject worker deaths/stragglers into the
          replay; lost chains are LPT-re-balanced onto survivors by the
          :class:`ResilientExecutor` in one re-assignment round.  Only
          when no worker survives is
          :class:`~repro.errors.ReassignmentError` raised, with the
          scheme still crashed (and the watermark intact, so a retry on
          healthy workers resumes).
        - A durable progress watermark is persisted after every
          replayed epoch; a crash mid-recovery (``recovery.*`` crash
          points, injected via the chaos layer) loses only the
          un-watermarked suffix, which the next ``recover()`` call
          re-executes idempotently — the sink deduplicates re-delivered
          outputs and the deterministic pipeline reproduces identical
          state.  Nested crashes simply repeat the argument from the
          newest surviving watermark, so any finite number of failures
          converges.

        Each call is one :meth:`~repro.ft.recovery.Recovery.attempt` of
        the current crash; the attempt that converges ends the crash.
        """
        if self._recovery is None:
            raise RecoveryError("recover() called without a crash")
        with _collector_paused():
            report, self.store, self._pending_events = self._recovery.attempt(self)
        self._recovery = None
        return report

    def _mark_chain_progress(self, epoch_id: int) -> None:
        """Per-chain watermark inside the in-flight epoch (recovery only).

        Called by chain-structured schemes after each executed chain
        bundle of :meth:`_recover_epoch`.
        """
        if self._recovery is not None:
            self._recovery.mark_chain_progress(self, epoch_id)

    @abstractmethod
    def _recover_epoch(
        self,
        machine: Machine,
        executor: ParallelExecutor,
        store: StateStore,
        epoch_id: int,
        events: Sequence[Event],
    ) -> List[Tuple[int, tuple]]:
        """Replay one lost epoch onto ``store``; return its outputs."""
