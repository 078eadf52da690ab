"""Scheme framework: the shared runtime pipeline and recovery template.

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

Beyond the paper's clean failure model (§II-C assumes the disk survives
*consistent*), the framework hardens recovery against damaged durable
state with a **graceful fallback ladder**:

1. **fast** — the scheme's own mechanism (MSR views, WAL/DL/LV log
   replay) for every epoch whose segments verify;
2. **replay** — an epoch whose log segment is torn, corrupt, dropped or
   unreadable is quarantined (truncate-and-continue) and reprocessed
   from the durable event store, exactly like CKPT;
3. **checkpoint ladder** — if the latest checkpoint itself is
   unreadable, recovery walks back to the newest older checkpoint that
   verifies (``gc_keep_checkpoints`` controls how much history GC
   retains for this) and replays the extra epochs;
4. only when *no* checkpoint is readable — or the event store has a
   gap — does recovery fail loudly, re-raising the storage error.

Every rung preserves exactness: a fallback reprocesses the identical
deterministic pipeline, so recovered state still matches the serial
ground truth.  A crash may also land *mid-epoch* (during group commit
or checkpointing, injected via the chaos layer); the dying epoch's
partial durable artifacts are discarded and its sealed events are
returned to the ingress tail for reprocessing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
    MissingSegmentError,
    ReadFaultError,
    RecoveryError,
    TornSegmentError,
    TransactionError,
    WorkloadError,
)
from repro.sim.clock import Machine
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.executor import (
    ParallelExecutor,
    ResilientExecutor,
    WorkerFault,
    WorkerFaultPlan,
)
from repro.storage.codec import Encoded, encode
from repro.storage.stores import Disk


@dataclass
class RuntimeReport:
    """What one runtime phase measured (feeds Figs. 2, 12a, 12c, 12d)."""

    scheme: str
    events_processed: int
    epochs: int
    elapsed_seconds: float
    throughput_eps: float
    buckets: Dict[str, float]
    bytes_logged: int
    bytes_snapshotted: int
    bytes_events: int
    peak_memory_bytes: int
    #: cumulative bytes written for checkpoints over the run (unlike
    #: ``bytes_snapshotted``, which is what remains on disk after GC).
    snapshot_bytes_written: int = 0

    def overhead_seconds(self) -> float:
        """Per-core seconds in the overhead buckets of Fig. 12d."""
        return sum(self.buckets.get(b, 0.0) for b in buckets.RUNTIME_OVERHEAD_BUCKETS)


#: Storage errors the fallback ladder may degrade through; anything
#: else (or these, once the ladder is exhausted) fails recovery loudly.
DEGRADABLE_ERRORS = (
    TornSegmentError,
    CorruptSegmentError,
    MissingSegmentError,
    ReadFaultError,
)


@dataclass(frozen=True)
class DegradedRead:
    """One read served stale from durable state while the node is down.

    Degraded-mode serving (bounded staleness): while recovery is in
    flight, reads may be answered from the newest *readable* checkpoint
    instead of failing.  Every answer is explicitly tagged with its
    staleness bound so downstream consumers can tell a stale value from
    a fresh one — ``staleness_epochs`` is the number of acknowledged
    epochs the serving view lags the crash point (0 means the
    checkpoint landed exactly at the crash epoch).
    """

    table: str
    key: object
    value: float
    #: epoch of the checkpoint that served the read.
    checkpoint_epoch: int
    #: acknowledged epochs the value may be behind (the staleness bound).
    staleness_epochs: int
    #: False when a live node answered with fresh state (cluster mode,
    #: key owned by a surviving shard) — no staleness bound applies.
    stale: bool = True


@dataclass(frozen=True)
class FallbackEvent:
    """One rung the recovery ladder had to step down (for reports)."""

    epoch_id: int
    error: str
    detail: str
    rung: str = "replay"


@dataclass
class RecoveryReport:
    """What one recovery phase measured (feeds Figs. 2, 11, 13, 14)."""

    scheme: str
    events_replayed: int
    epochs_replayed: int
    elapsed_seconds: float
    throughput_eps: float
    buckets: Dict[str, float]
    state_verified: Optional[bool] = None
    #: rung name -> epochs recovered via that rung ("fast" = the
    #: scheme's own mechanism, "replay" = event-reprocessing fallback).
    ladder: Dict[str, int] = field(default_factory=dict)
    #: per-epoch degradations, in replay order.
    fallbacks: List[FallbackEvent] = field(default_factory=list)
    #: the checkpoint recovery actually restored from.
    checkpoint_epoch: Optional[int] = None
    #: unreadable checkpoints skipped before one verified.
    checkpoint_fallbacks: int = 0
    #: checkpoint epochs on disk when the ladder walked them, newest
    #: first (empty when this run resumed past the ladder) — lets a
    #: checker assert the ladder took rungs in order without guessing
    #: what recovery saw after crash-debris discard.
    checkpoint_candidates: List[int] = field(default_factory=list)
    #: this run resumed from a durable progress watermark.
    resumed: bool = False
    #: first epoch this run actually replayed when resuming (None when
    #: the run started from the checkpoint).
    resumed_from_epoch: Optional[int] = None
    #: progress watermarks persisted across all attempts of this crash.
    watermark_saves: int = 0
    #: re-assignment rounds the resilient executor ran (worker deaths).
    reassign_rounds: int = 0
    #: tasks moved off dead workers onto survivors.
    tasks_reassigned: int = 0
    #: workers whose death affected the schedule.
    dead_workers: Tuple[int, ...] = ()
    #: partial task execution lost to worker deaths (virtual seconds).
    wasted_task_seconds: float = 0.0
    #: events replayed by crashed attempts and replayed again because no
    #: watermark covered them (cumulative across attempts).
    wasted_events: int = 0
    #: chains re-executed inside the idempotently re-run in-flight epoch.
    wasted_chains: int = 0
    #: recover() invocations for this crash, including this one.
    attempts: int = 1
    #: virtual seconds across *all* attempts of this crash, including
    #: the time crashed attempts burned before dying (true MTTR).
    elapsed_total_seconds: float = 0.0
    #: durable progress watermarks found damaged (torn/corrupt slot) and
    #: discarded — each one silently degraded an attempt to a fresh
    #: start, which only costs speed but is worth surfacing.
    watermark_degradations: int = 0

    def degraded(self) -> bool:
        """True when any rung below the fast path was taken."""
        return bool(self.fallbacks) or self.checkpoint_fallbacks > 0


@dataclass(frozen=True)
class EpochStats:
    """Per-epoch runtime observability (volatile; for dashboards/tests).

    Recorded after every processed epoch.  ``epoch_len`` captures the
    punctuation interval in force when the epoch was formed, so the
    adaptive commitment controller's decisions are visible as a time
    series.
    """

    epoch_id: int
    num_events: int
    num_aborted: int
    elapsed_seconds: float
    throughput_eps: float
    log_bytes_delta: int
    epoch_len: int


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
        allow_degraded_recovery: bool = True,
        gc_keep_checkpoints: int = 1,
        recovery_faults: Sequence[WorkerFault] = (),
        resumable_recovery: bool = True,
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
        self._crashed = False
        self._crash_epoch: Optional[int] = None
        self._pending_events: List[Event] = []
        self._peak_buffer_bytes = 0
        # One encoding of the initial state: its length is the memory
        # report's state size, its bytes the epoch -1 snapshot below.
        initial_state = Encoded(encode(self.store.snapshot()))
        self._state_bytes = len(initial_state)
        #: incremental checkpointing: delta snapshots of dirty records,
        #: anchored by a full snapshot every ``full_snapshot_every``.
        self.incremental_snapshots = incremental_snapshots
        self.full_snapshot_every = full_snapshot_every
        self._dirty_refs: set = set()
        self._deltas_since_full = 0
        self._snapshot_bytes_written = 0
        #: ladder behaviour: degrade through DEGRADABLE_ERRORS (default)
        #: or fail loudly on the first damaged segment (strict mode).
        self.allow_degraded_recovery = allow_degraded_recovery
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
        #: persist recovery-progress watermarks so a crash mid-recovery
        #: resumes instead of restarting from scratch.
        self.resumable_recovery = resumable_recovery
        self._recovery_machine: Optional[Machine] = None
        self._last_watermark_state: Optional[Dict] = None
        self._recovery_seconds_burned = 0.0
        self._recovery_attempts = 0
        self._watermark_saves = 0
        self._unwatermarked_events = 0
        self._wasted_recovery_events = 0
        self._wasted_recovery_chains = 0
        self._chains_done_in_flight = 0
        self._watermark_degradations = 0
        #: degraded-serving view: (StateStore, checkpoint_epoch), lazily
        #: restored from the newest readable checkpoint while crashed.
        self._degraded_view: Optional[Tuple[StateStore, int]] = None
        #: stale reads answered from checkpoints across this scheme's life.
        self.degraded_reads_served = 0
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
        if self._crashed:
            raise RecoveryError("scheme has crashed; call recover() first")
        incoming = list(events)
        if self.persists_events and incoming:
            # The spout persists input events the moment they arrive
            # (§VI-C step ①) — even a partial epoch survives a crash.
            io_s = self.disk.events.append_events(
                [e.encoded() for e in incoming]
            )
            self._charge_runtime_io(io_s, len(incoming) * 24)
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
            try:
                self._process_epoch(batch)
            except InjectedCrash:
                # The chaos layer killed the process mid-epoch: the
                # current epoch's durable writes are whatever landed,
                # everything volatile is gone.  The epoch being
                # processed never committed, so the crash point is the
                # previous epoch; recover() discards the partial
                # artifacts and reprocesses the sealed events.
                self._enter_crashed_state(self._next_epoch - 1)
                raise
        self._pending_events = queue[done:]
        return self._runtime_report(start_elapsed, start_events)

    def _process_epoch(self, batch: Sequence[Event]) -> List[Tuple[int, tuple]]:
        epoch_id = self._next_epoch
        epoch_start = self.machine.elapsed()
        log_bytes_start = self.disk.logs.bytes_stored
        epoch_len_in_force = self.epoch_len
        if self.persists_events:
            # Payloads are already durable; sealing writes only the
            # epoch boundary record.
            io_s = self.disk.events.seal_epoch(epoch_id, len(batch))
            self._charge_runtime_io(io_s, 16)
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
        snap = self.store.snapshot()
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
            encoded = Encoded(encode(delta))
            # Measure-only: the memory report wants the full state's
            # size, and a delta checkpoint writes no full state.
            self._state_bytes = len(encode(snap))
            io_s = self.disk.snapshots.put_delta(epoch_id, encoded, base)
            self._deltas_since_full += 1
        else:
            encoded = Encoded(encode(snap))
            self._state_bytes = len(encoded)
            io_s = self.disk.snapshots.put(epoch_id, encoded)
            self._deltas_since_full = 0
        self._charge_runtime_io(io_s, len(encoded))
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

    def _charge_runtime_io(
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

    def _charge_tracking(self, per_item_seconds: Sequence[float]) -> None:
        """Charge parallelizable dependency-tracking work (Fig. 12d)."""
        self.machine.spend_parallel(buckets.TRACK, per_item_seconds)

    def _note_buffer(self, num_bytes: int) -> None:
        """Record a scheme's volatile log-buffer high-water mark."""
        self._peak_buffer_bytes = max(self._peak_buffer_bytes, num_bytes)

    def _commit_log_blocking(self, stream: str, epoch_id: int, records) -> None:
        """Group-commit one epoch's log records on the critical path.

        ``records`` is encoded once: the buffer high-water mark, the
        serialization charge and the committed segment all come from
        those bytes.  The flush is ``blocking`` (see
        :meth:`_charge_runtime_io`).
        """
        encoded = Encoded(encode(records))
        self._note_buffer(len(encoded))
        io_s = self.disk.logs.commit_epoch(stream, epoch_id, encoded)
        self._charge_runtime_io(io_s, len(encoded), blocking=True)

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
        self._enter_crashed_state(self._next_epoch - 1)

    def _enter_crashed_state(self, crash_epoch: int) -> None:
        """Shared crash bookkeeping: everything volatile is destroyed."""
        self._crashed = True
        self._crash_epoch = crash_epoch
        self.store = None
        self._pending_events = []
        # A fresh crash starts a fresh recovery history.  The durable
        # progress watermark is NOT touched: it either belongs to this
        # crash (process death during a previous recovery attempt, e.g.
        # a reopened file-backed disk) or is rejected at load time.
        self._recovery_attempts = 0
        self._watermark_saves = 0
        self._unwatermarked_events = 0
        self._wasted_recovery_events = 0
        self._wasted_recovery_chains = 0
        self._chains_done_in_flight = 0
        self._watermark_degradations = 0
        self._last_watermark_state = None
        self._recovery_seconds_burned = 0.0
        self._degraded_view = None
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
        crash_epoch = max(candidates)
        self._next_epoch = crash_epoch + 1
        self._enter_crashed_state(crash_epoch)

    def degraded_read(self, ref) -> DegradedRead:
        """Serve a read from the newest readable checkpoint while down.

        Degraded-mode serving: the node is crashed and recovery may be
        in flight, but durable checkpoints survive — so a read can be
        answered *stale* instead of erroring, tagged with the exact
        staleness bound (epochs the checkpoint lags the crash point).
        The serving view is restored once per crash and cached; it never
        touches the recovering store, so serving stale reads cannot
        perturb recovery, and the same seed always yields bit-identical
        answers (the checkpoint bytes are deterministic).

        Raises :class:`RecoveryError` when the node is healthy (callers
        must read live state instead — a silent stale read on a healthy
        node would be a correctness bug), a storage error when no
        checkpoint is readable, and :class:`TransactionError` when the
        checkpoint has no such record.
        """
        if not self._crashed:
            raise RecoveryError(
                "degraded reads are only served while the node is down; "
                "read live state instead"
            )
        if self._degraded_view is None:
            state, snap_epoch, _fallbacks, _io, _enc = self._load_checkpoint()
            view = StateStore()
            view.restore(state)
            self._degraded_view = (view, snap_epoch)
        view, snap_epoch = self._degraded_view
        value = view.peek(ref)
        if value is None:
            raise TransactionError(
                f"degraded read: checkpoint {snap_epoch} has no record "
                f"at {ref}"
            )
        self.degraded_reads_served += 1
        assert self._crash_epoch is not None
        return DegradedRead(
            table=ref.table,
            key=ref.key,
            value=value,
            checkpoint_epoch=snap_epoch,
            staleness_epochs=self._crash_epoch - snap_epoch,
            stale=True,
        )

    def recover(self) -> RecoveryReport:
        """Template method: restore state to the failure point (§V-C).

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
          :class:`ResilientExecutor` within its re-assignment budget,
          after which :class:`~repro.errors.ReassignmentError` is
          raised with the scheme still crashed (and the watermark
          intact, so a retry on healthy workers resumes).
        - With ``resumable_recovery``, a durable progress watermark is
          persisted after every replayed epoch; a crash
          mid-recovery (``recovery.*`` crash points, injected via the
          chaos layer) loses only the un-watermarked suffix, which the
          next ``recover()`` call re-executes idempotently — the sink
          deduplicates re-delivered outputs and the deterministic
          pipeline reproduces identical state.  Nested crashes simply
          repeat the argument from the newest surviving watermark, so
          any finite number of failures converges.
        """
        if not self._crashed:
            raise RecoveryError("recover() called without a crash")
        machine = Machine(self.num_workers)
        plan = (
            WorkerFaultPlan(self.recovery_faults, self.num_workers)
            if self.recovery_faults
            else None
        )
        executor = ResilientExecutor(
            machine,
            self.costs.sync_handoff,
            self.costs.remote_fetch,
            fault_plan=plan,
        )
        self._recovery_attempts += 1
        self._recovery_machine = machine
        try:
            return self._recover(machine, executor, plan)
        except InjectedCrash:
            # The recovering process itself died.  Everything replayed
            # since the last watermark must be replayed again by the
            # next attempt — account it as wasted re-execution.
            self._wasted_recovery_events += self._unwatermarked_events
            self._unwatermarked_events = 0
            self._recovery_seconds_burned += machine.elapsed()
            raise
        finally:
            self._recovery_machine = None

    def _recover(
        self,
        machine: Machine,
        executor: ResilientExecutor,
        plan: Optional[WorkerFaultPlan],
    ) -> RecoveryReport:
        # A mid-epoch crash leaves partial durable artifacts (a torn
        # group commit, a torn checkpoint) for the epoch that never
        # committed; discard them — the epoch is rebuilt from its
        # sealed events, never from debris.  Idempotent across attempts.
        self.disk.logs.discard_from(self._crash_epoch + 1)
        self.disk.snapshots.discard_from(self._crash_epoch + 1)

        ladder: Dict[str, int] = {}
        fallbacks: List[FallbackEvent] = []
        events_replayed = 0
        epochs = 0
        ckpt_fallbacks = 0
        ckpt_candidates: List[int] = []
        resumed = False
        resumed_from: Optional[int] = None
        store = StateStore()

        progress = self._load_progress(machine)
        if progress is not None:
            # Resume: the partially-recovered state and all bookkeeping
            # come from the watermark of the crashed previous attempt.
            store.restore(progress["state"])
            self._last_watermark_state = progress["state"]
            snap_epoch = progress["snap_epoch"]
            start_epoch = progress["next_epoch"]
            ladder = dict(progress["ladder"])
            fallbacks = [FallbackEvent(*f) for f in progress["fallbacks"]]
            events_replayed = progress["events_replayed"]
            epochs = progress["epochs_replayed"]
            ckpt_fallbacks = progress["checkpoint_fallbacks"]
            resumed = True
            if start_epoch <= self._crash_epoch:
                resumed_from = start_epoch
            # A chain mark for the epoch we are about to re-execute
            # quantifies the chains the dead attempt had already run.
            mark, io_m = self.disk.progress.load_chain_mark()
            if io_m:
                machine.spend_all(buckets.RELOAD, io_m)
            if isinstance(mark, dict) and mark.get("epoch") == start_epoch:
                self._wasted_recovery_chains += int(
                    mark.get("chains_done", 0)
                )
        else:
            ckpt_candidates = self.disk.snapshots.epochs_desc()
            state, snap_epoch, ckpt_fallbacks, io_s, encoded_state = (
                self._load_checkpoint()
            )
            store.restore(state)
            machine.spend_all(buckets.RELOAD, io_s)
            start_epoch = snap_epoch + 1
            self._crash_point("recovery.checkpoint-loaded")
            # Initial watermark: a crash from here on resumes without
            # re-walking the checkpoint ladder.  Its state equals the
            # checkpoint just loaded, so the delta-charged append below
            # costs only the header — and the checkpoint's own verified
            # bytes (when it was one full snapshot) are spliced into the
            # slot instead of encoding every record again.
            self._last_watermark_state = store.snapshot()
            self._save_progress(
                machine, store, snap_epoch, start_epoch, ladder,
                fallbacks, events_replayed, epochs, ckpt_fallbacks,
                encoded_state=encoded_state,
            )

        for epoch_id in range(start_epoch, self._crash_epoch + 1):
            self._chains_done_in_flight = 0
            outputs, rung = self._recover_epoch_laddered(
                machine, executor, store, epoch_id, fallbacks
            )
            machine.barrier(buckets.WAIT)
            for seq, output in outputs:
                self.sink.deliver(seq, output)
            epoch_events = self.disk.events.count_epoch(epoch_id)
            events_replayed += epoch_events
            self._unwatermarked_events += epoch_events
            epochs += 1
            ladder[rung] = ladder.get(rung, 0) + 1
            self._crash_point("recovery.epoch-replayed")
            if self.resumable_recovery:
                self._save_progress(
                    machine, store, snap_epoch, epoch_id + 1, ladder,
                    fallbacks, events_replayed, epochs, ckpt_fallbacks,
                )
                self._crash_point("recovery.watermark")

        # A mid-epoch crash sealed epochs it never finished processing:
        # un-seal them (newest first, so arrival order is preserved)
        # back into the ingress tail for ordinary reprocessing.
        last_sealed = self.disk.events.last_sealed_epoch()
        if last_sealed is not None and last_sealed > self._crash_epoch:
            for epoch_id in range(last_sealed, self._crash_epoch, -1):
                self.disk.events.reopen_epoch(epoch_id)
            self._next_epoch = self._crash_epoch + 1

        # Restore the ingress tail: events that had arrived but were
        # still waiting for a punctuation when the node failed.  They
        # were never processed, so they simply re-enter the buffer.
        raw_pending, io_p = self.disk.events.read_pending()
        if raw_pending:
            machine.spend_all(buckets.RELOAD, io_p)
            self._pending_events = [Event.from_encoded(r) for r in raw_pending]

        self._crash_point("recovery.finalize")
        if self.resumable_recovery:
            io_c = self.disk.progress.clear()
            machine.spend_all(buckets.IO, io_c)
        self.store = store
        self._crashed = False
        self._degraded_view = None
        elapsed = machine.elapsed()
        stats = executor.stats
        return RecoveryReport(
            scheme=self.name,
            events_replayed=events_replayed,
            epochs_replayed=epochs,
            elapsed_seconds=elapsed,
            throughput_eps=events_replayed / elapsed if elapsed > 0 else 0.0,
            buckets=machine.bucket_breakdown(),
            ladder=ladder,
            fallbacks=fallbacks,
            checkpoint_epoch=snap_epoch,
            checkpoint_fallbacks=ckpt_fallbacks,
            checkpoint_candidates=ckpt_candidates,
            resumed=resumed,
            resumed_from_epoch=resumed_from,
            watermark_saves=self._watermark_saves,
            reassign_rounds=stats.rounds,
            tasks_reassigned=stats.tasks_reassigned,
            dead_workers=(
                tuple(sorted(plan.observed_deaths)) if plan is not None else ()
            ),
            wasted_task_seconds=stats.wasted_seconds,
            wasted_events=self._wasted_recovery_events,
            wasted_chains=self._wasted_recovery_chains,
            attempts=self._recovery_attempts,
            elapsed_total_seconds=self._recovery_seconds_burned + elapsed,
            watermark_degradations=self._watermark_degradations,
        )

    # ------------------------------------------------------------------
    # resumable-recovery plumbing
    # ------------------------------------------------------------------

    def _crash_point(self, name: str) -> None:
        """Named crash gate of the ``recovery.*`` family.

        The chaos layer can kill the recovering process as it passes
        any of these milestones; convergence of re-running ``recover()``
        afterwards is what the resumability machinery guarantees.
        """
        faults = self.disk.faults
        if faults is not None:
            faults.at_point(name)

    def _load_progress(self, machine: Machine):
        """Load the durable watermark of a crashed previous attempt.

        Returns the record, or ``None`` to start fresh: no watermark,
        resumability disabled, a damaged slot (a torn watermark flush
        only costs speed, never correctness), or a stale record from an
        unrelated crash or scheme.
        """
        if not self.resumable_recovery or not self.disk.progress.exists:
            return None
        try:
            record, io_s = self.disk.progress.load()
        except DEGRADABLE_ERRORS:
            # A damaged watermark only loses resume progress, never
            # correctness — but count the silent fresh-start so reports
            # can surface how often the slot was found torn.
            self._watermark_degradations += 1
            self.disk.progress.clear()
            return None
        machine.spend_all(buckets.RELOAD, io_s)
        if (
            not isinstance(record, dict)
            or record.get("scheme") != self.name
            or record.get("crash_epoch") != self._crash_epoch
        ):
            self.disk.progress.clear()
            return None
        return record

    def _save_progress(
        self,
        machine: Machine,
        store: StateStore,
        snap_epoch: int,
        next_epoch: int,
        ladder: Dict[str, int],
        fallbacks: List[FallbackEvent],
        events_replayed: int,
        epochs: int,
        ckpt_fallbacks: int,
        encoded_state: Optional[Encoded] = None,
    ) -> None:
        """Persist the recovery-progress watermark (CRC-framed slot).

        Billed as an append-only delta log: only the state records
        changed since the previous watermark are charged (plus a small
        header), and the flush is asynchronous — recovery never blocks
        on watermark durability, because losing one only costs
        re-execution, never correctness.  ``encoded_state``, when given,
        is the codec encoding of ``store``'s current state and stands in
        for it in the slot.
        """
        if not self.resumable_recovery:
            return
        snap = store.snapshot()
        record = {
            "scheme": self.name,
            "crash_epoch": self._crash_epoch,
            "snap_epoch": snap_epoch,
            "next_epoch": next_epoch,
            "ladder": dict(ladder),
            "fallbacks": [
                (f.epoch_id, f.error, f.detail, f.rung) for f in fallbacks
            ],
            "events_replayed": events_replayed,
            "epochs_replayed": epochs,
            "checkpoint_fallbacks": ckpt_fallbacks,
            "state": snap if encoded_state is None else encoded_state,
        }
        delta_bytes = self._watermark_delta_bytes(
            self._last_watermark_state, snap
        )
        io_s = self.disk.progress.save(record, charge_bytes=64 + delta_bytes)
        machine.spend_all(buckets.IO, io_s * (1.0 - self.costs.io_overlap))
        self._last_watermark_state = snap
        self._watermark_saves += 1
        self._unwatermarked_events = 0

    @staticmethod
    def _watermark_delta_bytes(
        prev: Optional[Dict], cur: Dict
    ) -> int:
        """Encoded size of the records changed between two snapshots.

        Measure-only by design: this is the delta the watermark model
        bills, while the slot is written with the full state, so no
        write produces these bytes.
        """
        if prev is None:
            return len(encode(cur))
        total = 0
        for table, records in cur.items():
            prev_records = prev.get(table)
            if prev_records is None:
                total += len(encode({table: records}))
                continue
            changed = {
                k: v for k, v in records.items() if prev_records.get(k) != v
            }
            if changed:
                total += len(encode({table: changed}))
        return total

    def _mark_chain_progress(self, epoch_id: int) -> None:
        """Per-chain watermark inside the in-flight epoch (recovery only).

        Called by chain-structured schemes after each executed chain
        bundle.  The mark never *skips* chains on resume — the epoch is
        re-executed idempotently — it quantifies how much of the
        in-flight epoch a mid-recovery crash wastes.
        """
        if not (self._crashed and self.resumable_recovery):
            return
        self._chains_done_in_flight += 1
        # Fire-and-forget: the mark is an 8-byte counter overwritten in
        # place and flushed by the async I/O path; the replay pipeline
        # never blocks on it (losing a mark only blurs the wasted-work
        # statistics, never correctness), so no core is charged.
        self.disk.progress.save_chain_mark(
            {"epoch": epoch_id, "chains_done": self._chains_done_in_flight}
        )
        self._crash_point("recovery.chain")

    def _load_checkpoint(self):
        """Checkpoint rung of the ladder: newest readable snapshot.

        Returns ``(state, snap_epoch, fallbacks_taken, io_seconds,
        encoded_state)``; ``encoded_state`` is the loaded checkpoint's
        verified payload when it was a single full snapshot (the bytes
        ``state`` encodes to), else ``None``.
        In strict mode (``allow_degraded_recovery=False``) the first
        unreadable checkpoint fails recovery; otherwise older
        checkpoints are tried in turn and the last storage error is
        re-raised only when every candidate is exhausted.
        """
        candidates = self.disk.snapshots.epochs_desc()
        if not candidates:
            raise MissingSegmentError(
                f"{self.name}: no checkpoint available on disk"
            )
        # Lazy import: repro.check.mutations is a leaf module, but the
        # scheme layer must not depend on the checker package at import
        # time (the checker's runner imports this module).
        from repro.check.mutations import mutation_enabled

        fallbacks = 0
        last_error: Optional[Exception] = None
        for snap_epoch in candidates:
            try:
                state, io_s = self.disk.snapshots.load(snap_epoch)
                encoded_state = self.disk.snapshots.encoded_full(snap_epoch)
                if fallbacks and mutation_enabled("skip-ladder-rung"):
                    # Seeded bug (checker validation only, armed via the
                    # REPRO_CHECK_MUTATION env flag): report the epoch of
                    # the *newest* candidate instead of the rung actually
                    # loaded, so replay starts after the skipped epochs —
                    # a silent divergence the explorer must find.
                    return state, candidates[0], fallbacks, io_s, encoded_state
                return state, snap_epoch, fallbacks, io_s, encoded_state
            except DEGRADABLE_ERRORS as exc:
                if not self.allow_degraded_recovery:
                    raise
                last_error = exc
                fallbacks += 1
        raise last_error

    def _read_epoch_events(self, machine: Machine, epoch_id: int) -> List[Event]:
        raw, io_e = self.disk.events.read_epochs(epoch_id, epoch_id)
        machine.spend_all(buckets.RELOAD, io_e)
        return [Event.from_encoded(r) for r in raw]

    def _recover_epoch_laddered(
        self,
        machine: Machine,
        executor: ParallelExecutor,
        store: StateStore,
        epoch_id: int,
        fallbacks: List[FallbackEvent],
    ) -> Tuple[List[Tuple[int, tuple]], str]:
        """Replay one epoch via the fastest rung whose segments verify.

        The fast path (the scheme's own mechanism) validates every
        durable segment *before* mutating ``store``, so a torn, corrupt,
        dropped or unreadable segment surfaces here with the store still
        consistent; the epoch's segments are then quarantined and the
        epoch is reprocessed from the durable event store (CKPT-style),
        which preserves exactness because the pipeline is deterministic.
        """
        try:
            if self.replays_from_events:
                events = self._read_epoch_events(machine, epoch_id)
            else:
                # Command-log replay: the scheme reloads its own log
                # records; the event store is only consulted for the
                # epoch's event count (delivery accounting).
                events = []
            outputs = self._recover_epoch(
                machine, executor, store, epoch_id, events
            )
            return outputs, "fast"
        except DEGRADABLE_ERRORS as exc:
            if not self.allow_degraded_recovery:
                raise
            for stream in self.log_streams:
                self.disk.logs.quarantine(stream, epoch_id)
            # Degrade: reprocess from the durable event store.  If the
            # events themselves are missing or unreadable, this raises
            # again and recovery fails loudly — there is no lower rung.
            events = self._read_epoch_events(machine, epoch_id)
            outputs = self._compute_epoch(machine, executor, store, events)[3]
            fallbacks.append(
                FallbackEvent(epoch_id, type(exc).__name__, str(exc))
            )
            return outputs, "replay"

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

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------

    def committed_transactions(
        self, events: Sequence[Event], aborted: Sequence[int]
    ) -> List[Transaction]:
        """Rebuild the committed transactions of an epoch from events."""
        txns = preprocess(events, self.workload, 0)
        aborted_set = set(aborted)
        return [t for t in txns if t.txn_id not in aborted_set]
