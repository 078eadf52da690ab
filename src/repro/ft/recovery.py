"""One crash, from the moment it lands to the ``recover()`` that gets past it.

A scheme makes a :class:`Recovery` when it enters the crashed state and
drops it when an attempt converges, so "crashed" *is* "the scheme holds
a ``Recovery``" and nothing learned about one crash can leak into the
next.  What lives as long as the scheme stays on
:class:`~repro.ft.base.FTScheme`; what means something only between a
crash and the attempt that gets past it (the crash epoch, attempts,
time failed attempts burned, watermark and wasted-work history, the
stale-read view) is here; what one attempt measures is on the
:class:`~repro.ft.reports.RecoveryReport` it fills in as it advances.

The recovery template (§V-C) hardens the paper's clean failure model
(§II-C assumes the disk survives *consistent*) with a **graceful
fallback ladder**:

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

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro import buckets
from repro.engine.events import Event
from repro.engine.refs import StateRef
from repro.engine.state import StateStore
from repro.errors import (
    CorruptSegmentError,
    MissingSegmentError,
    ReadFaultError,
    ReproError,
    TornSegmentError,
    TransactionError,
)
from repro.ft.reports import DegradedRead, FallbackEvent, RecoveryReport
from repro.mutations import mutation_enabled
from repro.sim.clock import Machine
from repro.sim.executor import (
    ParallelExecutor,
    ResilientExecutor,
    WorkerFaultPlan,
)
from repro.storage.codec import Encoded, encode

if TYPE_CHECKING:
    from repro.ft.base import FTScheme

#: Layout of the durable watermark record.  A slot written under any
#: other layout (format 1 carried a full ``"state"`` snapshot and no
#: ``"format"`` field) is stale: cleared, and recovery starts fresh.
WATERMARK_FORMAT = 2

#: Storage errors the fallback ladder may degrade through; anything
#: else (or these, once the ladder is exhausted) fails recovery loudly.
DEGRADABLE_ERRORS = (
    TornSegmentError,
    CorruptSegmentError,
    MissingSegmentError,
    ReadFaultError,
)


class Recovery:
    """Everything one crash of ``scheme`` at ``crash_epoch`` accumulates."""

    def __init__(self, scheme: "FTScheme", crash_epoch: int):
        self.scheme = scheme
        self.crash_epoch = crash_epoch
        #: ``attempt()`` calls so far, the running one included.
        self.attempts = 0
        #: virtual seconds failed attempts ran before they died.
        self.seconds_burned = 0.0
        self.watermark_saves = 0
        self.watermark_degradations = 0
        self.wasted_events = 0
        self.wasted_chains = 0
        #: events replayed since the last watermark: what the next
        #: attempt replays again if this one dies now.
        self._unwatermarked_events = 0
        self._chains_done_in_flight = 0
        #: the running attempt's watermark log: the refs replay wrote
        #: since the last save (the recovering store's write journal),
        #: the state as of that save (checkpoint ``snap_epoch`` with
        #: every increment applied, updated in place) and the
        #: increments' encoded blobs.
        self._journal: List[StateRef] = []
        self._watermarked: Dict[str, Dict] = {}
        self._deltas: List[Encoded] = []
        #: degraded-serving view: (StateStore, checkpoint_epoch), lazily
        #: restored from the newest readable checkpoint.
        self._degraded_view: Optional[Tuple[StateStore, int]] = None

    # ------------------------------------------------------------------
    # one attempt
    # ------------------------------------------------------------------

    def attempt(self) -> Tuple[RecoveryReport, StateStore, List[Event]]:
        """Run the recovery template once on a fresh machine.

        Returns the attempt's report, the recovered store and the
        restored ingress tail; the scheme installs them.  An attempt
        that fails — the recovering process died (``InjectedCrash``),
        no worker survived to take over lost work, or the ladder ran
        out of rungs — still burned its time, and
        whatever it replayed past the last watermark is replayed again
        by the next one: both are booked here, whichever error ended
        the attempt, before it propagates.
        """
        scheme = self.scheme
        machine = Machine(scheme.num_workers)
        plan = (
            WorkerFaultPlan(scheme.recovery_faults, scheme.num_workers)
            if scheme.recovery_faults
            else None
        )
        executor = ResilientExecutor(
            machine,
            scheme.costs.sync_handoff,
            scheme.costs.remote_fetch,
            fault_plan=plan,
        )
        self.attempts += 1
        report = RecoveryReport(scheme.name)
        try:
            store, pending = self._run(machine, executor, report)
        except ReproError:
            self.wasted_events += self._unwatermarked_events
            self._unwatermarked_events = 0
            self.seconds_burned += machine.elapsed()
            raise
        elapsed = machine.elapsed()
        stats = executor.stats
        report.elapsed_seconds = elapsed
        report.throughput_eps = (
            report.events_replayed / elapsed if elapsed > 0 else 0.0
        )
        report.buckets = machine.bucket_breakdown()
        report.reassign_rounds = stats.rounds
        report.tasks_reassigned = stats.tasks_reassigned
        if plan is not None:
            report.dead_workers = tuple(sorted(plan.observed_deaths))
        report.watermark_saves = self.watermark_saves
        report.wasted_events = self.wasted_events
        report.wasted_chains = self.wasted_chains
        report.attempts = self.attempts
        report.elapsed_total_seconds = self.seconds_burned + elapsed
        report.watermark_degradations = self.watermark_degradations
        return report, store, pending

    def _run(
        self,
        machine: Machine,
        executor: ResilientExecutor,
        report: RecoveryReport,
    ) -> Tuple[StateStore, List[Event]]:
        """Template method: restore state to the failure point (§V-C)."""
        scheme = self.scheme
        disk = scheme.disk
        # A mid-epoch crash leaves partial durable artifacts (a torn
        # group commit, a torn checkpoint) for the epoch that never
        # committed; discard them — the epoch is rebuilt from its
        # sealed events, never from debris.  Idempotent across attempts.
        disk.logs.discard_from(self.crash_epoch + 1)
        disk.snapshots.discard_from(self.crash_epoch + 1)

        store = StateStore()
        self._journal = store.journal = []
        resumable = self._load_progress(machine)
        if resumable is not None:
            start_epoch = self._resume(machine, store, report, *resumable)
        else:
            start_epoch = self._start_from_checkpoint(machine, store, report)

        for epoch_id in range(start_epoch, self.crash_epoch + 1):
            self._chains_done_in_flight = 0
            outputs, rung = self._recover_epoch_laddered(
                machine, executor, store, epoch_id, report.fallbacks
            )
            machine.barrier(buckets.WAIT)
            for seq, output in outputs:
                scheme.sink.deliver(seq, output)
            epoch_events = disk.events.count_epoch(epoch_id)
            report.events_replayed += epoch_events
            self._unwatermarked_events += epoch_events
            report.epochs_replayed += 1
            report.ladder[rung] = report.ladder.get(rung, 0) + 1
            self._crash_point("recovery.epoch-replayed")
            self._save_progress(machine, store, report, epoch_id + 1)
            self._crash_point("recovery.watermark")

        # A mid-epoch crash sealed epochs it never finished processing:
        # un-seal them (newest first, so arrival order is preserved)
        # back into the ingress tail for ordinary reprocessing.  The
        # scheme's next epoch is already ``crash_epoch + 1``: that is
        # how the crash epoch is defined.
        last_sealed = disk.events.last_sealed_epoch()
        if last_sealed is not None and last_sealed > self.crash_epoch:
            for epoch_id in range(last_sealed, self.crash_epoch, -1):
                disk.events.reopen_epoch(epoch_id)

        # Restore the ingress tail: events that had arrived but were
        # still waiting for a punctuation when the node failed.  They
        # were never processed, so they simply re-enter the buffer.
        pending, io_p = disk.events.read_pending()
        if pending:
            machine.spend_all(buckets.RELOAD, io_p)

        self._crash_point("recovery.finalize")
        io_c = disk.progress.clear()
        machine.spend_all(buckets.IO, io_c)
        store.journal = None
        return store, pending

    def _start_from_checkpoint(
        self, machine: Machine, store: StateStore, report: RecoveryReport
    ) -> int:
        """Walk the checkpoint ladder; returns the first epoch to replay."""
        report.checkpoint_candidates = self.scheme.disk.snapshots.epochs_desc()
        state, snap_epoch, ckpt_fallbacks, io_s = self._load_checkpoint()
        report.checkpoint_epoch = snap_epoch
        report.checkpoint_fallbacks = ckpt_fallbacks
        if ckpt_fallbacks and mutation_enabled("skip-ladder-rung"):
            # Seeded bug (checker validation only, armed via the
            # REPRO_CHECK_MUTATION env flag): after a fallback, report
            # the *newest* candidate instead of the rung actually loaded
            # — replay starts from the right rung.  The ladder invariant
            # sees the skipped rung, and so does no-undocumented-failure:
            # _save_progress persists report.checkpoint_epoch, so a crash
            # later in this recovery resumes from the misreported rung
            # (CKPT[rpoint:recovery.epoch-replayed+storage:read-error]).
            report.checkpoint_epoch = report.checkpoint_candidates[0]
        store.restore(state)
        self._watermarked, self._deltas = state, []
        machine.spend_all(buckets.RELOAD, io_s)
        self._crash_point("recovery.checkpoint-loaded")
        # Initial watermark: a crash from here on resumes without
        # re-walking the checkpoint ladder.  Nothing was replayed yet,
        # so its delta log is empty and the append costs the header.
        self._save_progress(machine, store, report, snap_epoch + 1)
        return snap_epoch + 1

    def _crash_point(self, name: str) -> None:
        """Named crash gate of the ``recovery.*`` family.

        The chaos layer can kill the recovering process as it passes
        any of these milestones; convergence of re-running ``recover()``
        afterwards is what the resumability machinery guarantees.
        """
        faults = self.scheme.disk.faults
        if faults is not None:
            faults.at_point(name)

    # ------------------------------------------------------------------
    # progress watermarks: written from the report, restored into it
    # ------------------------------------------------------------------

    def _save_progress(
        self,
        machine: Machine,
        store: StateStore,
        report: RecoveryReport,
        next_epoch: int,
    ) -> None:
        """Persist the recovery-progress watermark (CRC-framed slot).

        An append-only delta log over checkpoint ``snap_epoch``: this
        save appends one ``{table: changed}`` blob per table holding the
        records the store's write journal names whose value differs from
        the previous watermark's, and is billed their length plus a
        small header.  Earlier blobs are spliced back as they were
        encoded, so a save costs what the replayed epoch wrote, never
        what the state holds.  The flush is asynchronous — recovery
        never blocks on watermark durability, because losing one only
        costs re-execution, never correctness.
        """
        scheme = self.scheme
        changed: Dict[str, Dict] = {}
        for ref in self._journal:
            table, key = ref
            value = store.get(ref)
            watermarked = self._watermarked[table]
            if watermarked.get(key) != value:
                watermarked[key] = value
                changed.setdefault(table, {})[key] = value
        self._journal.clear()
        increment = [
            Encoded(encode({table: changed[table]})) for table in sorted(changed)
        ]
        self._deltas += increment
        record = {
            "format": WATERMARK_FORMAT,
            "scheme": scheme.name,
            "crash_epoch": self.crash_epoch,
            "snap_epoch": report.checkpoint_epoch,
            "next_epoch": next_epoch,
            "ladder": dict(report.ladder),
            "fallbacks": [
                (f.epoch_id, f.error, f.detail, f.rung)
                for f in report.fallbacks
            ],
            "events_replayed": report.events_replayed,
            "epochs_replayed": report.epochs_replayed,
            "checkpoint_fallbacks": report.checkpoint_fallbacks,
            "deltas": list(self._deltas),
        }
        io_s = scheme.disk.progress.save(
            record, charge_bytes=64 + sum(map(len, increment))
        )
        machine.spend_all(buckets.IO, io_s * (1.0 - scheme.costs.io_overlap))
        self.watermark_saves += 1
        self._unwatermarked_events = 0

    def _resume(
        self,
        machine: Machine,
        store: StateStore,
        report: RecoveryReport,
        record: Dict,
        state: Dict,
    ) -> int:
        """Pick up where the watermark of a dead attempt left off.

        The partially-recovered state is ``state`` (checkpoint
        ``snap_epoch``, just reloaded) with the record's delta log
        applied in order; everything the report had counted comes from
        the record.  Returns the first epoch to replay.
        """
        for delta in record["deltas"]:
            for table, records in delta.items():
                state[table].update(records)
        store.restore(state)
        self._watermarked = state
        self._deltas = [Encoded(encode(delta)) for delta in record["deltas"]]
        report.checkpoint_epoch = record["snap_epoch"]
        report.ladder = dict(record["ladder"])
        report.fallbacks = [FallbackEvent(*f) for f in record["fallbacks"]]
        report.events_replayed = record["events_replayed"]
        report.epochs_replayed = record["epochs_replayed"]
        report.checkpoint_fallbacks = record["checkpoint_fallbacks"]
        report.resumed = True
        start_epoch = record["next_epoch"]
        if start_epoch <= self.crash_epoch:
            report.resumed_from_epoch = start_epoch
        # A chain mark for the epoch we are about to re-execute
        # quantifies the chains the dead attempt had already run.
        mark, io_m = self.scheme.disk.progress.load_chain_mark()
        if io_m:
            machine.spend_all(buckets.RELOAD, io_m)
        if isinstance(mark, dict) and mark.get("epoch") == start_epoch:
            self.wasted_chains += int(mark.get("chains_done", 0))
        return start_epoch

    def _load_progress(self, machine: Machine) -> Optional[Tuple[Dict, Dict]]:
        """Load the durable watermark of a dead previous attempt.

        Returns the record and the state of the checkpoint its delta log
        builds on, or ``None`` to start fresh: no watermark, a stale
        record (an unrelated crash or scheme, or a layout this build
        does not write), or a damaged slot or base checkpoint (losing a
        watermark only costs speed, never correctness).
        """
        scheme = self.scheme
        progress = scheme.disk.progress
        if not progress.exists:
            return None
        state = None
        try:
            record, io_s = progress.load()
            machine.spend_all(buckets.RELOAD, io_s)
            if (
                isinstance(record, dict)
                and record.get("format") == WATERMARK_FORMAT
                and "deltas" in record
                and record.get("scheme") == scheme.name
                and record.get("crash_epoch") == self.crash_epoch
            ):
                state, io_b = scheme.disk.snapshots.load(record["snap_epoch"])
                machine.spend_all(buckets.RELOAD, io_b)
        except DEGRADABLE_ERRORS:
            # An unreadable watermark only loses resume progress, never
            # correctness — but count the silent fresh-start so reports
            # can surface how often it happened.
            self.watermark_degradations += 1
        if state is None:
            progress.clear()
            return None
        return record, state

    def mark_chain_progress(self, epoch_id: int) -> None:
        """Per-chain watermark inside the in-flight epoch.

        The mark never *skips* chains on resume — the epoch is
        re-executed idempotently — it quantifies how much of the
        in-flight epoch a mid-recovery crash wastes.
        """
        self._chains_done_in_flight += 1
        # Fire-and-forget: the mark is an 8-byte counter overwritten in
        # place and flushed by the async I/O path; the replay pipeline
        # never blocks on it (losing a mark only blurs the wasted-work
        # statistics, never correctness), so no core is charged.
        self.scheme.disk.progress.save_chain_mark(
            {"epoch": epoch_id, "chains_done": self._chains_done_in_flight}
        )
        self._crash_point("recovery.chain")

    # ------------------------------------------------------------------
    # the ladder
    # ------------------------------------------------------------------

    def _load_checkpoint(self):
        """Checkpoint rung of the ladder: newest readable snapshot.

        Returns ``(state, snap_epoch, fallbacks_taken, io_seconds)``.
        Older checkpoints are tried in turn; the last storage error is
        re-raised only when every candidate is exhausted.
        """
        scheme = self.scheme
        snapshots = scheme.disk.snapshots
        candidates = snapshots.epochs_desc()
        if not candidates:
            raise MissingSegmentError(
                f"{scheme.name}: no checkpoint available on disk"
            )
        fallbacks = 0
        last_error: Optional[Exception] = None
        for snap_epoch in candidates:
            try:
                state, io_s = snapshots.load(snap_epoch)
                return state, snap_epoch, fallbacks, io_s
            except DEGRADABLE_ERRORS as exc:
                last_error = exc
                fallbacks += 1
        raise last_error

    def _read_epoch_events(self, machine: Machine, epoch_id: int) -> List[Event]:
        events, io_e = self.scheme.disk.events.read_epochs(epoch_id, epoch_id)
        machine.spend_all(buckets.RELOAD, io_e)
        return events

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
        scheme = self.scheme
        try:
            if scheme.replays_from_events:
                events = self._read_epoch_events(machine, epoch_id)
            else:
                # Command-log replay: the scheme reloads its own log
                # records; the event store is only consulted for the
                # epoch's event count (delivery accounting).
                events = []
            outputs = scheme._recover_epoch(
                machine, executor, store, epoch_id, events
            )
            return outputs, "fast"
        except DEGRADABLE_ERRORS as exc:
            for stream in scheme.log_streams:
                scheme.disk.logs.quarantine(stream, epoch_id)
            # Degrade: reprocess from the durable event store.  If the
            # events themselves are missing or unreadable, this raises
            # again and recovery fails loudly — there is no lower rung.
            events = self._read_epoch_events(machine, epoch_id)
            outputs = scheme._compute_epoch(machine, executor, store, events)[3]
            fallbacks.append(
                FallbackEvent(epoch_id, type(exc).__name__, str(exc))
            )
            return outputs, "replay"

    # ------------------------------------------------------------------
    # degraded serving
    # ------------------------------------------------------------------

    def degraded_read(self, ref) -> DegradedRead:
        """Answer ``ref`` from the newest readable checkpoint.

        The serving view is restored once per crash and cached; it never
        touches the recovering store, so serving stale reads cannot
        perturb recovery, and the same seed always yields bit-identical
        answers (the checkpoint bytes are deterministic).
        """
        if self._degraded_view is None:
            state, snap_epoch, _fallbacks, _io = self._load_checkpoint()
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
        return DegradedRead(
            table=ref.table,
            key=ref.key,
            value=value,
            checkpoint_epoch=snap_epoch,
            staleness_epochs=self.crash_epoch - snap_epoch,
            stale=True,
        )
