"""Crash-scoped state has a crash-scoped owner.

What a scheme learns about one crash lives on the
:class:`~repro.ft.recovery.Recovery` that crash made, so:

- the durable records that object writes are pinned byte for byte (a
  refactor of its bookkeeping must not move the format);
- nothing of one crash shows up in the report of the next;
- an attempt that fails burns its time whichever error ended it.
"""

from __future__ import annotations

from hashlib import sha256

import pytest

from repro.core.morphstreamr import MorphStreamR
from repro.engine.refs import StateRef
from repro.errors import (
    InjectedCrash,
    MissingSegmentError,
    ReadFaultError,
    ReassignmentError,
    RecoveryError,
    TransactionError,
)
from repro.harness.runner import ground_truth
from repro.sim.executor import WorkerFault
from repro.storage.codec import decode, encode
from repro.storage.faults import FaultInjector, FaultSpec
from repro.storage.integrity import verify
from repro.workloads.streaming_ledger import ACCOUNTS, ASSETS
from tests.reference_codec import reference_encode
from tests.test_resumable_recovery import (
    EPOCHS,
    crash_at,
    recover_until_converged,
    run_to_crash,
)


def more_events(workload, epochs):
    """The ``epochs`` epochs that follow the ones ``run_to_crash`` fed
    (the generator is sequential, so a longer run shares the prefix)."""
    return workload.generate(48 * (EPOCHS + epochs), seed=7)[48 * EPOCHS :]


class TestDurableFormatIsPinned:
    """Goldens: the chain mark from the commit before ``Recovery``
    existed, the watermark from the commit that made it a delta log
    (format 2; format 1 carried the full state under ``"state"``)."""

    #: sha256 of the 964 codec bytes of the whole record, delta log
    #: included.  Re-pinned by PR 23 (checkpoints as columns): the record
    #: is the same, its two ``{table: changed}`` blobs (41 and 44 records)
    #: are now state-table columns at 2 + 8 bytes a record.
    WATERMARK_SHA256 = (
        "6cba2a42142ab316647e2adbc056dddc3c5ea94f34b458804584f00aa5dc5f87"
    )
    #: The same record as the previous format wrote it (1 132 bytes, 12
    #: or 13 a record): the hash PR 22 pinned, so the record did not move.
    WATERMARK_V1_SHA256 = (
        "c28fb463f913d55a004351bebd2a67d4faf95a6243fb2f5d88631809562cd5ac"
    )
    CHAIN_MARK_HEX = "0902050b636861696e735f646f6e650310050565706f6368030a"

    @pytest.fixture(scope="class")
    def progress(self):
        # Dying at the second ``recovery.epoch-replayed`` leaves the
        # watermark saved after the first replayed epoch in the slot and
        # the second epoch's last chain mark beside it.
        injector = FaultInjector([crash_at("recovery.epoch-replayed", nth=2)])
        scheme, _wl, _events = run_to_crash(MorphStreamR, injector)
        with pytest.raises(InjectedCrash):
            scheme.recover()
        return scheme.disk.progress

    def test_watermark_record(self, progress):
        record = decode(verify(progress._slots["progress"], "test"))
        assert sha256(encode(record)).hexdigest() == self.WATERMARK_SHA256
        v1 = reference_encode(record)
        assert sha256(v1).hexdigest() == self.WATERMARK_V1_SHA256
        assert decode(v1) == record
        # One replayed epoch: one blob per table it wrote.
        deltas = record.pop("deltas")
        assert [list(delta) for delta in deltas] == [[ACCOUNTS], [ASSETS]]
        assert record == {
            "format": 2,
            "scheme": "MSR",
            "crash_epoch": EPOCHS - 1,
            "snap_epoch": 3,
            "next_epoch": 5,
            "ladder": {"fast": 1},
            "fallbacks": [],
            "events_replayed": 48,
            "epochs_replayed": 1,
            "checkpoint_fallbacks": 0,
        }

    def test_chain_mark(self, progress):
        mark, _io = progress.load_chain_mark()
        assert mark == {"epoch": 5, "chains_done": 8}
        assert encode(mark).hex() == self.CHAIN_MARK_HEX


class TestNothingLeaksIntoTheNextCrash:
    def test_second_crash_starts_a_fresh_history(self):
        injector = FaultInjector(
            [
                crash_at("recovery.epoch-replayed", nth=1),
                crash_at("recovery.epoch-replayed", nth=2),
            ]
        )
        scheme, workload, _events = run_to_crash(MorphStreamR, injector)
        first = recover_until_converged(scheme)
        assert first.attempts == 3
        assert first.wasted_events > 0
        assert scheme.crash_epoch == EPOCHS - 1

        scheme.process_stream(more_events(workload, 3))
        scheme.crash()
        second = scheme.recover()
        assert scheme.crash_epoch == EPOCHS + 2
        assert second.attempts == 1
        assert second.wasted_events == 0
        assert second.wasted_chains == 0
        assert second.elapsed_total_seconds == second.elapsed_seconds
        # Its own saves only: one after the checkpoint load, one per
        # replayed epoch — the first crash saved more than that.
        assert second.watermark_saves == 1 + second.epochs_replayed
        assert first.watermark_saves > second.watermark_saves

    def test_degraded_read_is_served_from_this_crashs_checkpoint(self):
        scheme, workload, _events = run_to_crash(MorphStreamR)
        ref = StateRef(ACCOUNTS, 0)
        stale_first = scheme.degraded_read(ref)
        assert stale_first.checkpoint_epoch == 3
        scheme.recover()

        scheme.process_stream(more_events(workload, 4))
        scheme.crash()
        stale_second = scheme.degraded_read(ref)
        newest = scheme.disk.snapshots.latest_epoch()
        assert newest > 3
        assert stale_second.checkpoint_epoch == newest
        assert stale_second.staleness_epochs == scheme.crash_epoch - newest
        checkpoint, _io = scheme.disk.snapshots.load(newest)
        assert stale_second.value == checkpoint[ACCOUNTS][0]

    def test_crash_epoch_still_answers_after_convergence(self):
        scheme, _wl, _events = run_to_crash(MorphStreamR)
        assert scheme.crash_epoch == EPOCHS - 1
        scheme.recover()
        assert scheme.crash_epoch == EPOCHS - 1


class TestAFailedAttemptBurnsItsTime:
    def test_all_workers_dead_then_retry_on_healthy_workers(self):
        """Every recovery worker dies at t = 0: the attempt fails loudly
        with the scheme still crashed.  The retry on healthy workers
        counts as attempt 2 and its MTTR includes the failed one."""
        scheme, _wl, _events = run_to_crash(
            MorphStreamR,
            recovery_faults=tuple(
                WorkerFault(worker, "die", at_seconds=0.0)
                for worker in range(4)
            ),
        )
        with pytest.raises(ReassignmentError):
            scheme.recover()
        assert scheme.store is None
        scheme.recovery_faults = []
        report = scheme.recover()
        assert report.attempts == 2
        assert report.elapsed_total_seconds > report.elapsed_seconds
        assert report.resumed


class TestLoudPaths:
    """The rows of the loud-path table in ``docs/recovery-protocol.md``
    that no other test executes."""

    def test_process_epoch_while_crashed_is_refused(self):
        scheme, workload, _events = run_to_crash(MorphStreamR)
        with pytest.raises(RecoveryError, match="call recover"):
            scheme.process_epoch(more_events(workload, 1))

    def test_degraded_read_of_a_record_the_checkpoint_lacks(self):
        scheme, _wl, _events = run_to_crash(MorphStreamR)
        with pytest.raises(TransactionError, match="has no record"):
            scheme.degraded_read(StateRef(ACCOUNTS, 10_000))

    def test_no_checkpoint_on_disk(self):
        # Both checkpoint flushes (the initial state and epoch 3) were
        # dropped: the ladder has no rung at all.
        dropped = [
            FaultSpec("drop", target="snapshot", nth=1),
            FaultSpec("drop", target="snapshot", nth=2),
        ]
        scheme, _wl, _events = run_to_crash(MorphStreamR, FaultInjector(dropped))
        assert scheme.disk.snapshots.epochs_desc() == []
        with pytest.raises(MissingSegmentError, match="no checkpoint"):
            scheme.recover()
        assert scheme.store is None

    def test_event_store_gap_under_the_replay_rung(self):
        """Epoch 5's view log is torn, so it falls to the replay rung,
        whose read of the event store fails: there is no lower rung.
        The device error was transient, so the retry converges."""
        specs = [
            FaultSpec("torn", target="log", nth=6, stream="msr"),
            # Reads 1 and 2 are the fast rung's (epochs 4 and 5).
            FaultSpec("read_error", target="events", nth=3),
        ]
        scheme, workload, events = run_to_crash(MorphStreamR, FaultInjector(specs))
        with pytest.raises(ReadFaultError, match="event epoch 5"):
            scheme.recover()
        assert scheme.store is None
        report = scheme.recover()
        assert report.attempts == 2
        # The failed attempt had reloaded a checkpoint and replayed
        # epoch 4 before the gap: its time is booked.
        assert report.elapsed_total_seconds > report.elapsed_seconds
        expected_state, expected_outputs = ground_truth(workload, events)
        assert scheme.store.equals(expected_state)
        assert scheme.sink.outputs() == expected_outputs
