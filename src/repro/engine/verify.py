"""Serial ground truth and the one exactness check against it.

The paper's two guarantees (§II-C) are stated against an ideal serial
executor: recovered state equals the state it reaches at the crash
point, and every input event yields exactly one output equal to the
one it produces.  :func:`ground_truth` runs that executor;
:func:`verify_exact` is the single place a run is compared with it, and
:func:`stale_read_error` the single place a degraded read is.  Every
harness above (``repro.harness``, ``repro.check``, ``repro.cluster``)
calls these and differs only in what it does with the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.engine.events import Event
from repro.engine.execution import preprocess
from repro.engine.refs import StateRef
from repro.engine.serial import execute_serial
from repro.engine.state import StateStore

if TYPE_CHECKING:
    from repro.ft.reports import DegradedRead
    from repro.workloads.base import Workload


def ground_truth(
    workload: "Workload", events: Sequence[Event]
) -> Tuple[StateStore, Dict[int, tuple]]:
    """Serial reference execution: final state and per-event outputs."""
    store = workload.initial_state()
    txns = preprocess(events, workload, 0)
    outcome = execute_serial(store, txns)
    outputs = {
        txn.event.seq: workload.output_for(
            txn, txn.txn_id not in outcome.aborted, outcome.op_values
        )
        for txn in txns
    }
    return store, outputs


@dataclass(frozen=True)
class Exactness:
    """Both §II-C verdicts of one run, plus the diagnosis when one fails."""

    #: the state is bit-identical to the serial ground truth.
    state_exact: bool
    #: the delivered outputs are the ground-truth outputs, exactly once.
    outputs_exact: bool
    #: the first differing records or sequence numbers; "" when exact.
    detail: str = ""

    def __bool__(self) -> bool:
        return self.state_exact and self.outputs_exact


def verify_exact(
    store: StateStore,
    delivered: Mapping[int, tuple],
    workload: "Workload",
    events: Sequence[Event],
) -> Exactness:
    """Compare ``store`` and ``delivered`` with the serial run of ``events``.

    ``events`` is the prefix the run under test actually processed into
    epochs (a pending ingress tail is not part of the claim).
    """
    expected_state, expected_outputs = ground_truth(workload, events)
    state_exact = store.equals(expected_state)
    outputs_exact = delivered == expected_outputs
    detail = ""
    if not state_exact:
        detail = f"state diverges: {store.diff(expected_state, 3)}"
    elif not outputs_exact:
        seqs = sorted(
            seq
            for seq in expected_outputs.keys() | delivered.keys()
            if expected_outputs.get(seq) != delivered.get(seq)
        )
        detail = f"outputs diverge (seqs {seqs[:5]})"
    return Exactness(state_exact, outputs_exact, detail)


def stale_read_error(
    read: "DegradedRead",
    crash_epoch: int,
    truth_after: Callable[[int], StateStore],
) -> Optional[str]:
    """Judge one read served while the node was down; None if it holds.

    ``truth_after(epoch)`` is the serial state after ``epoch``.  A stale
    read must hold that state at its checkpoint's epoch and carry the
    lag ``crash_epoch - checkpoint_epoch``, which is never negative; a
    fresh read (a surviving cluster shard) must hold the state at the
    crash epoch, with a zero label.  The value is judged first.
    """
    epoch = read.checkpoint_epoch if read.stale else crash_epoch
    expected = truth_after(epoch).peek(StateRef(read.table, read.key))
    if read.value != expected:
        kind, where = ("stale", "checkpoint") if read.stale else ("fresh", "crash epoch")
        return (
            f"{kind} value {read.value} is not the ground truth "
            f"{expected} at {where} {epoch}"
        )
    if read.staleness_epochs != crash_epoch - epoch:
        return (
            f"staleness label {read.staleness_epochs} != actual lag "
            f"{crash_epoch} - {epoch}"
        )
    if epoch > crash_epoch:
        return f"checkpoint {epoch} is newer than crash epoch {crash_epoch}"
    return None
