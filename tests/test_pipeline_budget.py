"""The epoch plan stays cheap: a budget in function calls per operation.

A count, not a timing: under ``cProfile`` the number of calls the
pipeline makes is the same on every run of one interpreter (CI pins
3.11), so this fails the day someone reintroduces a per-item method
call — ``Core.spend`` per ``spend_parallel`` item, a closure per read,
``op_cost`` per operation — and never on a noisy runner.

Measured when the budget was set: 32.5 calls per operation for NAT and
55.5 for CKPT, against 76.5 and 99.5 before the plan was made cheap, so
the budgets (50 and 75) sit well clear of both.

The second budget is in objects the cyclic GC tracks per operation,
left behind by ``preprocess`` + ``build_tpg`` of one 512-event epoch:
every ``NamedTuple`` (ref, operation, condition, transaction) and every
tuple stays tracked until a collection runs.  No collection runs inside
an epoch (``FTScheme`` pauses the collector for each one), so this
bounds what an epoch leaves for the collections between epochs to
walk.  Measured when the budget was set, SL / GS:
6.90 / 21.72 before the batch-scoped ``RefTable`` and the shared
per-transaction tuples, 5.29 / 15.54 after.  Then each operation's read
sources became one tuple of writer uids aligned with ``op.reads``
instead of ``(ref, uid)`` pairs: 4.94 / 8.54 (3.94 / 6.31 after one
collection, against 4.64 / 14.31).  The budgets (5.1 and 12.0) sit
between the two layouts, so the pairs coming back fail here.

A uid tuple holds ints and ``None`` only, so the first collection stops
tracking it; a test pins that for every operation, and another one for
the per-read sources ``restructure_operations`` derives from them
(``None``, ``VIEW`` or a writer uid).

The third budget is in calls per operation again, for MSR's
``recover()`` of two replayed epochs on the fast rung (restructure,
shadow exploration, replay).  Measured when it was set, SL / GS: 47.7 /
96.0 with one ``ReadResolution`` object per read, a call per operation
in shadow exploration and per-item generators for the cost lists;
37.9 / 78.9 after.  The budgets (45 and 90) sit between the two.

The fourth budget is in calls per replayed transaction, for PACMAN's
``recover()`` of four epochs of the benchmark's ``gs_pacman`` input.
Measured when it was set: 84.1 with a nested ``find()`` call per
union-find probe and a sorted footprint per transaction in
``static_batches``, 65.9 once the analysis merged record labels with
set and dict operations.  The budget (75) sits between the two, so the
per-probe call coming back fails here.

The fifth budget is in calls per replayed event, for the ``recover()``
of DL, LV and LVC over four epochs of the benchmark's SL input (eight
workers, epochs of 256).  Measured when it was set, DL / LV / LVC:
220.9 / 176.4 / 141.3 with each log tail decoded through the codec one
value at a time, 109.9 / 124.3 / 126.3 once the tail was two packed
columns.  The budgets (160, 150 and 134) sit between the two, so the
per-value decode coming back fails here.

The sixth budget is a count that must not depend on the state's size:
the calls a warm full checkpoint (``_take_snapshot`` of CKPT on the
benchmark's big Grep&Sum input, after three epochs) and a reload of it
(``SnapshotStore.load`` + ``StateStore.restore``) make, at 4 096 and at
65 536 records.  Measured when it was set, 4 096 / 65 536: the
checkpoint made 192 / 193 calls while it encoded the whole state and
153 / 153 once it patched the records written since the last one; the
reload made 43 / 44 while it decoded the checkpoint and 37 / 37 once it
adopted the bytes.  The one-call gaps were the record count's extra
varint byte.  A per-record encode or decode coming back makes the
counts differ.
"""

from __future__ import annotations

import cProfile
import gc
import pstats

import pytest

from repro import SCHEMES, GrepSum, StreamingLedger
from repro.core.partition import build_chain_graph, greedy_partition
from repro.core.restructure import restructure_operations
from repro.engine.execution import preprocess
from repro.engine.state import StateStore
from repro.engine.tpg import build_tpg
from repro.storage.codec import StateImage

EPOCH_LEN = 256
EPOCHS = 6


@pytest.mark.parametrize("scheme_name, budget", [("NAT", 50), ("CKPT", 75)])
def test_calls_per_operation_stay_within_budget(scheme_name, budget):
    # The benchmark's ledger (bench/cases.py, ``sl_ckpt``).
    workload = StreamingLedger(
        512, transfer_ratio=0.5, multi_partition_ratio=0.2, skew=0.6
    )
    events = workload.generate(EPOCH_LEN * EPOCHS, seed=7)
    operations = sum(len(txn.ops) for txn in preprocess(events, workload, 0))
    scheme = SCHEMES[scheme_name](
        workload, num_workers=8, epoch_len=EPOCH_LEN
    )
    profile = cProfile.Profile()
    profile.runcall(scheme.process_stream, events)
    assert scheme.events_processed == len(events)
    calls_per_operation = pstats.Stats(profile).total_calls / operations
    assert calls_per_operation <= budget, (
        f"{scheme_name}: {calls_per_operation:.1f} calls per operation "
        f"(budget {budget})"
    )


# The benchmark's inputs (bench/cases.py, ``SL`` and ``GS``).
_INPUTS = {
    "SL": lambda: StreamingLedger(
        512, transfer_ratio=0.5, multi_partition_ratio=0.2, skew=0.6
    ),
    "GS": lambda: GrepSum(
        1024, list_len=8, skew=0.95, multi_partition_ratio=0.5, abort_ratio=0.05
    ),
}


@pytest.mark.parametrize("name, budget", [("SL", 5.1), ("GS", 12.0)])
def test_tracked_objects_per_operation_stay_within_budget(name, budget):
    workload = _INPUTS[name]()
    events = workload.generate(512, seed=7)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        txns = preprocess(events, workload, 0)
        tpg = build_tpg(txns)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    per_operation = grown / len(tpg.ops)
    assert per_operation <= budget, (
        f"{name}: {per_operation:.2f} tracked objects per operation "
        f"(budget {budget})"
    )


@pytest.mark.parametrize("name", sorted(_INPUTS))
def test_read_sources_are_untracked_after_a_collection(name):
    workload = _INPUTS[name]()
    tpg = build_tpg(preprocess(workload.generate(512, seed=7), workload, 0))
    gc.collect()
    assert any(tpg.pd_sources.values()), f"{name}: no read sources to check"
    tracked = [uid for uid, sources in tpg.pd_sources.items() if gc.is_tracked(sources)]
    assert not tracked, (
        f"{name}: {len(tracked)} read-source tuples still tracked "
        f"(first op {tracked[0]})"
    )


@pytest.mark.parametrize("name", sorted(_INPUTS))
def test_restructured_sources_are_untracked_after_a_collection(name):
    workload = _INPUTS[name]()
    txns = preprocess(workload.generate(512, seed=7), workload, 0)
    partition_of = greedy_partition(build_chain_graph(build_tpg(txns)), 16)
    restructured = restructure_operations(txns, partition_of)
    gc.collect()
    assert restructured.op_index, f"{name}: no VIEW read to check"
    tracked = [
        uid
        for uid, sources in restructured.sources.items()
        if gc.is_tracked(sources)
    ]
    assert not tracked, (
        f"{name}: {len(tracked)} restructured source tuples still tracked "
        f"(first op {tracked[0]})"
    )


@pytest.mark.parametrize("name, budget", [("SL", 45), ("GS", 90)])
def test_msr_recovery_calls_per_operation_stay_within_budget(name, budget):
    workload = _INPUTS[name]()
    events = workload.generate(EPOCH_LEN * EPOCHS, seed=7)
    scheme = SCHEMES["MSR"](
        workload, num_workers=8, epoch_len=EPOCH_LEN, snapshot_interval=4
    )
    scheme.process_stream(events)
    scheme.crash()
    # The checkpoint lands after epoch 3: epochs 4 and 5 are replayed.
    replayed = events[EPOCH_LEN * 4 :]
    operations = sum(len(txn.ops) for txn in preprocess(replayed, workload, 0))
    profile = cProfile.Profile()
    report = profile.runcall(scheme.recover)
    assert report.ladder == {"fast": 2}
    calls_per_operation = pstats.Stats(profile).total_calls / operations
    assert calls_per_operation <= budget, (
        f"MSR recovery on {name}: {calls_per_operation:.1f} calls per "
        f"operation (budget {budget})"
    )


def test_pacman_recovery_calls_per_transaction_stay_within_budget():
    # The benchmark's ``gs_pacman`` cell (bench/cases.py): epochs of
    # 512, a checkpoint every 5, a crash 4 epochs past it.
    workload = _INPUTS["GS"]()
    events = workload.generate(512 * 9, seed=7)
    scheme = SCHEMES["PACMAN"](
        workload, num_workers=8, epoch_len=512, snapshot_interval=5
    )
    scheme.process_stream(events)
    scheme.crash()
    transactions = len(preprocess(events[512 * 5 :], workload, 0))
    profile = cProfile.Profile()
    report = profile.runcall(scheme.recover)
    assert report.ladder == {"fast": 4}
    calls_per_transaction = pstats.Stats(profile).total_calls / transactions
    assert calls_per_transaction <= 75, (
        f"PACMAN recovery on GS: {calls_per_transaction:.1f} calls per "
        f"transaction (budget 75)"
    )


@pytest.mark.parametrize("name, budget", [("DL", 160), ("LV", 150), ("LVC", 134)])
def test_tail_logging_recovery_calls_per_event_stay_within_budget(name, budget):
    # The benchmark's ``scheme_matrix`` shape (bench/cases.py): epochs
    # of 256, a checkpoint every 5, a crash 4 epochs past it.
    workload = _INPUTS["SL"]()
    events = workload.generate(EPOCH_LEN * 9, seed=7)
    scheme = SCHEMES[name](
        workload, num_workers=8, epoch_len=EPOCH_LEN, snapshot_interval=5
    )
    scheme.process_stream(events)
    scheme.crash()
    profile = cProfile.Profile()
    report = profile.runcall(scheme.recover)
    assert report.ladder == {"fast": 4}
    calls_per_event = pstats.Stats(profile).total_calls / (EPOCH_LEN * 4)
    assert calls_per_event <= budget, (
        f"{name} recovery on SL: {calls_per_event:.1f} calls per replayed "
        f"event (budget {budget})"
    )


def _checkpoint_and_reload_calls(records: int):
    """Calls of one warm full checkpoint, and of reloading it, on the
    benchmark's ``gs_bigstate_ckpt`` input at ``records`` records."""
    workload = GrepSum(
        records, list_len=4, skew=0.2, multi_partition_ratio=0.5, abort_ratio=0.0
    )
    scheme = SCHEMES["CKPT"](
        workload, num_workers=8, epoch_len=256, snapshot_interval=3
    )
    # A checkpoint lands after epoch 2; epoch 3 writes on top of it.
    scheme.process_stream(workload.generate(256 * 4, seed=7))
    checkpoint = cProfile.Profile()
    checkpoint.runcall(scheme._take_snapshot, 3)

    def reload():
        state, _io = scheme.disk.snapshots.load(3, scheme.state_layout)
        assert isinstance(state, StateImage)
        StateStore().restore(state)

    profile = cProfile.Profile()
    profile.runcall(reload)
    return pstats.Stats(checkpoint).total_calls, pstats.Stats(profile).total_calls


def test_checkpoint_and_reload_calls_do_not_grow_with_the_state():
    small, big = _checkpoint_and_reload_calls(4096), _checkpoint_and_reload_calls(65536)
    assert small == big, (
        f"(checkpoint, reload) calls: {small} at 4 096 records, {big} at 65 536"
    )
