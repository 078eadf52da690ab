"""The epoch plan stays cheap: a budget in function calls per operation.

A count, not a timing: under ``cProfile`` the number of calls the
pipeline makes is the same on every run of one interpreter (CI pins
3.11), so this fails the day someone reintroduces a per-item method
call — ``Core.spend`` per ``spend_parallel`` item, a closure per read,
``op_cost`` per operation — and never on a noisy runner.

Measured when the budget was set: 32.5 calls per operation for NAT and
55.5 for CKPT, against 76.5 and 99.5 before the plan was made cheap, so
the budgets (50 and 75) sit well clear of both.
"""

from __future__ import annotations

import cProfile
import pstats

import pytest

from repro import SCHEMES, StreamingLedger
from repro.engine.execution import preprocess

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
