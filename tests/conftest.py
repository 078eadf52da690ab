"""Shared fixtures: small, fast workload/scheme configurations.

Tests run the full runtime → crash → recovery cycle on reduced sizes
(QUICK-scale: tens of events per epoch) so the entire suite stays fast
while still exercising every code path the benchmarks use.
"""

from __future__ import annotations

import sys

import pytest

from repro.engine.execution import preprocess
from repro.engine.serial import execute_serial
from repro.ft.checkpoint import GlobalCheckpoint
from repro.storage import codec
from repro.workloads.grep_sum import GrepSum
from repro.workloads.streaming_ledger import StreamingLedger
from repro.workloads.toll_processing import TollProcessing


@pytest.fixture
def sl():
    """Small Streaming Ledger with natural and forced aborts."""
    return StreamingLedger(
        64,
        transfer_ratio=0.6,
        multi_partition_ratio=0.5,
        skew=0.4,
        forced_abort_ratio=0.05,
        num_partitions=4,
    )


@pytest.fixture
def gs():
    """Small skewed Grep&Sum with aborts."""
    return GrepSum(
        128,
        list_len=4,
        skew=0.8,
        multi_partition_ratio=0.5,
        abort_ratio=0.1,
        num_partitions=4,
    )


@pytest.fixture
def tp():
    """Small Toll Processing with capacity-driven aborts."""
    return TollProcessing(32, skew=0.4, capacity=10.0, num_partitions=4)


@pytest.fixture(params=["sl", "gs", "tp"])
def workload(request, sl, gs, tp):
    """Parametrized over all three benchmark applications."""
    return {"sl": sl, "gs": gs, "tp": tp}[request.param]


def serial_ground_truth(workload, events):
    """(final store, outcome) of the reference serial execution."""
    store = workload.initial_state()
    txns = preprocess(events, workload, 0)
    outcome = execute_serial(store, txns)
    return store, txns, outcome


@pytest.fixture
def diverging_ckpt(monkeypatch):
    """CKPT whose ``recover()`` silently installs one wrong record.

    Returns a list that receives each corrupted :class:`StateRef`, so
    harness tests can assert that their divergence diagnostic names it.
    """
    corrupted = []
    recover = GlobalCheckpoint.recover

    def recover_wrong(self):
        report = recover(self)
        ref = next(iter(self.store.refs()))
        self.store.set(ref, self.store.get(ref) + 1.0)
        corrupted.append(ref)
        return report

    monkeypatch.setattr(GlobalCheckpoint, "recover", recover_wrong)
    return corrupted


@pytest.fixture
def encoded_bytes(monkeypatch):
    """A one-element list summing ``len()`` of every ``encode`` result.

    ``from repro.storage.codec import encode`` copies the binding, so
    the counting wrapper replaces it in every ``repro.*`` namespace
    (the way ``bench/spans.py`` traces it).
    """
    original = codec.encode
    total = [0]

    def counting(*args, **kwargs):
        blob = original(*args, **kwargs)
        total[0] += len(blob)
        return blob

    patched = set()
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counting)
                patched.add(name)
    assert {"repro.storage.stores", "repro.ft.base", "repro.core.logmanager"} <= patched
    return total
