"""Logged-vector fidelity: the vectors LV logs are used, not discarded.

ISSUE-10 satellite coverage for the LSN-vector fix:

- recovery verifies every logged vector against the partial order
  recomputed from the rebuilt committed-only TPG; a tampered (but
  CRC-valid) vector raises the distinct :class:`VectorMismatchError`
  and degrades to rung-2 event replay instead of silently replaying a
  wrong partial order;
- abort-heavy epochs recover on the fast rung — the runtime vectors
  (computed over the committed-only TPG) match recovery's recomputation
  bit for bit, which was exactly what the old full-TPG path violated;
- ``_vectors_for`` fails loudly when a dependency source holds no log
  position (the old silent-drop path);
- property: every set vector entry references a strictly earlier
  position in its stream, for both the dense and compressed encodings;
- encode/decode round-trips for LV and LVC;
- recovery derives transaction-level dependencies once per replayed
  epoch: the map the vector check used is the one the replay tasks
  wait on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.execution import preprocess
from repro.engine.serial import execute_serial
from repro.engine.tpg import build_tpg
from repro.errors import CorruptSegmentError, VectorMismatchError
from repro.ft import common, lsnvector
from repro.ft.lsnvector import STREAM, LSNVector, LSNVectorCompressed
from repro.storage.rows import split_rows
from repro.storage.integrity import protect, verify
from repro.workloads.grep_sum import GrepSum
from repro.workloads.streaming_ledger import StreamingLedger
from tests.conftest import serial_ground_truth

VECTOR_SCHEMES = [LSNVector, LSNVectorCompressed]


def abort_heavy_sl():
    """Every fifth transaction aborts: the regime that exposed the bug
    (dependencies routed through aborted writers)."""
    return StreamingLedger(
        64,
        transfer_ratio=0.7,
        multi_partition_ratio=0.5,
        skew=0.5,
        forced_abort_ratio=0.2,
        num_partitions=4,
    )


def crashed_scheme(scheme_cls, workload, events, **kwargs):
    scheme = scheme_cls(
        workload, num_workers=3, epoch_len=40, snapshot_interval=3, **kwargs
    )
    scheme.process_stream(events)
    scheme.crash()
    return scheme


def tamper_vector(scheme, epoch_id, record_index):
    """Rewrite one logged vector (CRC-valid) to a wrong partial order."""
    key = (STREAM, epoch_id)
    blob = scheme.disk.logs._segments[key]
    _decls, rows, vectors = split_rows(verify(blob, "test"))
    vectors = list(vectors)
    # Claim a dependency on the newest possible position of stream 0 —
    # a partial order the committed-only TPG cannot produce.
    tampered = list(scheme._decode_vector(vectors[record_index]))
    tampered[0] = len(rows)  # beyond any real position
    vectors[record_index] = scheme._encode_vector(tampered)
    payload = scheme.disk.events.rows_payload(rows, tuple(vectors))
    scheme.disk.logs._segments[key] = protect(payload)


class TestVectorVerification:
    @pytest.mark.parametrize("scheme_cls", VECTOR_SCHEMES)
    def test_tampered_vector_degrades_to_event_replay(self, gs, scheme_cls):
        """A stale/corrupt vector payload is caught before any state
        mutation and the ladder replays that epoch from the event store;
        the final state is still bit-exact."""
        events = gs.generate(280, seed=5)
        scheme = crashed_scheme(scheme_cls, gs, events)
        tamper_vector(scheme, epoch_id=6, record_index=2)
        report = scheme.recover()
        expected, _txns, _outcome = serial_ground_truth(gs, events)
        assert scheme.store.equals(expected), scheme.store.diff(expected, 5)
        assert report.degraded()
        assert report.ladder.get("replay", 0) == 1
        assert [f.epoch_id for f in report.fallbacks] == [6]
        assert report.fallbacks[0].error == "VectorMismatchError"
        assert "disagrees with recomputed" in report.fallbacks[0].detail

    def test_the_fallback_names_the_distinct_error_and_record(self, gs):
        """The ladder books the tampered vector as VectorMismatchError,
        naming the epoch and the record that disagreed, and the
        recovered state is still exact."""
        events = gs.generate(280, seed=5)
        scheme = crashed_scheme(LSNVector, gs, events)
        tamper_vector(scheme, epoch_id=6, record_index=2)
        report = scheme.recover()
        expected, _txns, _outcome = serial_ground_truth(gs, events)
        assert scheme.store.equals(expected), scheme.store.diff(expected, 5)
        [fallback] = report.fallbacks
        assert fallback.epoch_id == 6
        assert fallback.error == "VectorMismatchError"
        assert "record 2" in fallback.detail
        # Distinct type, but still a degradable storage error so the
        # ladder (and chaos tooling) can treat it like corruption.
        assert issubclass(VectorMismatchError, CorruptSegmentError)

    @pytest.mark.parametrize("scheme_cls", VECTOR_SCHEMES)
    def test_abort_heavy_epochs_recover_on_fast_rung(self, scheme_cls):
        """Runtime vectors equal recovery's recomputation even when
        dependencies were routed through aborted transactions — the
        fidelity fix itself.  Any residual mismatch would surface as a
        replay fallback here."""
        workload = abort_heavy_sl()
        events = workload.generate(320, seed=9)
        scheme = crashed_scheme(scheme_cls, workload, events)
        report = scheme.recover()
        expected, _txns, _outcome = serial_ground_truth(workload, events)
        assert scheme.store.equals(expected), scheme.store.diff(expected, 5)
        assert not report.degraded()
        assert report.ladder.get("fast", 0) == report.epochs_replayed
        assert set(scheme.sink.outputs()) == {e.seq for e in events}


@pytest.mark.parametrize("scheme_cls", VECTOR_SCHEMES)
def test_one_txn_level_deps_call_per_recovered_epoch(monkeypatch, gs, scheme_cls):
    """The vector check and the replay tasks share one dependency map
    per epoch, derived from that epoch's TPG."""
    # Eight epochs of 40, a checkpoint after epoch 5: two replayed.
    events = gs.generate(320, seed=5)
    scheme = crashed_scheme(scheme_cls, gs, events)
    original = common.txn_level_deps
    calls = []

    def counted(tpg):
        calls.append(tpg)
        return original(tpg)

    # Both names: the scheme's own import and the helper module's.
    monkeypatch.setattr(lsnvector, "txn_level_deps", counted)
    monkeypatch.setattr(common, "txn_level_deps", counted)
    report = scheme.recover()
    assert report.ladder == {"fast": report.epochs_replayed}
    assert report.epochs_replayed > 1
    assert len(calls) == report.epochs_replayed, (
        f"{len(calls)} txn_level_deps calls for "
        f"{report.epochs_replayed} replayed epochs"
    )
    assert len({id(tpg) for tpg in calls}) == len(calls)


class TestVectorsFor:
    def test_unresolved_dependency_fails_loudly(self, gs):
        """A dependency source without a log position is a contract
        violation (the old code silently encoded it as 'no dependency')."""
        events = gs.generate(40, seed=1)
        txns = preprocess(events, gs, 0)
        scheme = LSNVector(gs, num_workers=3)
        deps = {t.txn_id: () for t in txns}
        deps[txns[0].txn_id] = (999_999,)  # never assigned a position
        with pytest.raises(AssertionError, match="holds no log position"):
            scheme._vectors_for(txns, deps, aborted=())

    def test_committed_only_deps_all_resolve(self, sl):
        """With deps from the committed-only TPG every source resolves,
        even when the full-batch TPG routes edges through aborts."""
        events = sl.generate(200, seed=4)
        txns = preprocess(events, sl, 0)
        store = sl.initial_state()
        outcome = execute_serial(store, txns)
        scheme = LSNVector(sl, num_workers=3)
        tpg = build_tpg(txns)
        deps = scheme._committed_deps(txns, tpg, outcome.aborted)
        vectors = scheme._vectors_for(txns, deps, outcome.aborted)
        assert set(vectors) == {
            t.txn_id for t in txns if t.txn_id not in outcome.aborted
        }


@given(
    seed=st.integers(0, 10_000),
    skew=st.floats(0.0, 0.99),
    mp_ratio=st.floats(0.0, 1.0),
    abort_ratio=st.floats(0.0, 0.6),
    compressed=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_property_entries_reference_strictly_earlier_positions(
    seed, skew, mp_ratio, abort_ratio, compressed
):
    """Every set entry of every vector points at a position already
    assigned in that stream — i.e. strictly earlier in commit order.
    A violation would deadlock replay (a transaction waiting on a
    record at or after itself)."""
    workload = GrepSum(
        96,
        list_len=3,
        skew=skew,
        multi_partition_ratio=mp_ratio,
        abort_ratio=abort_ratio,
        num_partitions=3,
    )
    events = workload.generate(120, seed=seed)
    txns = preprocess(events, workload, 0)
    store = workload.initial_state()
    outcome = execute_serial(store, txns)
    cls = LSNVectorCompressed if compressed else LSNVector
    scheme = cls(workload, num_workers=3)
    tpg = build_tpg(txns)
    deps = scheme._committed_deps(txns, tpg, outcome.aborted)
    vectors = scheme._vectors_for(txns, deps, outcome.aborted)
    next_pos = [0] * scheme.num_workers
    for txn in txns:
        if txn.txn_id in outcome.aborted:
            continue
        # Round-trip through the scheme's wire form first.
        vector = scheme._decode_vector(
            scheme._encode_vector(vectors[txn.txn_id])
        )
        for stream, pos in enumerate(vector):
            if pos >= 0:
                assert pos < next_pos[stream], (
                    f"txn {txn.txn_id} references stream {stream} "
                    f"position {pos} but only {next_pos[stream]} exist"
                )
        next_pos[scheme.worker_of_txn(txn)] += 1


@given(
    vector=st.lists(st.integers(-1, 500), min_size=1, max_size=12),
    compressed=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_property_encode_decode_round_trip(vector, compressed):
    workload = GrepSum(8, num_partitions=2)
    cls = LSNVectorCompressed if compressed else LSNVector
    scheme = cls(workload, num_workers=len(vector))
    encoded = scheme._encode_vector(vector)
    assert scheme._decode_vector(encoded) == tuple(vector)
    if compressed:
        # The compressed wire form carries only the set entries: two
        # ints (stream, position) per set entry.
        assert len(encoded) == 2 * sum(1 for p in vector if p >= 0)
