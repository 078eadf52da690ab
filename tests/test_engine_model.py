"""Engine data model: refs, events, operations, transactions, state."""

from __future__ import annotations

import pickle

import pytest

from repro.engine.events import Event
from repro.engine.operations import Condition, Operation
from repro.engine.refs import StateRef
from repro.engine.state import StateStore
from repro.engine.transactions import Transaction
from repro.errors import ConfigError, TransactionError
from repro.storage.codec import decode, encode
from repro.storage.rows import RowSchemas


def _op(uid, txn_id, ts, ref, func="deposit", params=(1.0,), reads=()):
    return Operation(uid, txn_id, ts, ref, func, params, reads)


class TestStateRef:
    def test_encode_round_trip(self):
        ref = StateRef("accounts", 42)
        assert StateRef.from_encoded(ref.encoded()) == ref

    def test_refs_are_hashable_and_ordered(self):
        a, b = StateRef("a", 1), StateRef("a", 2)
        assert len({a, b, StateRef("a", 1)}) == 2
        assert a < b


class TestEvent:
    def test_encode_round_trip(self):
        event = Event(7, "transfer", (1, 2, 3.5, True))
        schemas = RowSchemas()
        (back,) = schemas.unpack(schemas.pack([event]))
        assert type(back) is Event and back == event
        assert list(map(type, back.payload)) == [int, int, float, bool]

    def test_an_event_is_its_encoded_tuple(self):
        """A ``NamedTuple``: equal, and equal in hash, to the plain
        ``(seq, kind, payload)`` tuple, which is how the codec writes it."""
        event = Event(0, "k", (1, 2))
        assert event == (0, "k", (1, 2)) and hash(event) == hash((0, "k", (1, 2)))
        assert Event._make(decode(encode(event))) == event


class TestOperationCondition:
    def test_operation_encode_round_trip(self):
        op = _op(3, 9, 9, StateRef("t", 1), reads=(StateRef("t", 2),))
        assert Operation.from_encoded(op.encoded()) == op

    def test_condition_encode_round_trip(self):
        cond = Condition("ge", (StateRef("t", 1),), (5.0,))
        assert Condition.from_encoded(cond.encoded()) == cond


class TestTransaction:
    def _txn(self, ops, conditions=()):
        return Transaction(0, 0, Event(0, "k", ()), tuple(ops), tuple(conditions))

    def test_validator_is_first_operation(self):
        ops = [_op(0, 0, 0, StateRef("t", 1)), _op(1, 0, 0, StateRef("t", 2))]
        assert self._txn(ops).validator.uid == 0

    def test_empty_transaction_rejected(self):
        with pytest.raises(TransactionError):
            self._txn([])

    def test_duplicate_write_ref_rejected(self):
        ops = [_op(0, 0, 0, StateRef("t", 1)), _op(1, 0, 0, StateRef("t", 1))]
        with pytest.raises(TransactionError):
            self._txn(ops)

    def test_mismatched_timestamp_rejected(self):
        with pytest.raises(TransactionError):
            self._txn([_op(0, 0, 5, StateRef("t", 1))])

    def test_read_set_includes_condition_refs(self):
        cond_ref = StateRef("t", 9)
        ops = [_op(0, 0, 0, StateRef("t", 1), reads=(StateRef("t", 2),))]
        txn = self._txn(ops, [Condition("ge", (cond_ref,), (0.0,))])
        assert txn.read_set() == frozenset({StateRef("t", 2), cond_ref})

    # ``Transaction`` is a NamedTuple: every way to build one validates.

    _INVALID = {
        "no operations": {"ops": ()},
        "ts mismatch": {"ts": 5},
        "double write": {
            "ops": (_op(0, 0, 0, StateRef("t", 1)), _op(1, 0, 0, StateRef("t", 1)))
        },
    }

    def _valid(self):
        return self._txn([_op(0, 0, 0, StateRef("t", 1))])

    @pytest.mark.parametrize("flaw", sorted(_INVALID))
    def test_make_validates(self, flaw):
        fields = self._valid()._asdict()
        fields.update(self._INVALID[flaw])
        with pytest.raises(TransactionError):
            Transaction._make(fields.values())

    @pytest.mark.parametrize("flaw", sorted(_INVALID))
    def test_replace_validates(self, flaw):
        with pytest.raises(TransactionError):
            self._valid()._replace(**self._INVALID[flaw])

    @pytest.mark.parametrize("flaw", sorted(_INVALID))
    def test_unpickling_validates(self, flaw):
        fields = self._valid()._asdict()
        fields.update(self._INVALID[flaw])
        # Built around the checks, as a corrupt pickle would carry it.
        forged = tuple.__new__(Transaction, tuple(fields.values()))
        blob = pickle.dumps(forged)
        with pytest.raises(TransactionError):
            pickle.loads(blob)

    def test_valid_transaction_survives_every_path(self):
        txn = self._valid()
        assert Transaction._make(txn) == txn
        assert txn._replace(conditions=()) == txn
        restored = pickle.loads(pickle.dumps(txn))
        assert restored == txn and type(restored) is Transaction
        assert hash(restored) == hash(txn)


class TestStateStore:
    def test_get_set(self):
        store = StateStore({"t": {1: 5.0}})
        ref = StateRef("t", 1)
        assert store.get(ref) == 5.0
        store.set(ref, 7.0)
        assert store.get(ref) == 7.0

    def test_missing_record_rejected(self):
        store = StateStore({"t": {1: 5.0}})
        with pytest.raises(TransactionError):
            store.get(StateRef("t", 2))
        with pytest.raises(TransactionError):
            store.set(StateRef("x", 1), 0.0)

    def test_set_cannot_create_records(self):
        store = StateStore({"t": {1: 5.0}})
        with pytest.raises(TransactionError):
            store.set(StateRef("t", 99), 1.0)

    def test_duplicate_table_rejected(self):
        store = StateStore({"t": {}})
        with pytest.raises(ConfigError):
            store.create_table("t")

    def test_snapshot_restore_round_trip(self):
        store = StateStore({"t": {1: 5.0, 2: 6.0}})
        snap = store.snapshot()
        store.set(StateRef("t", 1), 99.0)
        store.restore(snap)
        assert store.get(StateRef("t", 1)) == 5.0

    def test_snapshot_is_deep(self):
        store = StateStore({"t": {1: 5.0}})
        snap = store.snapshot()
        store.set(StateRef("t", 1), 99.0)
        assert snap["t"][1] == 5.0

    def test_copy_is_independent(self):
        store = StateStore({"t": {1: 5.0}})
        other = store.copy()
        other.set(StateRef("t", 1), 0.0)
        assert store.get(StateRef("t", 1)) == 5.0

    def test_equals_exact_and_toleranced(self):
        a = StateStore({"t": {1: 1.0}})
        b = StateStore({"t": {1: 1.0 + 1e-12}})
        assert not a.equals(b)
        assert a.equals(b, tolerance=1e-9)

    def test_equals_detects_structural_differences(self):
        a = StateStore({"t": {1: 1.0}})
        assert not a.equals(StateStore({"t": {1: 1.0, 2: 2.0}}))
        assert not a.equals(StateStore({"u": {1: 1.0}}))

    def test_diff_reports_differing_records(self):
        a = StateStore({"t": {1: 1.0, 2: 2.0}})
        b = StateStore({"t": {1: 1.0, 2: 3.0}})
        differences = a.diff(b)
        assert differences == [(StateRef("t", 2), 2.0, 3.0)]

    def test_num_records_and_refs(self):
        store = StateStore({"a": {1: 0.0}, "b": {1: 0.0, 2: 0.0}})
        assert len(list(store.refs())) == 3
