"""AbortView / ParametricView: record, lookup, serialization."""

from __future__ import annotations

import pytest

from repro.core.views import CONDITION_INDEX, AbortView, ParametricView
from repro.engine.refs import StateRef
from repro.errors import RecoveryError
from repro.storage.codec import decode, encode

A = StateRef("t", "A")
B = StateRef("t", "B")


class TestAbortView:
    def test_membership(self):
        view = AbortView(3, frozenset({1, 5}))
        assert 1 in view and 5 in view
        assert 2 not in view
        assert len(view) == 2

    def test_encode_round_trip(self):
        view = AbortView(3, frozenset({9, 2, 7}))
        restored = AbortView.from_encoded(decode(encode(view.encoded())))
        assert restored == view

    def test_empty_view(self):
        view = AbortView(0)
        assert len(view) == 0
        assert AbortView.from_encoded(view.encoded()) == view


class TestParametricView:
    def test_record_then_lookup(self):
        view = ParametricView(0)
        view.record(7, 1, A, 42.5)
        assert view.lookup(7, 1, A) == 42.5
        assert view.has(7, 1, A)

    def test_missing_entry_is_a_recovery_error(self):
        view = ParametricView(0)
        with pytest.raises(RecoveryError):
            view.lookup(7, 1, A)

    def test_condition_index_separate_from_op_indices(self):
        view = ParametricView(0)
        view.record(7, CONDITION_INDEX, A, 1.0)
        view.record(7, 0, A, 2.0)
        assert view.lookup(7, CONDITION_INDEX, A) == 1.0
        assert view.lookup(7, 0, A) == 2.0

    def test_same_key_overwrites(self):
        view = ParametricView(0)
        view.record(7, 0, A, 1.0)
        view.record(7, 0, A, 3.0)
        assert view.lookup(7, 0, A) == 3.0
        assert len(view) == 1

    def test_encode_round_trip(self):
        view = ParametricView(4)
        view.record(1, 0, A, 1.5)
        view.record(2, CONDITION_INDEX, B, -2.5)
        restored = ParametricView.from_encoded(decode(encode(view.encoded())))
        assert restored.epoch_id == 4
        assert len(restored) == 2
        assert restored.lookup(1, 0, A) == 1.5
        assert restored.lookup(2, CONDITION_INDEX, B) == -2.5

    def test_int_keyed_view_goes_as_columns(self):
        """Int keys pack, so the view is five columns and no rows; the
        str-keyed view above takes the row form."""
        view = ParametricView(4)
        view.record(1, CONDITION_INDEX, StateRef("acc", 3), 1.5)
        view.record(2**20, 0, StateRef("ast", 70_000), -2.5)
        raw = view.encoded()
        assert raw[1] == ("acc", "ast") and len(raw[2]) == 5 and raw[3] == ()
        restored = ParametricView.from_encoded(decode(encode(raw)))
        assert restored._entries == view._entries
        empty = ParametricView.from_encoded(decode(encode(ParametricView(4).encoded())))
        assert len(empty) == 0

    def test_encoding_deterministic(self):
        first = ParametricView(0)
        first.record(2, 0, B, 2.0)
        first.record(1, 0, A, 1.0)
        second = ParametricView(0)
        second.record(1, 0, A, 1.0)
        second.record(2, 0, B, 2.0)
        assert encode(first.encoded()) == encode(second.encoded())
