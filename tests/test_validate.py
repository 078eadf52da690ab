"""Schedule validator: exact diagnoses and end-to-end certification."""

from __future__ import annotations

import pytest

from repro.core.restructure import restructure_operations
from repro.core.shadow import explore_chains
from repro.engine.events import Event
from repro.engine.execution import preprocess
from repro.engine.operations import Condition, Operation
from repro.engine.refs import StateRef
from repro.engine.serial import execute_serial
from repro.engine.tpg import build_tpg
from repro.engine.transactions import Transaction
from repro.engine.validate import assert_schedule_valid, is_schedule_valid
from repro.errors import SchedulingError

A, B = StateRef("t", "A"), StateRef("t", "B")


def _two_txn_tpg():
    t0 = Transaction(
        0, 0, Event(0, "w", ()),
        (Operation(0, 0, 0, A, "deposit", (1.0,)),),
    )
    t1 = Transaction(
        1, 1, Event(1, "r", ()),
        (
            Operation(1, 1, 1, B, "credit_from", (1.0,), (A,)),
            Operation(2, 1, 1, A, "deposit", (1.0,)),
        ),
    )
    return build_tpg([t0, t1])


class TestViolations:
    def test_timestamp_order_is_always_valid(self):
        tpg = _two_txn_tpg()
        assert_schedule_valid(list(tpg.ops), tpg)

    def test_td_violation_detected(self):
        tpg = _two_txn_tpg()
        by_uid = tpg.op_by_uid
        order = [by_uid[2], by_uid[0], by_uid[1]]  # op2 before chain prev 0
        with pytest.raises(SchedulingError, match="TD violation"):
            assert_schedule_valid(order, tpg)

    def test_pd_violation_detected(self):
        tpg = _two_txn_tpg()
        by_uid = tpg.op_by_uid
        order = [by_uid[1], by_uid[0], by_uid[2]]  # reader before writer
        with pytest.raises(SchedulingError, match="PD violation: 1 read from 0"):
            assert_schedule_valid(order, tpg)

    def test_condition_source_violation_names_the_validator(self):
        t0 = Transaction(
            0, 0, Event(0, "w", ()),
            (Operation(0, 0, 0, A, "deposit", (1.0,)),),
        )
        t1 = Transaction(
            1, 1, Event(1, "c", ()),
            (Operation(1, 1, 1, B, "deposit", (1.0,)),),
            (Condition("ge", (A,), (0.0,)),),
        )
        tpg = build_tpg([t0, t1])
        order = [tpg.op_by_uid[1], tpg.op_by_uid[0]]
        with pytest.raises(
            SchedulingError,
            match="validator 1 checked a condition before source 0 ran",
        ):
            assert_schedule_valid(order, tpg)
        assert is_schedule_valid(order, tpg, ignore_pd=True)

    def test_validator_with_reads_tells_read_from_condition_source(self):
        # Validator 2 reads C (written by 1) and checks a condition on A
        # (written by 0): each late writer is named by its own edge class.
        C = StateRef("t", "C")
        t0 = Transaction(
            0, 0, Event(0, "w", ()),
            (Operation(0, 0, 0, A, "deposit", (1.0,)),),
        )
        t1 = Transaction(
            1, 1, Event(1, "w", ()),
            (Operation(1, 1, 1, C, "deposit", (1.0,)),),
        )
        t2 = Transaction(
            2, 2, Event(2, "c", ()),
            (Operation(2, 2, 2, B, "credit_from", (1.0,), (C,)),),
            (Condition("ge", (A,), (0.0,)),),
        )
        tpg = build_tpg([t0, t1, t2])
        by_uid = tpg.op_by_uid
        with pytest.raises(
            SchedulingError,
            match="validator 2 checked a condition before source 0 ran",
        ):
            assert_schedule_valid([by_uid[1], by_uid[2], by_uid[0]], tpg)
        with pytest.raises(SchedulingError, match="PD violation: 2 read from 1"):
            assert_schedule_valid([by_uid[0], by_uid[2], by_uid[1]], tpg)

    def test_pd_violation_forgiven_when_eliminated(self):
        tpg = _two_txn_tpg()
        by_uid = tpg.op_by_uid
        order = [by_uid[1], by_uid[0], by_uid[2]]
        # TD: op2 after op0 holds; PD ignored (view-resolved).
        assert is_schedule_valid(order, tpg, ignore_pd=True)

    def test_ld_violation_detected(self):
        tpg = _two_txn_tpg()
        by_uid = tpg.op_by_uid
        order = [by_uid[0], by_uid[2], by_uid[1]]  # op2 before validator 1
        with pytest.raises(SchedulingError, match="LD violation"):
            assert_schedule_valid(order, tpg)
        assert is_schedule_valid(order, tpg, ignore_ld=True, ignore_pd=True)

    def test_missing_operation_detected(self):
        tpg = _two_txn_tpg()
        with pytest.raises(SchedulingError, match="never scheduled"):
            assert_schedule_valid(list(tpg.ops)[:-1], tpg)

    def test_duplicate_operation_detected(self):
        tpg = _two_txn_tpg()
        order = list(tpg.ops) + [tpg.ops[0]]
        with pytest.raises(SchedulingError, match="twice"):
            assert_schedule_valid(order, tpg)

    def test_unknown_operation_detected(self):
        tpg = _two_txn_tpg()
        alien = Operation(99, 99, 99, B, "deposit", (1.0,))
        with pytest.raises(SchedulingError):
            assert_schedule_valid(list(tpg.ops) + [alien], tpg)


class TestEndToEnd:
    def test_shadow_exploration_orders_are_certified(self, sl):
        """The order shadow exploration produces is a valid linearization
        of the committed sub-TPG (with PD/LD edges eliminated by views
        and abort pushdown)."""
        events = sl.generate(300, seed=6)
        txns = preprocess(events, sl, 0)
        outcome = execute_serial(sl.initial_state(), txns)
        committed = [t for t in txns if t.txn_id not in outcome.aborted]
        refs = sorted(set().union(*[t.write_set() for t in committed]))
        pmap = {ref: i % 3 for i, ref in enumerate(refs)}
        restructured = restructure_operations(committed, pmap)

        from repro.core.restructure import chains_by_partition

        bundles = chains_by_partition(restructured, pmap, 3)
        order = []
        for bundle in bundles:
            local = {
                op.uid: restructured.local_deps[op.uid]
                for chain in bundle
                for op in chain
                if op.uid in restructured.local_deps
            }
            order.extend(explore_chains(bundle, local).order)
        # Bundle-concatenation order: TDs hold globally; PDs across
        # bundles are view-resolved, LDs eliminated by pushdown.
        assert_schedule_valid(
            order, restructured.tpg, ignore_pd=True, ignore_ld=True
        )
        # And within each bundle, even the local PDs were respected.
        for bundle in bundles:
            bundle_uids = {op.uid for chain in bundle for op in chain}
            position = {op.uid: i for i, op in enumerate(order)}
            for uid in bundle_uids:
                for dep in restructured.local_deps.get(uid, ()):
                    assert position[dep] < position[uid]
