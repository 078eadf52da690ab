"""Optimized task assignment: LPT guarantees and determinism (§V-B3)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import lpt_assign, makespan, round_robin_assign
from repro.errors import ConfigError


class TestLPT:
    def test_loads_consistent_with_assignment(self):
        weights = [5.0, 3.0, 3.0, 2.0, 2.0, 1.0]
        assignment, loads = lpt_assign(weights, 3)
        recomputed = [0.0] * 3
        for i, worker in enumerate(assignment):
            recomputed[worker] += weights[i]
        assert recomputed == pytest.approx(loads)

    def test_classic_lpt_example(self):
        # LPT on {5,3,3,2,2,1} over 2 workers reaches the optimum of 8.
        _assignment, loads = lpt_assign([5, 3, 3, 2, 2, 1], 2)
        assert makespan(loads) == 8.0

    def test_better_than_round_robin_on_skewed_tasks(self):
        weights = [100.0] + [1.0] * 15
        _a1, lpt_loads = lpt_assign(weights, 4)
        _a2, rr_loads = round_robin_assign(weights, 4)
        assert makespan(lpt_loads) < makespan(rr_loads)

    def test_deterministic(self):
        weights = [3.0, 3.0, 2.0, 2.0, 1.0]
        assert lpt_assign(weights, 2) == lpt_assign(weights, 2)

    def test_empty_task_list(self):
        assignment, loads = lpt_assign([], 3)
        assert assignment == []
        assert loads == [0.0, 0.0, 0.0]

    def test_single_worker_serializes_everything(self):
        _assignment, loads = lpt_assign([1.0, 2.0, 3.0], 1)
        assert loads == [6.0]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError):
            lpt_assign([1.0], 0)
        with pytest.raises(ConfigError):
            lpt_assign([-1.0], 2)
        with pytest.raises(ConfigError):
            round_robin_assign([1.0], 0)

    def test_nan_and_inf_weights_rejected(self):
        with pytest.raises(ConfigError):
            lpt_assign([1.0, math.nan], 2)
        with pytest.raises(ConfigError):
            lpt_assign([math.inf], 2)

    def test_more_workers_than_tasks(self):
        # Only the first len(weights) workers can ever receive a task;
        # the rest stay idle but still appear in loads.
        assignment, loads = lpt_assign([4.0, 2.0], 16)
        assert sorted(assignment) == [0, 1]
        assert len(loads) == 16
        assert loads[0] + loads[1] == pytest.approx(6.0)
        assert all(load == 0.0 for load in loads[2:])


class TestMakespan:
    def test_empty(self):
        assert makespan([]) == 0.0

    def test_max_load(self):
        assert makespan([1.0, 5.0, 3.0]) == 5.0


@given(
    weights=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        max_size=60,
    ),
    workers=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=150, deadline=None)
def test_property_lpt_within_guarantee(weights, workers):
    """LPT makespan <= 2x the trivial lower bound (theory: 4/3 - 1/3m)."""
    assignment, loads = lpt_assign(weights, workers)
    assert len(assignment) == len(weights)
    assert all(0 <= w < workers for w in assignment)
    lower_bound = max(
        sum(weights) / workers, max(weights) if weights else 0.0
    )
    assert makespan(loads) <= 2 * lower_bound + 1e-9


@given(
    weights=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        max_size=60,
    ),
    workers=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=100, deadline=None)
def test_property_lpt_within_4_3_of_optimum_proxy(weights, workers):
    """LPT's theoretical bound: makespan <= 4/3 OPT + max task.

    OPT is not computable cheaply; ``max(total/m, max weight)`` lower
    bounds it, so LPT must stay within 4/3 of that bound plus one task
    (a consequence of the Graham bound, loose enough to be sound).
    """
    _a, loads = lpt_assign(weights, workers)
    if not weights:
        return
    lower = max(sum(weights) / workers, max(weights))
    assert makespan(loads) <= (4.0 / 3.0) * lower + max(weights) + 1e-9
