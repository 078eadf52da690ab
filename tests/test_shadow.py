"""Shadow-based exploration (§VI-A2): Fig. 8 scenario and invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shadow import explore_chains
from repro.engine.operations import Operation
from repro.engine.refs import StateRef
from repro.errors import SchedulingError


def op(uid, key):
    """Operation with ts == uid (uids are assigned in ts order)."""
    return Operation(uid, uid, uid, StateRef("t", key), "deposit", (1.0,))


class TestFigure8Scenario:
    """The paper's example: two chains, O1..O5 with PD/LD shadows.

    Chain X: O1(ts1), O2(ts2), O5(ts5); chain Y: O3(ts3), O4(ts4).
    O3 depends on O1 and O2; O5 depends on O3 and O4.
    """

    def _chains(self):
        o1, o2, o5 = op(1, "X"), op(2, "X"), op(5, "X")
        o3, o4 = op(3, "Y"), op(4, "Y")
        chains = [[o1, o2, o5], [o3, o4]]
        local_deps = {3: (1, 2), 5: (3, 4)}
        return chains, local_deps

    def test_execution_order_matches_paper_walkthrough(self):
        chains, deps = self._chains()
        result = explore_chains(chains, deps)
        assert [o.uid for o in result.order] == [1, 2, 3, 4, 5]

    def test_shadow_visits_counted(self):
        chains, deps = self._chains()
        result = explore_chains(chains, deps)
        # O1 and O2 each pass one shadow of O3; O3 and O4 each pass one
        # shadow of O5.
        assert result.shadows_passed[1] == 1
        assert result.shadows_passed[2] == 1
        assert result.shadows_passed[3] == 1
        assert result.shadows_passed[4] == 1
        assert result.total_shadow_visits == 4

    def test_operation_passing_no_shadow_has_no_entry(self):
        chains, deps = self._chains()
        result = explore_chains(chains, deps)
        # O5 is nobody's dependency: no shadow sits behind it.
        assert 5 not in result.shadows_passed
        assert result.shadows_passed.get(5, 0) == 0

    def test_chain_switch_recorded_when_blocked(self):
        chains, deps = self._chains()
        result = explore_chains(chains, deps)
        # The worker blocks at O5 and switches to the (O3, O4) chain
        # (step 4 of Fig. 8).
        assert result.switches_for.get(5, 0) >= 1
        assert result.total_chain_switches >= 1


class TestInvariants:
    def test_every_operation_executed_exactly_once(self):
        chains = [[op(1, "A"), op(4, "A")], [op(2, "B")], [op(3, "C")]]
        deps = {4: (2, 3), 2: (1,)}
        result = explore_chains(chains, deps)
        assert sorted(o.uid for o in result.order) == [1, 2, 3, 4]

    def test_order_respects_chain_positions(self):
        chains = [[op(1, "A"), op(3, "A"), op(5, "A")], [op(2, "B"), op(4, "B")]]
        result = explore_chains(chains, {})
        position = {o.uid: i for i, o in enumerate(result.order)}
        assert position[1] < position[3] < position[5]
        assert position[2] < position[4]

    def test_order_respects_local_dependencies(self):
        chains = [[op(2, "A")], [op(1, "B")]]
        result = explore_chains(chains, {2: (1,)})
        assert [o.uid for o in result.order] == [1, 2]

    def test_no_dependencies_runs_chains_in_listed_order(self):
        chains = [[op(1, "A"), op(2, "A")], [op(3, "B")]]
        result = explore_chains(chains, {})
        assert [o.uid for o in result.order] == [1, 2, 3]
        assert result.total_chain_switches == 0
        assert result.total_shadow_visits == 0

    def test_empty_input(self):
        result = explore_chains([], {})
        assert result.order == []

    def test_dependency_outside_partition_rejected(self):
        chains = [[op(2, "A")]]
        with pytest.raises(SchedulingError):
            explore_chains(chains, {2: (1,)})

    def test_duplicate_operation_rejected(self):
        duplicated = op(1, "A")
        with pytest.raises(SchedulingError):
            explore_chains([[duplicated], [duplicated]], {})

    def test_duplicate_operation_is_named(self):
        duplicated = op(7, "B")
        chains = [[op(1, "A"), op(3, "A")], [duplicated, op(8, "B")], [duplicated]]
        with pytest.raises(SchedulingError, match="operation 7 appears twice"):
            explore_chains(chains, {7: (1,)})

    def test_deep_dependency_cascade_terminates(self):
        # Chain i's op depends on chain i+1's op, forcing a maximal
        # switch cascade.
        chains = [[op(i, f"K{i}")] for i in range(50)]
        deps = {i: (i + 1,) for i in range(49)}
        result = explore_chains(chains, deps)
        assert [o.uid for o in result.order] == list(range(49, -1, -1))
        assert result.total_chain_switches == 49


@given(data=st.data(), num_chains=st.integers(2, 6), ops_total=st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_property_exploration_is_topological(data, num_chains, ops_total):
    """Random chains + random earlier-ts local deps always explore into
    a valid topological order covering every operation once."""
    rng_seed = data.draw(st.integers(0, 2**20))
    rng = random.Random(rng_seed)
    chains = [[] for _ in range(num_chains)]
    all_ops = []
    for uid in range(ops_total):
        chain_id = rng.randrange(num_chains)
        operation = op(uid, f"K{chain_id}")
        chains[chain_id].append(operation)
        all_ops.append((operation, chain_id))
    chains = [c for c in chains if c]

    local_deps = {}
    for operation, chain_id in all_ops:
        candidates = [
            o.uid
            for o, cid in all_ops
            if o.uid < operation.uid and cid != chain_id
        ]
        if candidates and rng.random() < 0.5:
            local_deps[operation.uid] = tuple(
                sorted(rng.sample(candidates, k=min(2, len(candidates))))
            )

    result = explore_chains(chains, local_deps)
    assert sorted(o.uid for o in result.order) == sorted(
        o.uid for o, _c in all_ops
    )
    position = {o.uid: i for i, o in enumerate(result.order)}
    for chain in chains:
        for earlier, later in zip(chain, chain[1:]):
            assert position[earlier.uid] < position[later.uid]
    for uid, deps in local_deps.items():
        for dep in deps:
            assert position[dep] < position[uid]
