"""Graph-based partitioning for selective logging (§VI-A1)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import ChainGraph, build_chain_graph, greedy_partition
from repro.engine.execution import preprocess
from repro.engine.refs import StateRef
from repro.engine.tpg import build_tpg
from repro.errors import ConfigError
from tests.reference_partition import reference_greedy_partition

A, B, C, D = (StateRef("t", k) for k in "ABCD")


def graph_of(vertices, edges):
    graph = ChainGraph(vertices=dict(vertices))
    for a, b, w in edges:
        graph.add_edge(a, b, w)
    return graph


class TestChainGraph:
    def test_edges_are_undirected_and_accumulate(self):
        graph = graph_of({A: 1, B: 1}, [(A, B, 2), (B, A, 3)])
        assert graph.edges == {(A, B): 5}

    def test_self_edges_ignored(self):
        graph = graph_of({A: 1}, [(A, A, 5)])
        assert graph.edges == {}

    def test_cut_weight(self):
        graph = graph_of({A: 1, B: 1, C: 1}, [(A, B, 2), (B, C, 3)])
        assert graph.cut_weight({A: 0, B: 0, C: 1}) == 3
        assert graph.cut_weight({A: 0, B: 1, C: 0}) == 5

    def test_built_from_tpg(self, sl):
        events = sl.generate(200, seed=1)
        tpg = build_tpg(preprocess(events, sl, 0))
        graph = build_chain_graph(tpg)
        # One vertex per chain, weighted by its operation count.
        assert set(graph.vertices) == set(tpg.chains)
        for ref, weight in graph.vertices.items():
            assert weight == len(tpg.chains[ref])
        # Every edge endpoint is a real chain.
        for a, b in graph.edges:
            assert a in graph.vertices and b in graph.vertices

    def test_tpg_edge_weights_count_ld_and_pd(self):
        # One transfer-like txn: validator on A, second op on B
        # reading A -> one LD edge (B,A) and one PD edge per source.
        from repro.engine.events import Event
        from repro.engine.operations import Operation
        from repro.engine.transactions import Transaction

        t0 = Transaction(
            0, 0, Event(0, "w", ()),
            (Operation(0, 0, 0, A, "deposit", (1.0,)),),
        )
        t1 = Transaction(
            1, 1, Event(1, "x", ()),
            (
                Operation(1, 1, 1, C, "deposit", (1.0,)),
                Operation(2, 1, 1, B, "write_sum", (), (A,)),
            ),
        )
        graph = build_chain_graph(build_tpg([t0, t1]))
        assert graph.edges[(B, C)] == 1  # LD: op2 -> validator on C
        assert graph.edges[(A, B)] == 1  # PD: read of A by op on B


class TestGreedyPartition:
    def test_every_vertex_assigned_in_range(self):
        graph = graph_of({A: 3, B: 2, C: 2, D: 1}, [(A, B, 5)])
        assignment = greedy_partition(graph, 2)
        assert set(assignment) == {A, B, C, D}
        assert all(0 <= p < 2 for p in assignment.values())

    def test_single_partition_takes_all(self):
        graph = graph_of({A: 1, B: 1}, [])
        assert set(greedy_partition(graph, 1).values()) == {0}

    def test_affinity_groups_connected_chains(self):
        # Two heavy cliques: partitioning must not split them.
        graph = graph_of(
            {A: 1, B: 1, C: 1, D: 1},
            [(A, B, 10), (C, D, 10)],
        )
        assignment = greedy_partition(graph, 2)
        assert assignment[A] == assignment[B]
        assert assignment[C] == assignment[D]
        assert assignment[A] != assignment[C]

    def test_loads_balanced_within_cap(self):
        rng = random.Random(0)
        vertices = {StateRef("t", i): rng.randint(1, 5) for i in range(64)}
        graph = ChainGraph(vertices=vertices)
        assignment = greedy_partition(graph, 4, imbalance=1.2)
        loads = [0] * 4
        for ref, pid in assignment.items():
            loads[pid] += vertices[ref]
        total = sum(vertices.values())
        # Unconnected graph: no partition exceeds cap + one max vertex.
        assert max(loads) <= total / 4 * 1.2 + 5

    def test_cut_no_worse_than_random_on_structured_graph(self, sl):
        events = sl.generate(300, seed=2)
        tpg = build_tpg(preprocess(events, sl, 0))
        graph = build_chain_graph(tpg)
        greedy = greedy_partition(graph, 4)
        rng = random.Random(1)
        random_cuts = []
        for _ in range(5):
            assignment = {v: rng.randrange(4) for v in graph.vertices}
            random_cuts.append(graph.cut_weight(assignment))
        assert graph.cut_weight(greedy) <= min(random_cuts)

    def test_deterministic(self, gs):
        events = gs.generate(200, seed=3)
        graph = build_chain_graph(build_tpg(preprocess(events, gs, 0)))
        assert greedy_partition(graph, 4) == greedy_partition(graph, 4)

    def test_empty_graph(self):
        assert greedy_partition(ChainGraph(), 4) == {}

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            greedy_partition(ChainGraph(), 0)
        with pytest.raises(ConfigError):
            greedy_partition(ChainGraph(), 2, imbalance=0.5)


@given(
    weights=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=40),
    k=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=100, deadline=None)
def test_property_partition_complete_and_bounded(weights, k):
    vertices = {StateRef("t", i): w for i, w in enumerate(weights)}
    graph = ChainGraph(vertices=vertices)
    assignment = greedy_partition(graph, k)
    assert set(assignment) == set(vertices)
    loads = [0] * k
    for ref, pid in assignment.items():
        loads[pid] += vertices[ref]
    cap = sum(weights) / k * 1.2 + max(weights)
    assert max(loads) <= cap


class TestSameMapAsTheFrozenPartitioner:
    """The partition map is durable format (every MSR view segment
    carries it): the tightened scan must place every chain where the
    frozen one does, and in the same order."""

    @pytest.mark.parametrize("imbalance", [1.0, 1.05, 1.2])
    @pytest.mark.parametrize("k", [1, 4, 16, 64])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_on_the_benchmark_applications(self, workload, seed, k, imbalance):
        events = workload.generate(256, seed=seed)
        graph = build_chain_graph(build_tpg(preprocess(events, workload, 0)))
        live = greedy_partition(graph, k, imbalance)
        frozen = reference_greedy_partition(graph, k, imbalance)
        assert live == frozen
        assert list(live) == list(frozen)

    @given(
        weights=st.lists(st.integers(1, 6), min_size=1, max_size=24),
        edges=st.lists(
            st.tuples(st.integers(0, 23), st.integers(0, 23), st.integers(1, 4)),
            max_size=60,
        ),
        k=st.integers(1, 8),
        imbalance=st.sampled_from([1.0, 1.05, 1.2, 2.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_on_arbitrary_graphs(self, weights, edges, k, imbalance):
        refs = [StateRef("t", i) for i in range(len(weights))]
        graph = graph_of(
            zip(refs, weights),
            [
                (refs[a % len(refs)], refs[b % len(refs)], w)
                for a, b, w in edges
            ],
        )
        live = greedy_partition(graph, k, imbalance)
        frozen = reference_greedy_partition(graph, k, imbalance)
        assert live == frozen
        assert list(live) == list(frozen)
