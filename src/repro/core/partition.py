"""Graph-based partitioning for selective logging (§VI-A1).

Each operation chain (all same-record operations, i.e. the TD-connected
unit) is a vertex weighted by its operation count; an edge between two
chains is weighted by the number of LDs and PDs connecting them.  The
greedy partitioner (after Yao et al. [31]) balances vertex weight
across ``k`` partitions while placing strongly connected chains
together, so that most dependencies become *intra*-partition — those
are resolved locally at recovery via shadow operations and never
logged.  Only the surviving *inter*-partition dependencies are tracked
and recorded by the Logging Manager.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Tuple

from repro.engine.refs import StateRef
from repro.engine.tpg import TaskPrecedenceGraph
from repro.errors import ConfigError


@dataclass
class ChainGraph:
    """Weighted chain-affinity graph of one epoch."""

    #: chain (record) -> number of operations.
    vertices: Dict[StateRef, int] = field(default_factory=dict)
    #: unordered chain pair -> number of LD+PD dependencies between them.
    edges: Dict[Tuple[StateRef, StateRef], int] = field(default_factory=dict)

    def add_edge(self, a: StateRef, b: StateRef, weight: int = 1) -> None:
        if a == b:
            return
        key = (a, b) if a <= b else (b, a)
        self.edges[key] = self.edges.get(key, 0) + weight

    def neighbors(self) -> Dict[StateRef, List[Tuple[StateRef, int]]]:
        adj: Dict[StateRef, List[Tuple[StateRef, int]]] = {
            v: [] for v in self.vertices
        }
        for (a, b), w in self.edges.items():
            adj[a].append((b, w))
            adj[b].append((a, w))
        return adj

    def total_weight(self) -> int:
        return sum(self.vertices.values())

    def cut_weight(self, assignment: Dict[StateRef, int]) -> int:
        """Dependencies crossing partitions under ``assignment``."""
        return sum(
            w
            for (a, b), w in self.edges.items()
            if assignment[a] != assignment[b]
        )


def build_chain_graph(tpg: TaskPrecedenceGraph) -> ChainGraph:
    """Chain graph of an epoch: TD chains as vertices, LD/PD as edges."""
    graph = ChainGraph()
    for ref, chain in tpg.chains.items():
        graph.vertices[ref] = len(chain)
    for txn in tpg.txns:
        validator_ref = txn.ops[0].ref
        # LD edges: every non-validator operation depends on the
        # condition-variable-check operation's chain.
        for op in txn.ops[1:]:
            graph.add_edge(op.ref, validator_ref)
        # PD edges: cross-key reads, both operation reads and condition
        # refs (which the validator resolves).
        for op in txn.ops:
            for src in tpg.pd_sources[op.uid]:
                if src is not None:
                    graph.add_edge(op.ref, tpg.op_by_uid[src].ref)
        for _ref, src in tpg.cond_sources.get(txn.txn_id, ()):
            if src is not None:
                graph.add_edge(validator_ref, tpg.op_by_uid[src].ref)
    return graph


def greedy_partition(
    graph: ChainGraph, num_partitions: int, imbalance: float = 1.2
) -> Dict[StateRef, int]:
    """Greedy balanced partitioning with affinity placement.

    Chains are placed heaviest-first.  Each chain goes to the partition
    with the highest edge affinity among those still under the balance
    cap (``imbalance`` x average load); with no affinity or no capacity
    it goes to the lightest partition.  Deterministic: ties break on
    partition index, vertices on (weight desc, ref).
    """
    if num_partitions < 1:
        raise ConfigError("num_partitions must be >= 1")
    if imbalance < 1.0:
        raise ConfigError("imbalance must be >= 1.0")
    assignment: Dict[StateRef, int] = {}
    if not graph.vertices:
        return assignment
    loads = [0.0] * num_partitions
    cap = graph.total_weight() / num_partitions * imbalance
    adjacency = graph.neighbors()
    order = sorted(graph.vertices.items())
    order.sort(key=itemgetter(1), reverse=True)  # stable: ties stay by ref
    for ref, weight in order:
        affinity: Dict[int, int] = {}
        for neighbor, edge_weight in adjacency[ref]:
            placed = assignment.get(neighbor)
            if placed is not None:
                affinity[placed] = affinity.get(placed, 0) + edge_weight
        # Only a partition holding a placed neighbour can beat the
        # lightest one; and if the lightest is over the cap, so is
        # every other, which makes it the no-capacity fallback too.
        best_key = None
        for pid, pull in affinity.items():
            load = loads[pid]
            if load + weight <= cap:
                key = (-pull, load, pid)
                if best_key is None or key < best_key:
                    best_key = key
        best = best_key[2] if best_key is not None else loads.index(min(loads))
        assignment[ref] = best
        loads[best] += weight
    return assignment
