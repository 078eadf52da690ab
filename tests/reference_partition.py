"""Frozen, test-only oracle of the greedy partitioner (§VI-A1).

``greedy_partition`` exactly as it stood before its scan was tightened
(an affinity slot and a candidate comparison for every partition per
vertex, a lambda-key sort).  The partition map is persisted inside
every MorphStreamR view segment, so map *and* insertion order are
durable format: the tests hold the live function ``==`` to this one on
both.  It is never imported by ``src/``.  Do not optimise or tidy it; a
change to where chains are placed must show up as a diff against this
file.

Takes a live ``ChainGraph`` and touches only its ``vertices`` and
``edges`` fields.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.engine.refs import StateRef
from repro.errors import ConfigError


def reference_greedy_partition(
    graph, num_partitions: int, imbalance: float = 1.2
) -> Dict[StateRef, int]:
    if num_partitions < 1:
        raise ConfigError("num_partitions must be >= 1")
    if imbalance < 1.0:
        raise ConfigError("imbalance must be >= 1.0")
    assignment: Dict[StateRef, int] = {}
    if not graph.vertices:
        return assignment
    loads = [0.0] * num_partitions
    cap = sum(graph.vertices.values()) / num_partitions * imbalance
    adjacency: Dict[StateRef, List[Tuple[StateRef, int]]] = {
        v: [] for v in graph.vertices
    }
    for (a, b), w in graph.edges.items():
        adjacency[a].append((b, w))
        adjacency[b].append((a, w))
    order = sorted(graph.vertices.items(), key=lambda kv: (-kv[1], kv[0]))
    for ref, weight in order:
        affinity = [0.0] * num_partitions
        for neighbor, edge_weight in adjacency[ref]:
            placed = assignment.get(neighbor)
            if placed is not None:
                affinity[placed] += edge_weight
        best = None
        best_key = None
        for pid in range(num_partitions):
            if loads[pid] + weight > cap:
                continue
            key = (-affinity[pid], loads[pid], pid)
            if best_key is None or key < best_key:
                best_key = key
                best = pid
        if best is None:
            best = min(range(num_partitions), key=lambda p: (loads[p], p))
        assignment[ref] = best
        loads[best] += weight
    return assignment
