"""Optimized task assignment (§V-B3): greedy LPT scheduling.

After abort pushdown and operation restructuring only temporal
dependencies remain, so a task's execution time is essentially its
operation count.  Tasks are sorted by weight (descending) and each is
assigned to the worker with the minimum accumulated load — the classic
longest-processing-time-first greedy, whose makespan is within 4/3 of
optimal.  The tests check the 2x-lower-bound guarantee.

Recovery itself can lose workers (a recovery worker dies mid-replay);
:class:`~repro.sim.executor.ResilientExecutor` then runs
:func:`lpt_assign` over the survivors alone, so the re-assigned work
keeps the same guarantee on the reduced machine.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Sequence, Tuple

from repro.errors import ConfigError


def _check_weights(weights: Sequence[float]) -> None:
    """Reject weights that would silently poison the heap ordering."""
    for i, w in enumerate(weights):
        if isinstance(w, float) and math.isnan(w):
            raise ConfigError(f"task weight {i} is NaN")
        if math.isinf(w):
            raise ConfigError(f"task weight {i} is infinite")
        if w < 0:
            raise ConfigError("task weights must be >= 0")


def lpt_assign(
    weights: Sequence[float], num_workers: int
) -> Tuple[List[int], List[float]]:
    """Assign ``weights[i]`` to a worker; returns (assignment, loads).

    Deterministic: equal-weight tasks keep index order, equal-load
    workers break ties on worker id.  When there are more workers than
    tasks only the first ``len(weights)`` workers enter the heap (the
    rest can never receive a task, so seeding them would be pure churn);
    ``loads`` still has one entry per worker.
    """
    if num_workers < 1:
        raise ConfigError("num_workers must be >= 1")
    _check_weights(weights)
    assignment = [0] * len(weights)
    loads = [0.0] * num_workers
    active = min(num_workers, len(weights))
    heap: List[Tuple[float, int]] = [(0.0, wid) for wid in range(active)]
    heapq.heapify(heap)
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    for i in order:
        load, wid = heapq.heappop(heap)
        assignment[i] = wid
        load += weights[i]
        loads[wid] = load
        heapq.heappush(heap, (load, wid))
    return assignment, loads


def round_robin_assign(
    weights: Sequence[float], num_workers: int
) -> Tuple[List[int], List[float]]:
    """Unoptimized baseline: tasks dealt to workers in index order.

    This is what the factor analysis (Fig. 11d) runs before
    ``+OptTaskAssign`` is enabled.
    """
    if num_workers < 1:
        raise ConfigError("num_workers must be >= 1")
    assignment = [i % num_workers for i in range(len(weights))]
    loads = [0.0] * num_workers
    for i, w in enumerate(weights):
        loads[assignment[i]] += w
    return assignment, loads


def makespan(loads: Sequence[float]) -> float:
    """The schedule length implied by per-worker loads."""
    return max(loads) if loads else 0.0
