"""Shadow-based exploration (§VI-A2).

Selective logging leaves *intra*-partition dependencies unlogged, so a
recovering worker must still resolve them — but entirely locally, with
no lock contention.  The mechanism is the paper's shadow operations:

- every unlogged dependency of operation ``O`` inserts a *shadow* of
  ``O`` right after the operation it depends on, in that operation's
  chain;
- each operation carries a count of its unresolved dependencies;
- when a worker executes an operation it "passes" the shadows sitting
  behind it, decrementing each dependent's count (Fig. 8 step ②);
- when the head of the current chain still has unresolved
  dependencies, the worker *switches* to the chain containing the first
  unexecuted dependency and processes it until the dependency resolves
  (Fig. 8 step ④).

Shadows are placeholders only — they never introduce new dependencies —
so the traversal is guaranteed to terminate: every switch target's head
operation has a strictly smaller timestamp than the blocked operation,
and the minimum-timestamp unexecuted operation is always executable.

:func:`explore_chains` runs the real traversal and returns the exact
execution order plus per-operation accounting (shadow passes, chain
switches) that the cost model charges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.engine.operations import Operation
from repro.errors import SchedulingError


@dataclass
class ExplorationResult:
    """Execution order and accounting of one partition's exploration."""

    order: List[Operation] = field(default_factory=list)
    #: op uid -> number of shadow operations passed when it executed
    #: (i.e. dependents it notified).  Only operations that passed at
    #: least one shadow have an entry: read it with ``.get(uid, 0)``.
    shadows_passed: Dict[int, int] = field(default_factory=dict)
    #: op uid -> chain switches triggered while unblocking this op.
    switches_for: Dict[int, int] = field(default_factory=dict)

    @property
    def total_shadow_visits(self) -> int:
        return sum(self.shadows_passed.values())

    @property
    def total_chain_switches(self) -> int:
        return sum(self.switches_for.values())


def explore_chains(
    chains: Sequence[Sequence[Operation]],
    local_deps: Dict[int, Tuple[int, ...]],
) -> ExplorationResult:
    """Traverse one partition's chains, resolving local deps via shadows.

    ``chains`` are timestamp-sorted operation chains of one partition;
    ``local_deps[uid]`` lists uids of *intra-partition* operations that
    must execute before ``uid`` (its shadow sources).  Every listed
    dependency must belong to one of the chains.  Returns the execution
    order (a valid topological order: tests assert it) and the shadow /
    switch counts.
    """
    result = ExplorationResult()
    if not chains:
        return result

    chain_of = {op.uid: ci for ci, chain in enumerate(chains) for op in chain}
    total = sum(map(len, chains))
    if len(chain_of) != total:
        seen = set()
        for chain in chains:
            for op in chain:
                if op.uid in seen:
                    raise SchedulingError(f"operation {op.uid} appears twice")
                seen.add(op.uid)

    # Shadow placement: dependents[src] are the operations whose shadow
    # sits behind src in src's chain.
    dependents: Dict[int, List[int]] = {}
    pending: Dict[int, int] = {}
    for uid, deps in local_deps.items():
        if uid not in chain_of:
            continue
        count = 0
        for src in deps:
            if src not in chain_of:
                raise SchedulingError(
                    f"operation {uid} has local dependency {src} outside "
                    "this partition"
                )
            dependents.setdefault(src, []).append(uid)
            count += 1
        if count:
            pending[uid] = count

    # Only shadow sources can block an operation, so only they are
    # remembered as executed.
    executed: set = set()
    pointer = [0] * len(chains)
    order = result.order
    shadows_passed = result.shadows_passed
    switches_for = result.switches_for
    for start in range(len(chains)):
        stack = [start]
        while stack:
            # Execute the top chain's heads until one is blocked (its
            # shadows not all passed) or the chain is done.
            ci = stack[-1]
            chain = chains[ci]
            position = pointer[ci]
            end = len(chain)
            while position < end:
                op = chain[position]
                uid = op.uid
                if pending.get(uid):
                    break
                position += 1
                order.append(op)
                waiting = dependents.get(uid)
                if waiting:
                    executed.add(uid)
                    for dependent in waiting:
                        pending[dependent] -= 1
                    shadows_passed[uid] = len(waiting)
            pointer[ci] = position
            if position == end:
                stack.pop()
                continue
            blocker = next(
                src for src in local_deps[uid] if src not in executed
            )
            target = chain_of[blocker]
            if target == ci:  # pragma: no cover - impossible by model
                raise SchedulingError(
                    f"operation {uid} blocked on {blocker} in its own chain"
                )
            switches_for[uid] = switches_for.get(uid, 0) + 1
            stack.append(target)

    if len(order) != total:
        raise SchedulingError(
            f"exploration executed {len(order)} of {total} operations"
        )
    return result
