"""Schedule validation: is an execution order conflict-equivalent?

A parallel schedule is correct iff it is conflict-equivalent to
timestamp order (§II-A).  For any proposed execution order of a batch's
operations, that reduces to: every operation appears exactly once, and
every TD/PD/LD predecessor of an operation appears before it.

:func:`assert_schedule_valid` checks this against a TPG and raises
:class:`~repro.errors.SchedulingError` with a precise diagnosis on the
first violation.  The shadow-exploration tests and the MorphStreamR
recovery tests use it to certify the orders the system actually runs;
it is also a public API for anyone extending the scheduler.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.engine.operations import Operation
from repro.engine.tpg import TaskPrecedenceGraph
from repro.errors import SchedulingError


def assert_schedule_valid(
    order: Sequence[Operation],
    tpg: TaskPrecedenceGraph,
    ignore_pd: bool = False,
    ignore_ld: bool = False,
) -> None:
    """Verify ``order`` is a valid linearization of ``tpg``.

    ``ignore_pd`` / ``ignore_ld`` relax the corresponding edge classes —
    a schedule produced after dependency *elimination* (view lookups,
    abort pushdown) is valid without them, because the eliminated edges
    are satisfied by recorded intermediate results rather than ordering.
    """
    position: Dict[int, int] = {}
    for index, op in enumerate(order):
        if op.uid in position:
            raise SchedulingError(f"operation {op.uid} scheduled twice")
        position[op.uid] = index

    expected = {op.uid for op in tpg.ops}
    missing = expected - set(position)
    if missing:
        raise SchedulingError(
            f"{len(missing)} operations never scheduled "
            f"(first: {sorted(missing)[:5]})"
        )
    extra = set(position) - expected
    if extra:
        raise SchedulingError(
            f"schedule contains unknown operations {sorted(extra)[:5]}"
        )

    for op in order:
        mine = position[op.uid]
        for src in tpg.dependencies(op, not ignore_pd, not ignore_ld):
            if position[src] > mine:
                raise SchedulingError(_violation(tpg, op, src))


def _violation(tpg: TaskPrecedenceGraph, op: Operation, src: int) -> str:
    """Name the edge class of the violated dependency ``src`` -> ``op``."""
    if src == tpg.td_prev.get(op.uid):
        return f"TD violation: {op.uid} ran before its chain predecessor {src}"
    if src == tpg.validator_uid[op.txn_id]:
        return f"LD violation: {op.uid} ran before validator {src}"
    if src in tpg.pd_sources.get(op.uid, ()):
        return f"PD violation: {op.uid} read from {src} before it ran"
    return (
        f"PD violation: validator {op.uid} checked a condition before "
        f"source {src} ran"
    )


def is_schedule_valid(
    order: Sequence[Operation],
    tpg: TaskPrecedenceGraph,
    ignore_pd: bool = False,
    ignore_ld: bool = False,
) -> bool:
    """Boolean form of :func:`assert_schedule_valid`."""
    try:
        assert_schedule_valid(order, tpg, ignore_pd, ignore_ld)
    except SchedulingError:
        return False
    return True
