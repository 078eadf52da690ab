"""The timing layer against its frozen oracle (``tests/reference_timing``).

Every comparison is ``==`` — floats, list order and bucket insertion
order included.  "Virtual time is bit-identical" is exactly the claim
that the live ``build_op_tasks`` / ``ParallelExecutor`` /
``ResilientExecutor`` / ``Machine.spend_parallel`` perform the same
float operations in the same order as the code they replaced.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.execution import (
    build_op_tasks,
    execute_tpg,
    op_cost,
    preprocess,
    txn_op_costs,
)
from repro.engine.tpg import build_tpg
from repro.errors import ReassignmentError
from repro.sim.clock import WAIT, Machine
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.executor import (
    ParallelExecutor,
    ResilientExecutor,
    SimTask,
    WorkerFault,
    WorkerFaultPlan,
)
from repro.workloads.grep_sum import GrepSum
from repro.workloads.streaming_ledger import StreamingLedger
from repro.workloads.toll_processing import TollProcessing
from tests.reference_timing import (
    ReferenceScheduler,
    reference_build_op_tasks,
    reference_op_cost,
    reference_spend_parallel,
)

NUM_WORKERS = 4
COSTS = DEFAULT_COSTS

WORKLOADS = {
    "SL": lambda abort: StreamingLedger(
        48,
        transfer_ratio=0.6,
        multi_partition_ratio=0.5,
        skew=0.5,
        forced_abort_ratio=abort,
        num_partitions=NUM_WORKERS,
    ),
    "GS": lambda abort: GrepSum(
        96,
        list_len=4,
        skew=0.8,
        multi_partition_ratio=0.5,
        abort_ratio=abort,
        num_partitions=NUM_WORKERS,
    ),
    "TP": lambda abort: TollProcessing(
        24,
        skew=0.6,
        capacity=6,
        forced_abort_ratio=abort,
        num_partitions=NUM_WORKERS,
    ),
}

BATCH = dict(
    kind=st.sampled_from(sorted(WORKLOADS)),
    seed=st.integers(0, 10_000),
    abort=st.sampled_from([0.0, 0.05, 0.3]),
    num_events=st.integers(1, 160),
)


def _executed_batch(kind, seed, abort, num_events):
    workload = WORKLOADS[kind](abort)
    events = workload.generate(num_events, seed=seed)
    tpg = build_tpg(preprocess(events, workload, 0))
    outcome = execute_tpg(workload.initial_state(), tpg)

    def worker_of(ref):
        return workload.partition_of(ref) % NUM_WORKERS

    return tpg, outcome, worker_of


# ----------------------------------------------------------------------
# (a) the task DAG
# ----------------------------------------------------------------------


@given(
    charge_aborts=st.booleans(),
    explore_per_dep=st.sampled_from([0.0, COSTS.explore_dependency]),
    **BATCH,
)
@settings(max_examples=120, deadline=None)
def test_build_op_tasks_matches_the_oracle(
    kind, seed, abort, num_events, charge_aborts, explore_per_dep,
):
    tpg, outcome, worker_of = _executed_batch(kind, seed, abort, num_events)
    flags = dict(
        charge_aborts=charge_aborts,
        explore_per_dep=explore_per_dep,
    )
    live = build_op_tasks(tpg, outcome, COSTS, worker_of, **flags)
    frozen = reference_build_op_tasks(tpg, outcome, COSTS, worker_of, **flags)
    # SimTask equality is tuple equality: uid, worker, cost, deps,
    # bucket, extra and group, field by field.
    assert live == frozen
    assert all(type(t.deps) is tuple and type(t.extra) is tuple for t in live)


@given(**BATCH)
@settings(max_examples=60, deadline=None)
def test_costs_match_the_oracle_per_operation_and_per_transaction(
    kind, seed, abort, num_events
):
    tpg, outcome, _worker_of = _executed_batch(kind, seed, abort, num_events)
    for txn in tpg.txns:
        assert txn_op_costs(txn, tpg, outcome, COSTS) == [
            reference_op_cost(op, tpg, outcome, COSTS) for op in txn.ops
        ]
    for op in tpg.ops:
        assert op_cost(op, tpg, outcome, COSTS) == reference_op_cost(
            op, tpg, outcome, COSTS
        )


# ----------------------------------------------------------------------
# (b) the list-scheduling loop
# ----------------------------------------------------------------------

_SECONDS = st.floats(0.0, 5e-6, allow_nan=False)
_BUCKETS = st.sampled_from(["execute", "explore", "abort", "construct"])


@st.composite
def _random_dag(draw):
    """Arbitrary topologically ordered tasks: extras, groups, repeated
    dependencies and zero costs included."""
    count = draw(st.integers(0, 40))
    tasks = []
    for uid in range(count):
        deps = (
            tuple(draw(st.lists(st.integers(0, uid - 1), max_size=3)))
            if uid
            else ()
        )
        extra = tuple(
            draw(st.lists(st.tuples(_BUCKETS, _SECONDS), max_size=2))
        )
        tasks.append(
            SimTask(
                uid,
                draw(st.integers(0, NUM_WORKERS - 1)),
                draw(_SECONDS),
                deps,
                draw(_BUCKETS),
                extra,
                draw(st.one_of(st.none(), st.integers(0, 5))),
            )
        )
    return tasks


@st.composite
def _tasks(draw):
    if draw(st.booleans()):
        return draw(_random_dag())
    tpg, outcome, worker_of = _executed_batch(
        draw(BATCH["kind"]),
        draw(BATCH["seed"]),
        draw(BATCH["abort"]),
        draw(BATCH["num_events"]),
    )
    return build_op_tasks(
        tpg, outcome, COSTS, worker_of,
        explore_per_dep=COSTS.explore_dependency,
    )


_PRELOAD = st.lists(
    st.tuples(_SECONDS, st.lists(st.tuples(_BUCKETS, _SECONDS), max_size=2)),
    min_size=NUM_WORKERS,
    max_size=NUM_WORKERS,
)


def _machine(preload) -> Machine:
    """Cores that already hold non-zero clocks and buckets."""
    machine = Machine(NUM_WORKERS)
    for core, (clock, spent) in zip(machine.cores, preload):
        core.clock = clock
        for bucket, seconds in spent:
            core.buckets[bucket] = core.buckets.get(bucket, 0.0) + seconds
    return machine


def _machine_state(machine: Machine):
    return [(core.clock, list(core.buckets.items())) for core in machine.cores]


def _result_state(result):
    return (
        result.finish,
        result.makespan,
        result.cross_worker_edges,
        result.tasks_run,
        result.lost,
        result.wasted_seconds,
        result.dead_workers,
    )


#: (worker, kind, instant as a fraction of the fault-free makespan,
#: slowdown): at least one fault, 0.0 = dead or slow from the start.
_FAULTS = st.lists(
    st.tuples(
        st.integers(0, NUM_WORKERS - 1),
        st.sampled_from(["die", "straggle"]),
        st.sampled_from([0.0, 0.1, 0.37, 0.5, 0.81, 1.0]),
        st.sampled_from([1.0, 1.7, 4.0]),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda fault: fault[:2],
)


def _plan(faults, tasks, preload, remote_cost) -> WorkerFaultPlan:
    """Die early / mid-task / straggle, placed inside the schedule."""
    makespan = (
        ReferenceScheduler(_machine(preload), COSTS.sync_handoff, remote_cost)
        .run(tasks)
        .makespan
    )
    return WorkerFaultPlan(
        [
            WorkerFault(worker, kind, fraction * makespan, slowdown)
            for worker, kind, fraction, slowdown in faults
        ],
        NUM_WORKERS,
    )


@given(
    tasks=_tasks(),
    preload=_PRELOAD,
    remote_cost=st.sampled_from([0.0, COSTS.remote_fetch]),
)
@settings(max_examples=150, deadline=None)
def test_schedule_matches_the_oracle(tasks, preload, remote_cost):
    live_machine, frozen_machine = _machine(preload), _machine(preload)
    live = ParallelExecutor(live_machine, COSTS.sync_handoff, remote_cost)
    frozen = ReferenceScheduler(frozen_machine, COSTS.sync_handoff, remote_cost)
    assert _result_state(live.run(tasks)) == _result_state(frozen.run(tasks))
    assert _machine_state(live_machine) == _machine_state(frozen_machine)
    # Runs compose into one phase: a second batch on the same clocks.
    again = [t._replace(uid=t.uid + 10_000, deps=()) for t in tasks]
    assert _result_state(live.run(again)) == _result_state(frozen.run(again))
    assert _machine_state(live_machine) == _machine_state(frozen_machine)


@given(
    tasks=_tasks(),
    preload=_PRELOAD,
    faults=_FAULTS,
    remote_cost=st.sampled_from([0.0, COSTS.remote_fetch]),
)
@settings(max_examples=150, deadline=None)
def test_schedule_under_worker_faults_matches_the_oracle(
    tasks, preload, faults, remote_cost
):
    live_machine, frozen_machine = _machine(preload), _machine(preload)
    live = ParallelExecutor(
        live_machine, COSTS.sync_handoff, remote_cost,
        fault_plan=_plan(faults, tasks, preload, remote_cost),
    )
    frozen = ReferenceScheduler(
        frozen_machine, COSTS.sync_handoff, remote_cost,
        fault_plan=_plan(faults, tasks, preload, remote_cost),
    )
    assert _result_state(live.run(tasks)) == _result_state(frozen.run(tasks))
    assert _machine_state(live_machine) == _machine_state(frozen_machine)


class ReferenceResilient(ResilientExecutor):
    """The live retry/re-assignment driver over the frozen loop."""

    _remote_bucket = "explore"
    _stretched = ReferenceScheduler._stretched

    def _run_tasks(self, tasks, finish, workers, result):
        return ReferenceScheduler._run_tasks(
            self, tasks, finish, workers, result, WAIT
        )


@given(
    tasks=_tasks(),
    preload=_PRELOAD,
    faults=_FAULTS,
    remote_cost=st.sampled_from([0.0, COSTS.remote_fetch]),
)
@settings(max_examples=150, deadline=None)
def test_resilient_schedule_matches_the_oracle(
    tasks, preload, faults, remote_cost
):
    machines, executors, outcomes = [], [], []
    for cls in (ResilientExecutor, ReferenceResilient):
        machine = _machine(preload)
        executor = cls(
            machine, COSTS.sync_handoff, remote_cost,
            fault_plan=_plan(faults, tasks, preload, remote_cost),
        )
        try:
            outcomes.append(_result_state(executor.run(tasks)))
        except ReassignmentError as exc:
            outcomes.append(str(exc))
        machines.append(machine)
        executors.append(executor)
    assert outcomes[0] == outcomes[1]
    assert executors[0].stats == executors[1].stats
    assert _machine_state(machines[0]) == _machine_state(machines[1])


# ----------------------------------------------------------------------
# (c) spend_parallel
# ----------------------------------------------------------------------


@given(
    # 0 … 3k+1 items: every remainder around three multiples of k.
    items=st.lists(
        st.floats(0.0, 1e-3, allow_nan=False),
        max_size=3 * NUM_WORKERS + 1,
    ),
    preload=_PRELOAD,
    bucket=_BUCKETS,
)
@settings(max_examples=300, deadline=None)
def test_spend_parallel_matches_the_oracle(items, preload, bucket):
    live, frozen = _machine(preload), _machine(preload)
    live.spend_parallel(bucket, iter(items))
    reference_spend_parallel(frozen, bucket, iter(items))
    assert _machine_state(live) == _machine_state(frozen)


@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 1533, 5600])
def test_spend_parallel_of_equal_items_is_a_running_sum(count):
    """The epoch pipeline's shape: ``[cost] * n``.  ``n * cost`` would
    round differently; the strided sum must not."""
    live, frozen = Machine(8), Machine(8)
    for machine in (live, frozen):
        machine.spend_all("execute", 0.1)
    live.spend_parallel("construct", [COSTS.construct_edge] * count)
    reference_spend_parallel(
        frozen, "construct", (COSTS.construct_edge for _ in range(count))
    )
    assert _machine_state(live) == _machine_state(frozen)
