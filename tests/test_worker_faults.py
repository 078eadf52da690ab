"""Worker-level faults: deaths, stragglers and resilient re-assignment."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import buckets
from repro.core.assignment import lpt_assign
from repro.errors import ConfigError, ReassignmentError
from repro.sim.clock import Machine
from repro.sim.executor import (
    ParallelExecutor,
    ResilientExecutor,
    SimTask,
    WorkerFault,
    WorkerFaultPlan,
    total_work,
)


def tasks_on(worker: int, count: int, cost: float = 1.0, group=None):
    return [
        SimTask(uid=worker * 100 + i, worker=worker, cost=cost, group=group)
        for i in range(count)
    ]


class TestWorkerFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            WorkerFault(0, "explode")

    def test_negative_worker_rejected(self):
        with pytest.raises(ConfigError):
            WorkerFault(-1, "die")

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            WorkerFault(0, "die", at_seconds=-1.0)

    def test_speedup_disguised_as_straggle_rejected(self):
        with pytest.raises(ConfigError):
            WorkerFault(0, "straggle", slowdown=0.5)

    def test_plan_rejects_out_of_range_worker(self):
        with pytest.raises(ConfigError):
            WorkerFaultPlan([WorkerFault(4, "die")], num_workers=4)

    def test_plan_rejects_double_death(self):
        with pytest.raises(ConfigError):
            WorkerFaultPlan(
                [WorkerFault(0, "die"), WorkerFault(0, "die", at_seconds=1.0)],
                num_workers=2,
            )

    def test_plan_exposes_doomed_and_stragglers(self):
        plan = WorkerFaultPlan(
            [
                WorkerFault(1, "die", at_seconds=5.0),
                WorkerFault(0, "straggle", slowdown=3.0),
            ],
            num_workers=4,
        )
        # Classification, through the two lookups the executor calls.
        assert [plan.death_of(w) for w in range(4)] == [None, 5.0, None, None]
        assert [plan.straggle_of(w) for w in range(4)] == [
            (0.0, 3.0), None, None, None,
        ]


class TestDeathSemantics:
    def test_death_at_zero_loses_every_task_uncharged(self):
        machine = Machine(2)
        plan = WorkerFaultPlan(
            [WorkerFault(1, "die", at_seconds=0.0)], num_workers=2
        )
        executor = ParallelExecutor(machine, sync_cost=0.0, fault_plan=plan)
        work = tasks_on(0, 2) + tasks_on(1, 3)
        result = executor.run(work)
        assert [t.uid for t in result.lost] == [100, 101, 102]
        assert result.tasks_run == 2
        assert result.wasted_seconds == 0.0
        assert result.dead_workers == (1,)
        # The dead worker burned nothing: makespan is worker 0's alone.
        assert machine.elapsed() == pytest.approx(2.0)

    def test_mid_task_death_charges_partial_work_as_wasted(self):
        machine = Machine(1)
        plan = WorkerFaultPlan(
            [WorkerFault(0, "die", at_seconds=1.5)], num_workers=1
        )
        executor = ParallelExecutor(machine, sync_cost=0.0, fault_plan=plan)
        result = executor.run(tasks_on(0, 2, cost=1.0))
        # Task 1 finishes at 1.0; task 2 dies at 1.5, half-done.
        assert result.tasks_run == 1
        assert [t.uid for t in result.lost] == [1]
        assert result.wasted_seconds == pytest.approx(0.5)
        assert machine.cores[0].clock == pytest.approx(1.5)

    def test_lost_dependency_cascades_without_error(self):
        machine = Machine(2)
        plan = WorkerFaultPlan(
            [WorkerFault(0, "die", at_seconds=0.0)], num_workers=2
        )
        executor = ParallelExecutor(machine, sync_cost=0.0, fault_plan=plan)
        producer = SimTask(uid=1, worker=0, cost=1.0)
        consumer = SimTask(uid=2, worker=1, cost=1.0, deps=(1,))
        result = executor.run([producer, consumer])
        # The consumer never ran — its producer died with worker 0 — and
        # the executor reports it lost instead of raising.
        assert [t.uid for t in result.lost] == [1, 2]
        assert result.tasks_run == 0

    def test_unobserved_death_reports_no_dead_worker(self):
        machine = Machine(2)
        plan = WorkerFaultPlan(
            [WorkerFault(1, "die", at_seconds=100.0)], num_workers=2
        )
        executor = ParallelExecutor(machine, sync_cost=0.0, fault_plan=plan)
        result = executor.run(tasks_on(0, 2) + tasks_on(1, 2))
        assert result.lost == []
        assert result.dead_workers == ()


class TestStraggleSemantics:
    def test_straggler_stretches_work_after_onset(self):
        machine = Machine(1)
        plan = WorkerFaultPlan(
            [WorkerFault(0, "straggle", at_seconds=0.0, slowdown=3.0)],
            num_workers=1,
        )
        executor = ParallelExecutor(machine, sync_cost=0.0, fault_plan=plan)
        executor.run(tasks_on(0, 2, cost=1.0))
        assert machine.cores[0].clock == pytest.approx(6.0)

    def test_span_straddling_onset_stretches_only_the_tail(self):
        machine = Machine(1)
        plan = WorkerFaultPlan(
            [WorkerFault(0, "straggle", at_seconds=0.5, slowdown=4.0)],
            num_workers=1,
        )
        executor = ParallelExecutor(machine, sync_cost=0.0, fault_plan=plan)
        executor.run(tasks_on(0, 1, cost=1.0))
        # 0.5s at full speed, the remaining 0.5s at quarter speed.
        assert machine.cores[0].clock == pytest.approx(0.5 + 0.5 * 4.0)

    def test_straggler_loses_nothing(self):
        machine = Machine(2)
        plan = WorkerFaultPlan(
            [WorkerFault(1, "straggle", slowdown=8.0)], num_workers=2
        )
        executor = ParallelExecutor(machine, sync_cost=0.0, fault_plan=plan)
        result = executor.run(tasks_on(0, 2) + tasks_on(1, 2))
        assert result.lost == []
        assert result.tasks_run == 4


class TestResilientExecutor:
    def test_reassigns_lost_tasks_to_survivors(self):
        machine = Machine(3)
        plan = WorkerFaultPlan(
            [WorkerFault(2, "die", at_seconds=0.0)], num_workers=3
        )
        executor = ResilientExecutor(machine, sync_cost=0.0, fault_plan=plan)
        work = tasks_on(0, 1) + tasks_on(1, 1) + tasks_on(2, 4)
        result = executor.run(work)
        assert result.tasks_run == 6
        assert result.lost == []
        assert result.dead_workers == (2,)
        assert executor.stats.rounds == 1
        assert executor.stats.tasks_reassigned == 4
        # The dead worker's core never advanced.
        assert machine.cores[2].clock == 0.0

    def test_chains_move_whole_groups(self):
        machine = Machine(3)
        plan = WorkerFaultPlan(
            [WorkerFault(0, "die", at_seconds=0.0)], num_workers=3
        )
        executor = ResilientExecutor(machine, sync_cost=0.0, fault_plan=plan)
        chain_a = [
            SimTask(uid=i, worker=0, cost=1.0, group=7,
                    deps=(i - 1,) if i else ())
            for i in range(3)
        ]
        result = executor.run(chain_a)
        assert result.tasks_run == 3
        # The whole chain landed on one survivor.
        executed = sorted(
            core.buckets.get(buckets.EXECUTE, 0.0) for core in machine.cores
        )
        assert executed == [0.0, 0.0, 3.0]
        # An intra-chain dependency stayed intra-worker after the move.
        assert result.cross_worker_edges == 0

    def test_backoff_charged_to_reassign_bucket(self):
        machine = Machine(2)
        plan = WorkerFaultPlan(
            [WorkerFault(1, "die", at_seconds=0.0)], num_workers=2
        )
        executor = ResilientExecutor(machine, sync_cost=0.0, fault_plan=plan)
        executor.run(tasks_on(1, 2))
        assert machine.cores[0].buckets.get(buckets.REASSIGN, 0.0) == (
            pytest.approx(ResilientExecutor.REASSIGN_BACKOFF)
        )

    def test_every_worker_doomed_fails_loudly(self):
        # Both workers run until they die: no worker is left without a
        # death to re-assign the lost work onto.
        machine = Machine(2)
        plan = WorkerFaultPlan(
            [
                WorkerFault(0, "die", at_seconds=0.5),
                WorkerFault(1, "die", at_seconds=0.5),
            ],
            num_workers=2,
        )
        executor = ResilientExecutor(machine, sync_cost=0.0, fault_plan=plan)
        with pytest.raises(ReassignmentError, match="all recovery workers"):
            executor.run(tasks_on(0, 3, cost=1.0))

    def test_no_survivors_fails_loudly(self):
        machine = Machine(1)
        plan = WorkerFaultPlan(
            [WorkerFault(0, "die", at_seconds=0.5)], num_workers=1
        )
        executor = ResilientExecutor(machine, sync_cost=0.0, fault_plan=plan)
        with pytest.raises(ReassignmentError):
            executor.run(tasks_on(0, 2, cost=1.0))

    def test_faultless_run_matches_plain_executor(self):
        work = tasks_on(0, 3) + tasks_on(1, 2)
        plain = Machine(2)
        ParallelExecutor(plain, sync_cost=0.0).run(work)
        resilient = Machine(2)
        ResilientExecutor(resilient, sync_cost=0.0).run(work)
        assert resilient.elapsed() == plain.elapsed()

    def test_all_work_conserved_after_reassignment(self):
        machine = Machine(4)
        plan = WorkerFaultPlan(
            [WorkerFault(3, "die", at_seconds=0.0)], num_workers=4
        )
        executor = ResilientExecutor(machine, sync_cost=0.0, fault_plan=plan)
        work = [
            SimTask(uid=i, worker=i % 4, cost=0.5, group=i % 8)
            for i in range(32)
        ]
        result = executor.run(work)
        assert result.tasks_run == 32
        total = sum(
            sum(core.buckets.values()) for core in machine.cores
        )
        # Every task ran once; the three survivors each paid one backoff.
        backoff = 3 * ResilientExecutor.REASSIGN_BACKOFF
        assert total == pytest.approx(total_work(work) + backoff)


class _PlacementRecorder(ResilientExecutor):
    """Keeps the run's uid -> worker map, the one the executor fills in."""

    def _run_tasks(self, tasks, finish, workers, result):
        self.placed = workers
        return super()._run_tasks(tasks, finish, workers, result)


@given(
    chains=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.lists(
                st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=4
            ),
            st.booleans(),
        ),
        max_size=12,
    ),
    workers=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_property_reassign_after_any_deaths_keeps_lpt_guarantee(
    chains, workers, data
):
    """Kill any proper subset of workers at t=0: every task runs exactly
    once, none on the dead, each chain on one worker, and the lost chains
    are placed by LPT over the survivors alone."""
    dead = data.draw(
        st.sets(st.integers(0, workers - 1), max_size=workers - 1),
        label="dead_workers",
    )
    survivors = [w for w in range(workers) if w not in dead]
    tasks, groups = [], []
    for key, (home, costs, grouped) in enumerate(chains):
        home %= workers
        uids = []
        for cost in costs:
            uid = len(tasks)
            tasks.append(
                SimTask(
                    uid=uid,
                    worker=home,
                    cost=cost,
                    deps=(uids[-1],) if uids else (),
                    group=key if grouped else None,
                )
            )
            uids.append(uid)
        # An ungrouped chain moves task by task; its dependencies stay
        # satisfied because the tasks run in input order.
        groups.extend([uids] if grouped else [[u] for u in uids])
    plan = WorkerFaultPlan(
        [WorkerFault(w, "die", at_seconds=0.0) for w in sorted(dead)],
        num_workers=workers,
    )
    executor = _PlacementRecorder(
        Machine(workers), sync_cost=0.0, fault_plan=plan
    )
    result = executor.run(tasks)

    assert result.lost == []
    assert result.tasks_run == len(tasks)
    assert sorted(result.finish) == [t.uid for t in tasks]
    placed = executor.placed
    assert not {placed[t.uid] for t in tasks} & dead
    for uids in groups:
        assert len({placed[u] for u in uids}) == 1
    lost = [uids for uids in groups if tasks[uids[0]].worker in dead]
    positions, _loads = lpt_assign(
        [sum(tasks[u].cost for u in uids) for uids in lost], len(survivors)
    )
    assert [placed[uids[0]] for uids in lost] == [
        survivors[p] for p in positions
    ]
