"""Virtual-time simulator: clocks, cost model, list-scheduling executor."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, SchedulingError
from repro.sim.clock import Core, Machine
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.executor import (
    ParallelExecutor,
    SimTask,
    critical_path_length,
    total_work,
)


class TestCore:
    def test_spend_advances_clock(self):
        core = Core(0)
        assert core.spend("execute", 1.5) == 1.5
        assert core.spend("execute", 0.5) == 2.0
        assert core.spent("execute") == 2.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigError):
            Core(0).spend("execute", -1.0)

    def test_nan_duration_rejected_not_absorbed(self):
        # ``nan < 0`` is false: a guard written that way round lets the
        # clock become NaN, and ``elapsed()`` is NaN from then on.
        core = Core(0)
        with pytest.raises(ConfigError):
            core.spend("execute", float("nan"))
        assert core.clock == 0.0 and core.buckets == {}

    def test_advance_to_charges_gap_to_wait(self):
        core = Core(0)
        core.spend("execute", 1.0)
        core.advance_to(3.0, "wait")
        assert core.clock == 3.0
        assert core.spent("wait") == 2.0

    def test_advance_to_past_time_is_noop(self):
        core = Core(0)
        core.spend("execute", 2.0)
        core.advance_to(1.0)
        assert core.clock == 2.0
        assert core.spent("wait") == 0.0


class TestMachine:
    def test_requires_at_least_one_core(self):
        with pytest.raises(ConfigError):
            Machine(0)

    def test_elapsed_is_max_clock(self):
        machine = Machine(3)
        machine.cores[1].spend("execute", 5.0)
        assert machine.elapsed() == 5.0

    def test_barrier_aligns_and_charges_wait(self):
        machine = Machine(2)
        machine.cores[0].spend("execute", 4.0)
        machine.barrier()
        assert machine.cores[1].clock == 4.0
        assert machine.cores[1].spent("wait") == 4.0
        assert machine.cores[0].spent("wait") == 0.0

    def test_barrier_extra_charged_on_all_cores(self):
        machine = Machine(2)
        machine.barrier("sync", extra=0.5)
        assert all(c.spent("sync") == 0.5 for c in machine.cores)
        assert machine.elapsed() == 0.5

    def test_spend_parallel_distributes_round_robin(self):
        machine = Machine(2)
        machine.spend_parallel("execute", [1.0, 1.0, 1.0])
        assert machine.cores[0].clock == 2.0
        assert machine.cores[1].clock == 1.0

    def test_spend_parallel_keeps_the_guard_of_spend(self):
        for bad in (-1.0, float("nan")):
            with pytest.raises(ConfigError):
                Machine(2).spend_parallel("execute", [1.0, 1.0, bad])

    def test_spend_parallel_leaves_idle_cores_untouched(self):
        machine = Machine(4)
        machine.spend_parallel("execute", iter([1.0, 2.0]))
        assert [c.clock for c in machine.cores] == [1.0, 2.0, 0.0, 0.0]
        assert [c.buckets for c in machine.cores[2:]] == [{}, {}]

    def test_bucket_breakdown_averages_across_cores(self):
        machine = Machine(4)
        machine.spend_all("io", 2.0)
        assert machine.bucket_breakdown()["io"] == pytest.approx(2.0)
        assert machine.bucket_totals()["io"] == pytest.approx(8.0)

    def test_reset_clears_everything(self):
        machine = Machine(2)
        machine.spend_all("execute", 1.0)
        machine.reset()
        assert machine.elapsed() == 0.0
        assert machine.bucket_totals() == {}


class TestCostModel:
    def test_defaults_are_nonnegative(self):
        for name, value in DEFAULT_COSTS.__dict__.items():
            assert value >= 0, name

    def test_io_overlap_validated(self):
        with pytest.raises(ConfigError):
            CostModel(io_overlap=1.5)
        with pytest.raises(ConfigError):
            CostModel(io_overlap=-0.1)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigError):
            CostModel(udf=-1e-6)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_cost_and_scale_rejected(self, bad):
        with pytest.raises(ConfigError):
            CostModel(udf=bad)
        with pytest.raises(ConfigError):
            DEFAULT_COSTS.scaled(bad)

    def test_scaled_multiplies_durations_not_overlap(self):
        scaled = DEFAULT_COSTS.scaled(2.0)
        assert scaled.udf == pytest.approx(DEFAULT_COSTS.udf * 2)
        assert scaled.io_overlap == DEFAULT_COSTS.io_overlap

    def test_scaled_rejects_nonpositive_factor(self):
        with pytest.raises(ConfigError):
            DEFAULT_COSTS.scaled(0.0)


class TestParallelExecutor:
    def _machine(self, cores=2):
        machine = Machine(cores)
        return machine, ParallelExecutor(machine, sync_cost=1.0)

    def test_independent_tasks_overlap(self):
        machine, executor = self._machine()
        result = executor.run(
            [SimTask(1, 0, 5.0), SimTask(2, 1, 3.0)]
        )
        assert result.makespan == 5.0
        assert result.finish == {1: 5.0, 2: 3.0}

    def test_same_worker_serializes(self):
        machine, executor = self._machine()
        result = executor.run([SimTask(1, 0, 2.0), SimTask(2, 0, 2.0)])
        assert result.makespan == 4.0

    def test_cross_worker_dependency_adds_sync(self):
        machine, executor = self._machine()
        result = executor.run(
            [SimTask(1, 0, 2.0), SimTask(2, 1, 1.0, deps=(1,))]
        )
        # Task 2 starts at 2.0 + sync(1.0), finishes at 4.0.
        assert result.finish[2] == pytest.approx(4.0)
        assert result.cross_worker_edges == 1
        assert machine.cores[1].spent("wait") == pytest.approx(3.0)

    def test_same_worker_dependency_is_free(self):
        machine, executor = self._machine()
        result = executor.run(
            [SimTask(1, 0, 2.0), SimTask(2, 0, 1.0, deps=(1,))]
        )
        assert result.finish[2] == pytest.approx(3.0)
        assert result.cross_worker_edges == 0

    def test_remote_cost_charged_per_cross_edge(self):
        machine = Machine(2)
        executor = ParallelExecutor(machine, sync_cost=0.0, remote_cost=0.5)
        executor.run([SimTask(1, 0, 1.0), SimTask(2, 1, 1.0, deps=(1,))])
        assert machine.cores[1].spent("explore") == pytest.approx(0.5)
        assert machine.cores[0].spent("explore") == 0.0

    def test_forward_reference_rejected(self):
        _machine, executor = self._machine()
        with pytest.raises(SchedulingError):
            executor.run([SimTask(2, 0, 1.0, deps=(1,)), SimTask(1, 0, 1.0)])

    def test_duplicate_uid_rejected(self):
        _machine, executor = self._machine()
        with pytest.raises(SchedulingError):
            executor.run([SimTask(1, 0, 1.0), SimTask(1, 0, 1.0)])

    def test_worker_out_of_range_rejected(self):
        _machine, executor = self._machine()
        with pytest.raises(SchedulingError):
            executor.run([SimTask(1, 5, 1.0)])

    def test_nan_cost_rejected_not_scheduled_around(self):
        # ``max(0.0, nan)`` is 0.0: the consumer used to start at 0 and
        # finish at 1.0, its dependency on task 0 silently ignored.
        _machine, executor = self._machine()
        nan = float("nan")
        with pytest.raises(ConfigError):
            executor.run([SimTask(0, 0, nan), SimTask(1, 1, 1.0, deps=(0,))])
        with pytest.raises(ConfigError):
            executor.run([SimTask(2, 0, 1.0, extra=(("explore", nan),))])

    def test_extra_bucket_components(self):
        machine, executor = self._machine()
        result = executor.run(
            [SimTask(1, 0, 1.0, extra=(("explore", 0.5), ("abort", 0.25)))]
        )
        assert result.finish[1] == pytest.approx(1.75)
        assert machine.cores[0].spent("explore") == pytest.approx(0.5)
        assert machine.cores[0].spent("abort") == pytest.approx(0.25)

    def test_makespan_never_beats_critical_path(self):
        tasks = [
            SimTask(1, 0, 2.0),
            SimTask(2, 1, 3.0, deps=(1,)),
            SimTask(3, 0, 1.0, deps=(2,)),
        ]
        _machine, executor = self._machine()
        result = executor.run(tasks)
        assert result.makespan >= critical_path_length(tasks)

    def test_makespan_never_beats_work_over_cores(self):
        tasks = [SimTask(i, i % 2, 1.0) for i in range(10)]
        _machine, executor = self._machine()
        result = executor.run(tasks)
        assert result.makespan >= total_work(tasks) / 2


class TestCriticalPath:
    def test_chain(self):
        tasks = [
            SimTask(1, 0, 1.0),
            SimTask(2, 0, 2.0, deps=(1,)),
            SimTask(3, 0, 3.0, deps=(2,)),
        ]
        assert critical_path_length(tasks) == pytest.approx(6.0)

    def test_sync_cost_on_edges(self):
        tasks = [SimTask(1, 0, 1.0), SimTask(2, 0, 1.0, deps=(1,))]
        assert critical_path_length(tasks, sync_cost=0.5) == pytest.approx(2.5)

    def test_empty(self):
        assert critical_path_length([]) == 0.0
        assert total_work([]) == 0.0

    def test_unseen_dependency_rejected(self):
        with pytest.raises(SchedulingError):
            critical_path_length([SimTask(2, 0, 1.0, deps=(1,))])
