"""Frozen, test-only oracle of the timing layer.

``op_cost`` + ``build_op_tasks``, ``ParallelExecutor._run_tasks`` (+
``_stretched``), ``Core.spend`` and ``Machine.spend_parallel`` exactly
as they stood before the epoch plan was made cheap (per-transaction
costs, per-chain placement, one hoisted scheduling loop, strided
``spend_parallel``).  It is never imported by ``src/``: the tests hold
the live code to ``==`` against these, floats included, which is what
"virtual time is bit-identical" means.  Do not optimise or tidy it; a
change to what the simulator charges must show up as a diff against
this file.

The functions take live ``TaskPrecedenceGraph`` / ``SimTask`` /
``Machine`` / ``Core`` / ``WorkerFaultPlan`` / ``ScheduleResult``
objects and touch only their public fields, so the oracle follows the
records wherever they go (dataclass or tuple).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError, SchedulingError
from repro.sim.clock import WAIT, Core, Machine
from repro.sim.executor import ScheduleResult, SimTask, WorkerFaultPlan


def reference_op_cost(op, tpg, outcome, costs, charge_conditions=True) -> float:
    txn = tpg.txn_by_id[op.txn_id]
    committed = txn.txn_id not in outcome.aborted
    if committed:
        seconds = costs.state_access * (1 + len(op.reads)) + costs.udf
    else:
        seconds = costs.state_access
    if charge_conditions and op.uid == tpg.validator_uid[op.txn_id]:
        num_cond_refs = len(tpg.cond_sources.get(op.txn_id, ()))
        seconds += costs.state_access * num_cond_refs
        seconds += costs.condition_check * len(txn.conditions)
    return seconds


def reference_build_op_tasks(
    tpg,
    outcome,
    costs,
    worker_of,
    bucket: str = "execute",
    include_pd: bool = True,
    include_ld: bool = True,
    charge_aborts: bool = True,
    abort_bucket: str = "abort",
    extra_cost_per_op: float = 0.0,
    explore_per_dep: float = 0.0,
    explore_bucket: str = "explore",
    extra_per_op: Tuple[Tuple[str, float], ...] = (),
) -> List[SimTask]:
    tasks: List[SimTask] = []
    for op in tpg.ops:
        deps: List[int] = []
        prev = tpg.td_prev.get(op.uid)
        if prev is not None:
            deps.append(prev)
        validator = tpg.validator_uid[op.txn_id]
        committed = op.txn_id not in outcome.aborted
        if include_pd and committed:
            for src in tpg.pd_sources.get(op.uid, ()):
                if src is not None:
                    deps.append(src)
        if include_pd and op.uid == validator:
            for _ref, src in tpg.cond_sources.get(op.txn_id, ()):
                if src is not None:
                    deps.append(src)
        if include_ld and op.uid != validator:
            deps.append(validator)
        seconds = reference_op_cost(
            op, tpg, outcome, costs, charge_conditions=include_ld
        )
        seconds += extra_cost_per_op
        unique_deps = tuple(dict.fromkeys(d for d in deps if d != op.uid))
        extra = list(extra_per_op)
        if explore_per_dep and unique_deps:
            extra.append((explore_bucket, explore_per_dep * len(unique_deps)))
        tasks.append(
            SimTask(
                uid=op.uid,
                worker=worker_of(op.ref),
                cost=seconds,
                deps=unique_deps,
                bucket=bucket,
                extra=tuple(extra),
            )
        )
    if charge_aborts and outcome.aborted:
        worker_by_uid = {t.uid: t.worker for t in tasks}
        for txn_id in sorted(outcome.aborted):
            validator = tpg.validator_uid[txn_id]
            tasks.append(
                SimTask(
                    uid=-(txn_id + 1),
                    worker=worker_by_uid[validator],
                    cost=costs.abort_transaction,
                    deps=(validator,),
                    bucket=abort_bucket,
                )
            )
    return tasks


def reference_core_spend(core: Core, bucket: str, seconds: float) -> float:
    if seconds < 0:
        raise ConfigError(
            f"core {core.core_id}: negative duration {seconds!r} for "
            f"bucket {bucket!r}"
        )
    core.clock += seconds
    core.buckets[bucket] = core.buckets.get(bucket, 0.0) + seconds
    return core.clock


def reference_core_advance_to(core: Core, target: float, bucket: str = WAIT) -> float:
    gap = target - core.clock
    if gap > 0:
        reference_core_spend(core, bucket, gap)
    return core.clock


def reference_spend_parallel(
    machine: Machine, bucket: str, work_items: Iterable[float]
) -> None:
    for i, seconds in enumerate(work_items):
        reference_core_spend(
            machine.cores[i % machine.num_cores], bucket, seconds
        )


class ReferenceScheduler:
    """The scheduling loop of ``ParallelExecutor`` as it stood."""

    def __init__(
        self,
        machine: Machine,
        sync_cost: float,
        remote_cost: float = 0.0,
        remote_bucket: str = "explore",
        fault_plan: Optional[WorkerFaultPlan] = None,
    ):
        self._machine = machine
        self._sync_cost = sync_cost
        self._remote_cost = remote_cost
        self._remote_bucket = remote_bucket
        self._fault_plan = fault_plan

    def run(self, tasks, wait_bucket: str = WAIT) -> ScheduleResult:
        result = ScheduleResult()
        workers: Dict[int, int] = {}
        self._run_tasks(tasks, result.finish, workers, result, wait_bucket)
        result.makespan = self._machine.elapsed()
        if self._fault_plan is not None:
            result.dead_workers = tuple(
                sorted(self._fault_plan.observed_deaths)
            )
        return result

    def _stretched(self, worker: int, start: float, seconds: float) -> float:
        if self._fault_plan is None:
            return seconds
        straggle = self._fault_plan.straggle_of(worker)
        if straggle is None:
            return seconds
        at, factor = straggle
        if start >= at:
            return seconds * factor
        if start + seconds <= at:
            return seconds
        return (at - start) + (start + seconds - at) * factor

    def _run_tasks(self, tasks, finish, workers, result, wait_bucket):
        machine = self._machine
        plan = self._fault_plan
        lost_uids = {task.uid for task in result.lost}
        newly_lost: List[SimTask] = []
        for task in tasks:
            if task.worker < 0 or task.worker >= machine.num_cores:
                raise SchedulingError(
                    f"task {task.uid} pinned to worker {task.worker}, "
                    f"machine has {machine.num_cores} cores"
                )
            if task.uid in finish:
                raise SchedulingError(f"duplicate task uid {task.uid}")
            ready = 0.0
            remote_deps = 0
            dep_lost = False
            for dep in task.deps:
                if dep in lost_uids:
                    dep_lost = True
                    continue
                if dep not in finish:
                    raise SchedulingError(
                        f"task {task.uid} depends on {dep} which has not "
                        "run yet (input is not a topological order)"
                    )
                dep_done = finish[dep]
                if workers[dep] != task.worker:
                    dep_done += self._sync_cost
                    remote_deps += 1
                    result.cross_worker_edges += 1
                ready = max(ready, dep_done)
            if dep_lost:
                lost_uids.add(task.uid)
                newly_lost.append(task)
                result.lost.append(task)
                continue
            core = machine.cores[task.worker]
            death_at = plan.death_of(task.worker) if plan is not None else None
            start = max(core.clock, ready)
            if death_at is not None and start >= death_at:
                plan.observed_deaths.add(task.worker)
                lost_uids.add(task.uid)
                newly_lost.append(task)
                result.lost.append(task)
                continue
            reference_core_advance_to(core, ready, wait_bucket)
            spans: List[Tuple[str, float]] = []
            if remote_deps and self._remote_cost:
                spans.append(
                    (self._remote_bucket, remote_deps * self._remote_cost)
                )
            spans.append((task.bucket, task.cost))
            spans.extend(task.extra)
            died_mid_task = False
            for bucket, seconds in spans:
                seconds = self._stretched(task.worker, core.clock, seconds)
                if death_at is not None and core.clock + seconds > death_at:
                    burned = death_at - core.clock
                    if burned > 0:
                        reference_core_spend(core, bucket, burned)
                    plan.observed_deaths.add(task.worker)
                    result.wasted_seconds += death_at - start
                    died_mid_task = True
                    break
                reference_core_spend(core, bucket, seconds)
            if died_mid_task:
                lost_uids.add(task.uid)
                newly_lost.append(task)
                result.lost.append(task)
                continue
            finish[task.uid] = core.clock
            workers[task.uid] = task.worker
            result.tasks_run += 1
        return newly_lost
