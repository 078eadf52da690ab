"""List-scheduling simulation of a task DAG on the virtual machine.

This is the timing primitive shared by every scheme: normal transaction
processing, CKPT re-processing, DL/LV dependency-constrained replay and
MorphStreamR chain execution all reduce to *run this DAG of costed tasks
with this worker assignment*.

Semantics (classic in-order list scheduling):

- every task is pinned to one worker (core);
- each worker executes its tasks in the order they appear in the input
  sequence (which must be a topological order of the DAG);
- a task starts at ``max(worker ready time, max over dependencies of
  dependency finish time + handoff)`` where ``handoff`` is the
  cross-core synchronization cost if the dependency ran on a different
  worker (intra-worker dependencies are free — this is precisely the
  lock-contention-free property MorphStreamR's restructuring buys);
- the gap a worker spends blocked is charged to the ``wait`` bucket.

The executor verifies topological order and raises
:class:`~repro.errors.SchedulingError` on a forward reference, so an
incorrectly restructured schedule fails loudly instead of producing a
bogus timing.

Worker faults
-------------

Recovery's own machinery can fail: a :class:`WorkerFault` declares that
a worker **dies** at a simulated instant (tasks it had not finished are
*lost*, partial execution is wasted) or **straggles** (its work after
the instant is slowed by a factor).  :class:`ParallelExecutor` honours a
:class:`WorkerFaultPlan` by reporting lost tasks instead of silently
dropping them; :class:`ResilientExecutor` additionally *responds*: it
groups the lost tasks by chain, LPT-places them onto the surviving
workers (:func:`~repro.core.assignment.lpt_assign` over the survivors)
in one round and charges a detection/backoff penalty for it.  Survivors never die,
so one round always finishes the schedule; it fails loudly with
:class:`~repro.errors.ReassignmentError` only when no worker survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro import buckets
from repro.errors import ConfigError, ReassignmentError, SchedulingError
from repro.sim.clock import WAIT, Machine, invalid_duration

#: Worker fault kinds.
WORKER_FAULT_KINDS = ("die", "straggle")


class SimTask(NamedTuple):
    """One costed unit of work pinned to a worker.

    ``deps`` lists uids of tasks that must finish before this one starts.
    ``bucket`` is the accounting bucket the task's own cost is charged to
    (its blocked time always goes to ``wait``).  ``extra`` holds
    additional ``(bucket, seconds)`` components spent by the same worker
    immediately after the main cost — e.g. the per-operation dependency
    exploration a scheduler performs, which Fig. 11 reports separately
    from execution.  ``group`` optionally tags the chain/bundle the task
    belongs to: when a worker dies, re-assignment moves whole groups so
    chain order (and the intra-worker zero-sync property) is preserved.

    A ``NamedTuple`` because an epoch builds one per operation: hot
    producers construct it positionally and the scheduling loop unpacks
    it once per task.
    """

    uid: int
    worker: int
    cost: float
    deps: Tuple[int, ...] = ()
    bucket: str = "execute"
    extra: Tuple[Tuple[str, float], ...] = ()
    group: Optional[int] = None

    @property
    def total_cost(self) -> float:
        return self.cost + sum(seconds for _b, seconds in self.extra)


@dataclass(frozen=True)
class WorkerFault:
    """One failure event of a recovery worker.

    ``kind`` is ``die`` (the worker stops at ``at_seconds`` of simulated
    time; anything unfinished is lost) or ``straggle`` (work performed
    at or after ``at_seconds`` runs ``slowdown`` times slower).
    """

    worker: int
    kind: str
    at_seconds: float = 0.0
    slowdown: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise ConfigError(f"unknown worker fault kind {self.kind!r}")
        if self.worker < 0:
            raise ConfigError("worker id must be >= 0")
        if self.at_seconds < 0:
            raise ConfigError("at_seconds must be >= 0")
        if self.kind == "straggle" and self.slowdown < 1.0:
            raise ConfigError("slowdown must be >= 1")

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe record of this fault (check repro files, reports)."""
        return {
            "worker": self.worker,
            "kind": self.kind,
            "at_seconds": self.at_seconds,
            "slowdown": self.slowdown,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "WorkerFault":
        """Rebuild from :meth:`to_payload` output.

        Tolerates unknown fields (schema-evolution convention shared
        with the harness JSON formats); missing optional fields take
        the dataclass defaults, and validation reruns in
        ``__post_init__``.
        """
        if not isinstance(payload, dict):
            raise ConfigError(f"worker fault payload must be a dict: {payload!r}")
        try:
            return cls(
                worker=int(payload["worker"]),  # type: ignore[call-overload]
                kind=str(payload["kind"]),
                at_seconds=float(payload.get("at_seconds", 0.0)),  # type: ignore[arg-type]
                slowdown=float(payload.get("slowdown", 2.0)),  # type: ignore[arg-type]
            )
        except KeyError as exc:
            raise ConfigError(f"worker fault payload missing field {exc}")


class WorkerFaultPlan:
    """The worker faults of one recovery run, validated against a machine.

    At most one death and one straggle per worker.  The plan is static —
    a worker is dead for any task that would start at or after its death
    instant — but the plan records which deaths were actually *observed*
    (affected at least one task) for reporting.
    """

    def __init__(self, faults: Sequence[WorkerFault], num_workers: int):
        self._death: Dict[int, float] = {}
        self._straggle: Dict[int, Tuple[float, float]] = {}
        for fault in faults:
            if fault.worker >= num_workers:
                raise ConfigError(
                    f"worker fault targets worker {fault.worker}, "
                    f"machine has {num_workers} workers"
                )
            if fault.kind == "die":
                if fault.worker in self._death:
                    raise ConfigError(
                        f"worker {fault.worker} already has a death scheduled"
                    )
                self._death[fault.worker] = fault.at_seconds
            else:
                if fault.worker in self._straggle:
                    raise ConfigError(
                        f"worker {fault.worker} already has a straggle "
                        "scheduled"
                    )
                self._straggle[fault.worker] = (
                    fault.at_seconds,
                    fault.slowdown,
                )
        self.observed_deaths: Set[int] = set()

    def death_of(self, worker: int) -> Optional[float]:
        return self._death.get(worker)

    def straggle_of(self, worker: int) -> Optional[Tuple[float, float]]:
        return self._straggle.get(worker)


@dataclass
class ScheduleResult:
    """Finish times and derived statistics of one simulated schedule."""

    finish: Dict[int, float] = field(default_factory=dict)
    makespan: float = 0.0
    cross_worker_edges: int = 0
    tasks_run: int = 0
    #: tasks a dead worker never finished (in input order); empty unless
    #: a :class:`WorkerFaultPlan` was in force.
    lost: List[SimTask] = field(default_factory=list)
    #: partial execution burned on tasks that died mid-flight.
    wasted_seconds: float = 0.0
    #: workers whose death affected at least one task.
    dead_workers: Tuple[int, ...] = ()


@dataclass
class ReassignStats:
    """What :class:`ResilientExecutor` had to do about worker faults."""

    rounds: int = 0
    tasks_reassigned: int = 0


class ParallelExecutor:
    """Simulates in-order list scheduling of :class:`SimTask` sequences.

    Two costs attach to a cross-worker dependency edge: ``sync_cost`` is
    *latency* (the producer's result becomes visible to the consumer
    that much later), while ``remote_cost`` is *CPU burned by the
    consumer* to resolve the remote dependency (coherence misses, queue
    operations, notification handling) — charged to the ``explore``
    bucket even when the producer finished long ago.  Intra-worker
    dependencies cost nothing, which is the property MorphStreamR's
    restructuring exploits.

    With a ``fault_plan``, a dying worker's unfinished tasks (and any
    task depending on them, transitively) are reported in
    ``ScheduleResult.lost`` rather than executed; the caller decides how
    to respond (see :class:`ResilientExecutor`).
    """

    def __init__(
        self,
        machine: Machine,
        sync_cost: float,
        remote_cost: float = 0.0,
        fault_plan: Optional[WorkerFaultPlan] = None,
    ):
        self._machine = machine
        self._sync_cost = sync_cost
        self._remote_cost = remote_cost
        self._fault_plan = fault_plan

    def run(self, tasks: Sequence[SimTask]) -> ScheduleResult:
        """Simulate ``tasks`` (a topological order) and return finish times.

        Tasks pinned to the same worker run in the given order; tasks on
        different workers overlap subject to their dependencies.  Worker
        clocks are *not* reset, so several ``run`` calls compose into one
        phase; call :meth:`Machine.reset` between phases instead.
        """
        result = ScheduleResult()
        workers: Dict[int, int] = {}
        self._run_tasks(tasks, result.finish, workers, result)
        result.makespan = self._machine.elapsed()
        if self._fault_plan is not None:
            result.dead_workers = tuple(
                sorted(self._fault_plan.observed_deaths)
            )
        return result

    def _stretched(self, worker: int, start: float, seconds: float) -> float:
        """Wall seconds a span takes on ``worker`` starting at ``start``
        under the fault plan's straggle, if it has one."""
        straggle = self._fault_plan.straggle_of(worker)
        if straggle is None:
            return seconds
        at, factor = straggle
        if start >= at:
            return seconds * factor
        if start + seconds <= at:
            return seconds
        return (at - start) + (start + seconds - at) * factor

    def _run_tasks(
        self,
        tasks: Sequence[SimTask],
        finish: Dict[int, float],
        workers: Dict[int, int],
        result: ScheduleResult,
    ) -> List[SimTask]:
        """Core scheduling loop; appends lost tasks to ``result.lost``
        (and returns them) instead of executing them.

        The loop runs once per operation of every epoch, so it reads
        each task's fields and the executor's settings into locals and
        charges spans on the core directly — the additions, their
        operands and their order are exactly those of
        :meth:`Core.advance_to` and :meth:`Core.spend`.  All fault-plan
        work sits behind ``plan is not None``.
        """
        cores = self._machine.cores
        num_cores = len(cores)
        plan = self._fault_plan
        sync_cost = self._sync_cost
        remote_cost = self._remote_cost
        wait = WAIT
        explore = buckets.EXPLORE
        lost = result.lost
        lost_uids = {task.uid for task in lost}
        newly_lost: List[SimTask] = []
        cross_worker_edges = 0
        tasks_run = 0
        death_at = None
        for task in tasks:
            uid, worker, cost, deps, bucket, extra, _group = task
            if worker < 0 or worker >= num_cores:
                raise SchedulingError(
                    f"task {uid} pinned to worker {worker}, "
                    f"machine has {num_cores} cores"
                )
            if uid in finish:
                raise SchedulingError(f"duplicate task uid {uid}")
            ready = 0.0
            remote_deps = 0
            dep_lost = False
            for dep in deps:
                if dep in lost_uids:
                    # Cascade: the producer was lost with its worker, so
                    # this task cannot run either — it is re-assigned
                    # together with the producer.
                    dep_lost = True
                    continue
                if dep not in finish:
                    raise SchedulingError(
                        f"task {uid} depends on {dep} which has not "
                        "run yet (input is not a topological order)"
                    )
                dep_done = finish[dep]
                if workers[dep] != worker:
                    dep_done += sync_cost
                    remote_deps += 1
                    cross_worker_edges += 1
                if dep_done > ready:
                    ready = dep_done
            if dep_lost:
                lost_uids.add(uid)
                newly_lost.append(task)
                lost.append(task)
                continue
            core = cores[worker]
            clock = core.clock
            start = ready if ready > clock else clock
            if plan is not None:
                death_at = plan.death_of(worker)
                if death_at is not None and start >= death_at:
                    # The worker is dead before the task could begin.
                    plan.observed_deaths.add(worker)
                    lost_uids.add(uid)
                    newly_lost.append(task)
                    lost.append(task)
                    continue
            charged = core.buckets
            if ready > clock:
                gap = ready - clock
                clock += gap
                charged[wait] = charged.get(wait, 0.0) + gap
            spans = ((bucket, cost),) + extra
            if remote_deps and remote_cost:
                spans = ((explore, remote_deps * remote_cost),) + spans
            for span_bucket, seconds in spans:
                if plan is not None:
                    seconds = self._stretched(worker, clock, seconds)
                    if death_at is not None and clock + seconds > death_at:
                        # The worker dies mid-task: the partial execution
                        # is real CPU burned but the task must be
                        # re-executed elsewhere — it counts as wasted work.
                        burned = death_at - clock
                        if burned > 0:
                            clock += burned
                            charged[span_bucket] = (
                                charged.get(span_bucket, 0.0) + burned
                            )
                        plan.observed_deaths.add(worker)
                        result.wasted_seconds += death_at - start
                        lost_uids.add(uid)
                        newly_lost.append(task)
                        lost.append(task)
                        break
                if not seconds >= 0.0:
                    raise invalid_duration(worker, span_bucket, seconds)
                clock += seconds
                charged[span_bucket] = charged.get(span_bucket, 0.0) + seconds
            else:
                finish[uid] = clock
                workers[uid] = worker
                tasks_run += 1
            core.clock = clock
        result.cross_worker_edges += cross_worker_edges
        result.tasks_run += tasks_run
        return newly_lost


class ResilientExecutor(ParallelExecutor):
    """Fault-aware executor that re-assigns lost work to survivors.

    A :meth:`run` that loses tasks to dead workers groups them by
    ``SimTask.group`` (falling back to one group per task), LPT-places
    the groups' costs onto the surviving workers, charges every
    survivor a detection/backoff penalty of ``REASSIGN_BACKOFF`` seconds
    (doubling with each round this executor has already run) and
    executes them in one more round.  Survivors are workers with no
    death in the plan, so that round loses nothing.  When no worker
    survives, :class:`~repro.errors.ReassignmentError` is raised; the
    schedule is never silently incomplete.

    Cumulative statistics across ``run`` calls live in ``stats`` (one
    recovery phase typically issues many runs, one per replayed epoch).
    """

    #: detection + re-dispatch latency of the first re-assignment round.
    REASSIGN_BACKOFF = 1e-5

    def __init__(
        self,
        machine: Machine,
        sync_cost: float,
        remote_cost: float = 0.0,
        fault_plan: Optional[WorkerFaultPlan] = None,
    ):
        super().__init__(machine, sync_cost, remote_cost, fault_plan)
        self.stats = ReassignStats()

    def run(self, tasks: Sequence[SimTask]) -> ScheduleResult:
        result = ScheduleResult()
        workers: Dict[int, int] = {}
        lost = self._run_tasks(tasks, result.finish, workers, result)
        if lost:
            pending = self._reassigned(lost)
            self.stats.rounds += 1
            self.stats.tasks_reassigned += len(lost)
            result.lost = []
            self._run_tasks(pending, result.finish, workers, result)
        result.makespan = self._machine.elapsed()
        if self._fault_plan is not None:
            result.dead_workers = tuple(
                sorted(self._fault_plan.observed_deaths)
            )
        return result

    def _reassigned(self, lost: Sequence[SimTask]) -> List[SimTask]:
        """Re-pin lost tasks onto survivors, whole chains at a time."""
        # Deferred import: repro.core pulls in ft.base → sim.executor at
        # package-import time, so a module-level import here would cycle.
        from repro.core.assignment import lpt_assign

        plan = self._fault_plan
        machine = self._machine
        num_workers = machine.num_cores
        assert plan is not None  # tasks are only lost under a plan
        survivors = [
            w for w in range(num_workers) if plan.death_of(w) is None
        ]
        if not survivors:
            raise ReassignmentError(
                "all recovery workers are dead; nothing to re-assign onto"
            )
        # Detection + re-dispatch latency, doubling per round (exponential
        # backoff); charged on every survivor.
        backoff = self.REASSIGN_BACKOFF * (2 ** self.stats.rounds)
        for wid in survivors:
            machine.cores[wid].spend(buckets.REASSIGN, backoff)
        # Group lost tasks by chain so each chain stays on one worker
        # (preserving in-order execution and the zero-sync property).
        group_tasks: Dict[object, List[SimTask]] = {}
        group_order: List[object] = []
        for task in lost:
            key = task.group if task.group is not None else ("uid", task.uid)
            if key not in group_tasks:
                group_tasks[key] = []
                group_order.append(key)
            group_tasks[key].append(task)
        weights = [
            sum(t.total_cost for t in group_tasks[key]) for key in group_order
        ]
        positions, _loads = lpt_assign(weights, len(survivors))
        worker_of_group = {
            key: survivors[positions[i]] for i, key in enumerate(group_order)
        }
        return [
            task._replace(
                worker=worker_of_group[
                    task.group if task.group is not None else ("uid", task.uid)
                ]
            )
            for task in lost
        ]


def critical_path_length(
    tasks: Sequence[SimTask], sync_cost: float = 0.0
) -> float:
    """Length of the longest dependency path, ignoring worker limits.

    A lower bound on any schedule's makespan; tests use it to check the
    executor never beats physics.  ``sync_cost`` is charged on every edge
    (the pessimistic all-cross-worker case) when supplied.
    """
    longest: Dict[int, float] = {}
    for task in tasks:
        start = 0.0
        for dep in task.deps:
            if dep not in longest:
                raise SchedulingError(
                    f"task {task.uid} depends on unseen task {dep}"
                )
            start = max(start, longest[dep] + sync_cost)
        longest[task.uid] = start + task.total_cost
    return max(longest.values(), default=0.0)


def total_work(tasks: Iterable[SimTask]) -> float:
    """Sum of task costs: the serial execution time of the DAG."""
    return sum(task.total_cost for task in tasks)
