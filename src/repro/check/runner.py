"""The one fault-run driver: execute a schedule, record an observation.

:func:`run_schedule` is the only place in ``src/`` that builds a scheme
(or a sharded cluster) under a fault plan, drives it to the crash, loops
``recover()`` until it converges or fails loudly, drains the ingress
tail and compares the result with the serial ground truth.  It never
judges the outcome — it only *observes* (recovered state vs ground
truth, watermark history, ladder rungs taken, crash points crossed,
whether a degraded read kept the staleness contract) and leaves the
judging to :mod:`repro.check.invariants`, which grades both the
explorer's runs and the chaos sweep's cells (one layer up).
Everything is seeded, so the same (schedule, scenario) pair always
yields the same observation — the property replay and shrinking
depend on.

What realises a schedule lives here with the driver: the canonical
workload, where a storage fault is *placed* so that it hits a segment
recovery needs, and when a worker fault strikes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

from repro import SCHEMES
from repro.check.schedule import (
    CLUSTER_SCHEME,
    FAMILY_CRASH,
    FAMILY_KILL,
    FAMILY_RPOINT,
    FAMILY_STORAGE,
    FAMILY_WORKER,
    FaultAtom,
    Schedule,
    schedule_fingerprint,
)
from repro.cluster import (
    ClusterFault,
    ClusterRecoveryReport,
    ClusterTopology,
    ShardedCluster,
    get_placement,
)
from repro.engine.refs import StateRef
from repro.engine.verify import ground_truth, stale_read_error, verify_exact
from repro.errors import (
    ClusterDataLossError,
    ConfigError,
    InjectedCrash,
    ReassignmentError,
    ReproError,
    StorageError,
)
from repro.ft.base import FTScheme, RecoveryReport
from repro.sim.executor import WorkerFault
from repro.storage.faults import FaultInjector, FaultSpec
from repro.storage.stores import Disk
from repro.workloads.streaming_ledger import ACCOUNTS, StreamingLedger

#: Outcomes an observed run may end in.
OUTCOME_RECOVERED = "recovered"
OUTCOME_FAILED_LOUD = "failed-loud"
OUTCOME_NO_CONVERGE = "no-converge"
OUTCOME_UNEXPECTED = "unexpected-error"


@dataclass(frozen=True)
class Scenario:
    """The knobs that shape one run — fingerprinted with the schedule."""

    seed: int = 7
    num_workers: int = 4
    epoch_len: int = 32
    snapshot_interval: int = 4
    total_epochs: int = 6
    #: retained checkpoints — gives the checkpoint ladder a place to land.
    gc_keep_checkpoints: int = 2
    #: recover() re-runs allowed before a run counts as non-convergent.
    max_recovery_attempts: int = 8
    cluster_shards: int = 4
    cluster_racks: int = 2
    cluster_nodes_per_rack: int = 2
    cluster_replication: int = 1
    cluster_placement: str = "checkpoint_spread"

    def __post_init__(self) -> None:
        if self.max_recovery_attempts < 1:
            raise ConfigError("max_recovery_attempts must be >= 1")
        if self.total_epochs <= self.snapshot_interval:
            raise ConfigError(
                "total_epochs must exceed snapshot_interval so the crash "
                "loses epochs past the checkpoint"
            )
        if self.cluster_replication < 0:
            raise ConfigError("cluster_replication must be >= 0")
        get_placement(self.cluster_placement)

    @property
    def num_events(self) -> int:
        return self.epoch_len * self.total_epochs

    @property
    def kill_epoch(self) -> int:
        """Completed epochs after which a cluster schedule's kills fire."""
        return max(1, self.total_epochs // 2)


def validate_schemes(schemes: Tuple[str, ...]) -> None:
    """Refuse a sweep's scheme list unless every name is a scheme that
    can recover (NAT persists nothing, so it has no recovery to run)."""
    unknown = sorted(set(schemes) - set(SCHEMES))
    if unknown:
        raise ConfigError(f"unknown scheme(s): {', '.join(unknown)}")
    if "NAT" in schemes:
        raise ConfigError("schemes must be recoverable schemes, not 'NAT'")


@dataclass(frozen=True)
class CheckConfig:
    """One exploration: its scheme scope, seed and coverage gate.

    Every run shares ``Scenario(seed=seed)``: the run knobs live in
    :class:`Scenario` alone.
    """

    schemes: Tuple[str, ...] = ("MSR", "WAL", "PACMAN", "LVC", "CKPT", "DL", "LV")
    include_cluster: bool = True
    #: the workload and fault-injection seed (``Scenario.seed``).
    seed: int = 7
    #: fail the exploration when a registered recovery-domain crash
    #: point never fired across the whole run.
    require_coverage: bool = True

    def __post_init__(self) -> None:
        validate_schemes(self.schemes)

    @property
    def scenario(self) -> Scenario:
        return Scenario(seed=self.seed)


@dataclass
class RunObservation:
    """Everything the invariant registry judges about one run."""

    schedule: Schedule
    outcome: str = OUTCOME_UNEXPECTED
    detail: str = ""
    #: recovered state is bit-identical to the serial ground truth.
    state_exact: Optional[bool] = None
    #: delivered outputs match the ground truth exactly once.
    outputs_exact: Optional[bool] = None
    #: the report of the recover() call that converged (a scheme's, or
    #: the cluster's): every per-recovery fact (ladder rungs, attempts,
    #: replayed and wasted work) is read from it, never copied.
    report: Union[RecoveryReport, ClusterRecoveryReport, None] = None
    #: durable (crash_epoch, next_epoch) watermark writes, in order.
    watermarks: List[Tuple[Optional[int], Optional[int]]] = field(
        default_factory=list
    )
    #: verdict on the read probed while crashed: "" if it kept the
    #: staleness contract, else what it broke; None if no probe was taken
    #: or the read failed loudly (its own documented outcome).
    degraded_probe: Optional[str] = None
    #: a loud failure left recovered state installed (it must not).
    installed_after_failure: bool = False
    #: crash-point name -> times crossed (armed or not).
    points_passed: Dict[str, int] = field(default_factory=dict)
    #: the scheduled crash killed the node mid-epoch (not at a boundary).
    mid_crash: bool = False
    #: at least one scheduled fault (or cluster kill) actually fired.
    fault_fired: bool = False
    #: cluster-only observations.
    correlation_width: Optional[int] = None
    replication: Optional[int] = None
    data_loss: bool = False

    @property
    def mttr_seconds(self) -> float:
        """Virtual recovery seconds: a scheme's summed over every
        recover() attempt, a cluster's RTO; 0.0 with no report."""
        if self.report is None:
            return 0.0
        if isinstance(self.report, ClusterRecoveryReport):
            return self.report.rto_seconds
        return self.report.elapsed_total_seconds


# ---------------------------------------------------------------------------
# realising a schedule: workload, fault placement, worker-fault timing
# ---------------------------------------------------------------------------


def make_workload(accounts: int = 64) -> StreamingLedger:
    """The canonical fault-run workload.

    The chaos sweep and the explorer must stress the same mix
    (transfers, multi-partition chains, forced aborts) so a schedule
    found by ``repro check`` can be discussed in chaos-cell terms and
    vice versa.
    """
    return StreamingLedger(
        accounts,
        transfer_ratio=0.6,
        multi_partition_ratio=0.4,
        skew=0.4,
        forced_abort_ratio=0.05,
        num_partitions=4,
    )


def placed_fault_specs(schedule: Schedule, scenario: Scenario) -> List[FaultSpec]:
    """A single-scheme schedule's storage-level faults, placed so they
    hit segments recovery will need (a cluster schedule has none).

    Schemes group-commit one log segment per epoch, so the N-th log
    write is epoch N-1's segment (1-based).  Snapshot write #1 is the
    epoch ``-1`` initial checkpoint; #2 is the first interval
    checkpoint.  Placement per crash atom:

    - none (``boundary``): damage the last epoch's segment; the crash is
      an ordinary end-of-stream stoppage and recovery must replay it.
    - ``mid-commit``: damage the first post-checkpoint epoch's segment,
      then crash *inside* the next epoch's group commit (that flush is
      itself torn) — recovery discards the debris, degrades for the
      damaged epoch, and returns the sealed-but-unprocessed epoch to
      the ingress tail.
    - ``mid-checkpoint``: damage an early segment, then crash inside
      the first interval checkpoint flush — recovery must fall back to
      the initial checkpoint and replay everything.

    Recovery-point atoms become ``crash_point`` specs; the point counter
    is shared across recover() attempts, so an ``nth=2`` atom lands in
    the *resumed* run (nested failure).
    """
    if schedule.scheme == CLUSTER_SCHEME:
        return []
    streams = SCHEMES[schedule.scheme].log_streams
    stream = streams[0] if streams else None
    crash_point = next(
        (a.kind for a in schedule.atoms_of(FAMILY_CRASH)), "boundary"
    )
    specs: List[FaultSpec] = []
    if crash_point == "mid-commit":
        specs.append(
            FaultSpec(
                "crash",
                target="log",
                nth=scenario.snapshot_interval + 2,
                stream=stream,
            )
        )
    elif crash_point == "mid-checkpoint":
        specs.append(FaultSpec("crash", target="snapshot", nth=2))
    for atom in schedule.atoms_of(FAMILY_STORAGE):
        kind = "read_error" if atom.kind == "read-error" else atom.kind
        if kind == "read_error":
            nth = 1
        elif stream is None:
            # The scheme commits no log segments (CKPT): aim the damage
            # at the snapshot store instead, exercising the checkpoint
            # rung of the ladder.  Under ``mid-checkpoint`` the interval
            # checkpoint is the crash's own debris, so damaging the
            # initial one leaves no readable restore point and recovery
            # must fail loudly; otherwise damage the interval checkpoint
            # and the ladder walks back to the initial one.
            nth = 1 if crash_point == "mid-checkpoint" else 2
        elif crash_point == "boundary":
            nth = scenario.total_epochs
        elif crash_point == "mid-commit":
            nth = scenario.snapshot_interval + 1
        else:  # mid-checkpoint: an epoch replayed from the older checkpoint
            nth = 2
        specs.append(
            FaultSpec(
                kind,
                target="snapshot" if stream is None else "log",
                nth=nth,
                stream=stream,
            )
        )
    specs.extend(
        FaultSpec("crash_point", target="any", nth=atom.nth, point=atom.kind)
        for atom in schedule.atoms_of(FAMILY_RPOINT)
    )
    return specs


@lru_cache(maxsize=None)
def baseline_mttr(scheme_name: str, scenario: Scenario) -> float:
    """Failure-free recovery MTTR — the anchor of worker-fault timing."""
    return run_schedule(Schedule(scheme_name, ()), scenario).mttr_seconds


def worker_fault_plan(schedule: Schedule, scenario: Scenario) -> Tuple[WorkerFault, ...]:
    """The recovery-worker faults a schedule's worker atom stands for.

    Timing is anchored to the scheme's failure-free recovery time so
    the injected moment lands *inside* the parallel replay regardless
    of the cost model: ``die-early`` kills a worker before it runs a
    single chain, ``die-mid`` kills one roughly halfway through, and
    ``straggle`` slows one to a quarter speed from a quarter in.
    """
    atoms = schedule.atoms_of(FAMILY_WORKER)
    if not atoms:
        return ()
    mttr = baseline_mttr(schedule.scheme, scenario)
    plans = {
        "die-early": WorkerFault(1 % scenario.num_workers, "die", at_seconds=0.0),
        "die-mid": WorkerFault(0, "die", at_seconds=0.5 * mttr),
        "straggle": WorkerFault(0, "straggle", at_seconds=0.25 * mttr, slowdown=4.0),
    }
    return (plans[atoms[0].kind],)


def _build_scheme(
    schedule: Schedule, scenario: Scenario, workload, injector: FaultInjector
) -> FTScheme:
    return SCHEMES[schedule.scheme](
        workload,
        num_workers=scenario.num_workers,
        epoch_len=scenario.epoch_len,
        snapshot_interval=scenario.snapshot_interval,
        disk=Disk(faults=injector),
        gc_keep_checkpoints=scenario.gc_keep_checkpoints,
        recovery_faults=worker_fault_plan(schedule, scenario),
    )


def _build_cluster(schedule: Schedule, scenario: Scenario, workload) -> ShardedCluster:
    return ShardedCluster(
        workload,
        ClusterTopology(
            scenario.cluster_shards,
            scenario.cluster_racks,
            scenario.cluster_nodes_per_rack,
        ),
        placement=scenario.cluster_placement,
        replication=scenario.cluster_replication,
        workers_per_shard=max(1, scenario.num_workers // 2),
        epoch_len=scenario.epoch_len,
        snapshot_interval=scenario.snapshot_interval,
        gc_keep_checkpoints=scenario.gc_keep_checkpoints,
        # Every kill atom fires at the same epoch boundary: one
        # k-correlated failure event.
        kills=[
            ClusterFault(atom.kind, after_epoch=scenario.kill_epoch)
            for atom in schedule.atoms_of(FAMILY_KILL)
        ],
    )


def _probe_degraded(scheme: FTScheme, workload, events, epoch_len: int) -> Optional[str]:
    """One read while the node is down, judged by the staleness contract.

    A crashed scheme has no live state, so its answer must be stale.  A
    read that fails loudly (e.g. every checkpoint unreadable) gets no
    verdict: that is its own documented outcome.
    """
    try:
        read = scheme.degraded_read(StateRef(ACCOUNTS, 0))
    except ReproError:
        return None
    if not read.stale:
        return "degraded read not labelled stale"
    return stale_read_error(
        read,
        scheme.crash_epoch,
        lambda e: ground_truth(workload, events[: (e + 1) * epoch_len])[0],
    ) or ""


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def run_schedule(schedule: Schedule, scenario: Scenario) -> RunObservation:
    """Run one schedule to completion and observe it. Deterministic.

    A :class:`~repro.errors.ReproError` nobody documented as an outcome
    is *observed* (``unexpected-error``, a ``no-undocumented-failure``
    violation); any other exception is a bug in the code under test or
    in this driver and propagates, tagged with the schedule that
    triggered it.
    """
    obs = RunObservation(schedule=schedule)
    workload = make_workload()
    events = workload.generate(scenario.num_events, scenario.seed)
    injector = FaultInjector(placed_fault_specs(schedule, scenario), seed=scenario.seed)
    node: Union[FTScheme, ShardedCluster, None] = None
    try:
        if schedule.scheme == CLUSTER_SCHEME:
            node = _build_cluster(schedule, scenario, workload)
            obs.replication = node.replication
            obs.correlation_width = node.topology.correlation_width(
                kill.parsed() for kill in node.kills
            )
        else:
            node = _build_scheme(schedule, scenario, workload, injector)

        # -- run until the fault plan stops the node -------------------
        try:
            node.process_stream(events)
        except InjectedCrash:
            obs.mid_crash = True
        if isinstance(node, ShardedCluster):
            if not node.crashed:
                obs.detail = "scheduled kill never fired"
                return obs
            obs.fault_fired = True
        else:
            if not obs.mid_crash:
                # Either a boundary scenario, or the targeted mid-epoch
                # write never happened for this scheme (e.g. CKPT commits
                # no log segments): stop the node at the epoch boundary.
                node.crash()
            if FaultAtom(FAMILY_STORAGE, "read-error") not in schedule.atoms:
                # Probing consumes nth-counted snapshot *read* faults
                # meant for recovery, so skip the probe when one is
                # scheduled — write damage is persistent and probes
                # through it fine.
                obs.degraded_probe = _probe_degraded(node, workload, events, scenario.epoch_len)

        # -- recover until it converges or fails loudly ----------------
        for _attempt in range(scenario.max_recovery_attempts):
            try:
                report = node.recover()
                break
            except InjectedCrash:
                # A crash-during-recovery atom killed recover() itself;
                # the re-run must resume from the progress watermark.
                continue
            except ClusterDataLossError as exc:
                # The correlated kill out-ran the replication budget.
                obs.outcome = OUTCOME_FAILED_LOUD
                obs.data_loss = True
                obs.detail = (
                    f"lost shards {list(exc.lost_shards)} "
                    f"({exc.lost_events} events)"
                )
                return obs
            except (StorageError, ReassignmentError) as exc:
                # The ladder was exhausted (or no recovery worker
                # survived): recovery must fail loudly with a
                # documented error and install nothing.
                obs.outcome = OUTCOME_FAILED_LOUD
                obs.detail = f"{type(exc).__name__}: {exc}"
                obs.installed_after_failure = (
                    isinstance(node, FTScheme) and node.store is not None
                )
                return obs
        else:
            obs.outcome = OUTCOME_NO_CONVERGE
            obs.detail = (
                "recovery did not converge within "
                f"{scenario.max_recovery_attempts} attempts"
            )
            return obs
        obs.report = report

        # -- the scenario has played out: drain the ingress tail without
        # further interference, then compare with the serial run -------
        injector.disarm()
        node.process_stream([])
        if isinstance(node, ShardedCluster):
            verdict = node.verify_exact()
        else:
            verdict = verify_exact(
                node.store,
                node.sink.outputs(),
                workload,
                events[: node.events_processed],
            )
        obs.state_exact = verdict.state_exact
        obs.outputs_exact = verdict.outputs_exact
        obs.detail = verdict.detail
        obs.outcome = OUTCOME_RECOVERED
    except ReproError as exc:
        obs.outcome = OUTCOME_UNEXPECTED
        obs.detail = f"{type(exc).__name__}: {exc}"
    except BaseException as exc:
        exc.add_note(
            f"while running schedule {schedule.label} (fingerprint "
            f"{schedule_fingerprint(schedule, asdict(scenario))})"
        )
        raise
    finally:
        obs.points_passed = injector.points_passed
        obs.fault_fired = obs.fault_fired or bool(injector.injected)
        if isinstance(node, FTScheme):
            obs.watermarks = list(node.disk.progress.watermark_history)
    return obs
