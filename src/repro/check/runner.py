"""Execute one fault schedule and record a structured observation.

The runner is deliberately a thin composition of pieces the repo
already trusts: the chaos harness's workload and fault placement
(:mod:`repro.harness.chaos`), the virtual-time simulator underneath
every scheme, and the sharded-cluster harness for kill schedules.  It
never judges the outcome — it only *observes* (recovered state vs
ground truth, watermark history, ladder rungs taken, crash points
crossed, degraded-read answers) and leaves the judging to
:mod:`repro.check.invariants`.  Everything is seeded, so the same
(schedule, config) pair always yields the same observation — the
property replay and shrinking depend on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import SCHEMES
from repro.check.schedule import (
    CLUSTER_SCHEME,
    FAMILY_CRASH,
    FAMILY_KILL,
    FAMILY_RPOINT,
    FAMILY_STORAGE,
    FAMILY_WORKER,
    Schedule,
)
from repro.cluster import (
    ClusterFault,
    ClusterFaultPlan,
    ClusterTopology,
    ShardedCluster,
)
from repro.engine.refs import StateRef
from repro.errors import (
    ClusterDataLossError,
    ConfigError,
    InjectedCrash,
    ReassignmentError,
    ReproError,
    StorageError,
)
from repro.harness.chaos import (
    make_workload,
    placed_fault_specs,
    worker_fault_plan,
)
from repro.harness.runner import ground_truth
from repro.storage.faults import FaultInjector, FaultSpec
from repro.storage.stores import Disk
from repro.workloads.streaming_ledger import ACCOUNTS

#: Outcomes an observed run may end in.
OUTCOME_RECOVERED = "recovered"
OUTCOME_FAILED_LOUD = "failed-loud"
OUTCOME_NO_CONVERGE = "no-converge"
OUTCOME_UNEXPECTED = "unexpected-error"


@dataclass(frozen=True)
class CheckConfig:
    """One exploration: vocabulary scope, scenario knobs, run budget."""

    schemes: Tuple[str, ...] = ("MSR", "WAL", "PACMAN", "LVC", "CKPT")
    include_cluster: bool = True
    #: largest number of fault atoms combined in one schedule.
    max_depth: int = 2
    #: schedule executions the frontier may spend (baselines excluded).
    budget: int = 96
    #: orders the frontier among equal priorities; echoed on failures.
    seed: int = 7
    num_workers: int = 4
    epoch_len: int = 32
    snapshot_interval: int = 4
    total_epochs: int = 6
    gc_keep_checkpoints: int = 2
    max_recovery_attempts: int = 8
    cluster_shards: int = 4
    cluster_racks: int = 2
    cluster_nodes_per_rack: int = 2
    cluster_replication: int = 1
    cluster_placement: str = "checkpoint_spread"
    #: fail the exploration when a registered recovery-domain crash
    #: point never fired across the whole run.
    require_coverage: bool = True

    def __post_init__(self) -> None:
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ConfigError(f"unknown schemes: {sorted(unknown)}")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.budget < 1:
            raise ConfigError("budget must be >= 1")
        if self.total_epochs <= self.snapshot_interval:
            raise ConfigError(
                "total_epochs must exceed snapshot_interval so crashes "
                "lose epochs past the checkpoint"
            )

    @property
    def num_events(self) -> int:
        return self.epoch_len * self.total_epochs

    def scenario_payload(self) -> Dict[str, object]:
        """The knobs that shape a run — fingerprinted with the schedule."""
        return {
            "seed": self.seed,
            "num_workers": self.num_workers,
            "epoch_len": self.epoch_len,
            "snapshot_interval": self.snapshot_interval,
            "total_epochs": self.total_epochs,
            "gc_keep_checkpoints": self.gc_keep_checkpoints,
            "max_recovery_attempts": self.max_recovery_attempts,
            "cluster_shards": self.cluster_shards,
            "cluster_racks": self.cluster_racks,
            "cluster_nodes_per_rack": self.cluster_nodes_per_rack,
            "cluster_replication": self.cluster_replication,
            "cluster_placement": self.cluster_placement,
        }


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
    #: checkpoint epochs the ladder walked, newest first (empty when
    #: the final attempt resumed past the ladder).
    snapshot_candidates: List[int] = field(default_factory=list)
    checkpoint_epoch: Optional[int] = None
    checkpoint_fallbacks: int = 0
    ladder: Dict[str, int] = field(default_factory=dict)
    #: durable (crash_epoch, next_epoch) watermark writes, in order.
    watermarks: List[Tuple[Optional[int], Optional[int]]] = field(
        default_factory=list
    )
    #: watermark slots found damaged and discarded (legitimate resets).
    watermark_degradations: int = 0
    #: degraded-read probe taken while crashed, or None if not probed.
    degraded_probe: Optional[Dict[str, object]] = None
    #: a loud failure left recovered state installed (it must not).
    installed_after_failure: bool = False
    #: crash-point name -> times crossed (armed or not).
    points_passed: Dict[str, int] = field(default_factory=dict)
    attempts: int = 0
    resumed: bool = False
    #: virtual recovery seconds, all attempts summed.
    mttr_seconds: float = 0.0
    events_processed: int = 0
    #: cluster-only observations.
    correlation_width: Optional[int] = None
    replication: Optional[int] = None
    data_loss: bool = False
    lost_shards: Tuple[int, ...] = ()
    cluster_exact: Optional[bool] = None


#: Failure-free recovery MTTR per (scheme, config) — anchors worker
#: fault timing, exactly as the chaos sweep anchors its worker cells.
_BASELINE_MTTR: Dict[Tuple[str, CheckConfig], float] = {}


def baseline_mttr(scheme_name: str, cfg: CheckConfig) -> float:
    key = (scheme_name, cfg)
    if key not in _BASELINE_MTTR:
        obs = run_schedule(Schedule(scheme_name, ()), cfg)
        _BASELINE_MTTR[key] = obs.mttr_seconds
    return _BASELINE_MTTR[key]


def _schedule_specs(
    schedule: Schedule, cfg: CheckConfig, stream: Optional[str]
) -> List[FaultSpec]:
    crash_atoms = schedule.atoms_of(FAMILY_CRASH)
    storage_atoms = schedule.atoms_of(FAMILY_STORAGE)
    crash_point = crash_atoms[0].kind if crash_atoms else "boundary"
    fault_kind = storage_atoms[0].kind if storage_atoms else "none"
    specs = placed_fault_specs(
        fault_kind,
        crash_point,
        stream,
        snapshot_interval=cfg.snapshot_interval,
        total_epochs=cfg.total_epochs,
    )
    for atom in schedule.atoms_of(FAMILY_RPOINT):
        specs.append(
            FaultSpec("crash_point", target="any", nth=atom.nth, point=atom.kind)
        )
    return specs


def _probe_degraded(scheme, workload, events, cfg: CheckConfig) -> Dict[str, object]:
    """One stale read while the node is down, judged against the truth.

    The expected value is the serial ground truth at the *checkpoint*
    the read claims to be served from — if the label and the bytes
    disagree, the staleness contract is broken even though the value
    may look plausible.
    """
    ref = StateRef(ACCOUNTS, 0)
    try:
        dr = scheme.degraded_read(ref)
    except ReproError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    prefix = events[: (dr.checkpoint_epoch + 1) * cfg.epoch_len]
    truth_state, _ = ground_truth(workload, prefix)
    return {
        "value": dr.value,
        "expected": truth_state.peek(ref),
        "checkpoint_epoch": dr.checkpoint_epoch,
        "staleness_epochs": dr.staleness_epochs,
        "crash_epoch": scheme._crash_epoch,
        "stale": dr.stale,
    }


def _run_scheme_schedule(schedule: Schedule, cfg: CheckConfig) -> RunObservation:
    workload = make_workload()
    events = workload.generate(cfg.num_events, cfg.seed)
    scheme_cls = SCHEMES[schedule.scheme]
    stream = scheme_cls.log_streams[0] if scheme_cls.log_streams else None
    injector = FaultInjector(_schedule_specs(schedule, cfg, stream), seed=cfg.seed)
    worker_atoms = schedule.atoms_of(FAMILY_WORKER)
    recovery_faults = ()
    if worker_atoms:
        recovery_faults = worker_fault_plan(
            worker_atoms[0].kind,
            baseline_mttr(schedule.scheme, cfg),
            cfg.num_workers,
        )
    scheme = scheme_cls(
        workload,
        num_workers=cfg.num_workers,
        epoch_len=cfg.epoch_len,
        snapshot_interval=cfg.snapshot_interval,
        disk=Disk(faults=injector),
        gc_keep_checkpoints=cfg.gc_keep_checkpoints,
        recovery_faults=recovery_faults,
    )
    obs = RunObservation(schedule=schedule)
    try:
        mid_crash = False
        try:
            scheme.process_stream(events)
        except InjectedCrash:
            mid_crash = True
        if not mid_crash:
            scheme.crash()
        if not any(a.kind == "read-error" for a in schedule.atoms_of(FAMILY_STORAGE)):
            # Probing consumes nth-counted snapshot *read* faults meant
            # for recovery, so skip the probe when one is scheduled —
            # write damage is persistent and probes through it fine.
            obs.degraded_probe = _probe_degraded(scheme, workload, events, cfg)
        report = None
        attempts = 0
        while report is None:
            attempts += 1
            try:
                report = scheme.recover()
            except InjectedCrash:
                if attempts >= cfg.max_recovery_attempts:
                    obs.outcome = OUTCOME_NO_CONVERGE
                    obs.detail = (
                        "recovery did not converge within "
                        f"{cfg.max_recovery_attempts} attempts"
                    )
                    obs.points_passed = injector.points_passed
                    return obs
            except (StorageError, ReassignmentError) as exc:
                obs.outcome = OUTCOME_FAILED_LOUD
                obs.detail = f"{type(exc).__name__}: {exc}"
                obs.installed_after_failure = scheme.store is not None
                obs.points_passed = injector.points_passed
                obs.watermarks = list(scheme.disk.progress.watermark_history)
                return obs
        obs.attempts = report.attempts
        obs.resumed = report.resumed
        obs.mttr_seconds = report.elapsed_total_seconds
        obs.snapshot_candidates = list(report.checkpoint_candidates)
        obs.checkpoint_epoch = report.checkpoint_epoch
        obs.checkpoint_fallbacks = report.checkpoint_fallbacks
        obs.ladder = dict(report.ladder)
        obs.watermark_degradations = report.watermark_degradations
        injector.disarm()
        scheme.process_stream([])
        obs.points_passed = injector.points_passed
        obs.watermarks = list(scheme.disk.progress.watermark_history)
        obs.events_processed = scheme._events_processed
        processed = events[: scheme._events_processed]
        expected_state, expected_outputs = ground_truth(workload, processed)
        obs.state_exact = scheme.store.equals(expected_state)
        obs.outputs_exact = scheme.sink.outputs() == expected_outputs
        obs.outcome = OUTCOME_RECOVERED
        if not obs.state_exact:
            obs.detail = f"state diverges: {scheme.store.diff(expected_state, 3)}"
        elif not obs.outputs_exact:
            obs.detail = "outputs diverge from exactly-once ground truth"
    except Exception as exc:  # noqa: BLE001 — the explorer must observe, not die
        obs.outcome = OUTCOME_UNEXPECTED
        obs.detail = f"{type(exc).__name__}: {exc}"
        obs.points_passed = injector.points_passed
    return obs


def _run_cluster_schedule(schedule: Schedule, cfg: CheckConfig) -> RunObservation:
    workload = make_workload()
    events = workload.generate(cfg.num_events, cfg.seed)
    kill_epoch = max(1, cfg.total_epochs // 2)
    topology = ClusterTopology(
        cfg.cluster_shards, cfg.cluster_racks, cfg.cluster_nodes_per_rack
    )
    plan = ClusterFaultPlan(
        kills=[
            ClusterFault(atom.kind, after_epoch=kill_epoch)
            for atom in schedule.atoms_of(FAMILY_KILL)
        ]
    )
    obs = RunObservation(schedule=schedule)
    obs.correlation_width = plan.correlation_width(topology)
    obs.replication = cfg.cluster_replication
    cluster = ShardedCluster(
        workload,
        topology,
        placement=cfg.cluster_placement,
        replication=cfg.cluster_replication,
        workers_per_shard=max(1, cfg.num_workers // 2),
        epoch_len=cfg.epoch_len,
        snapshot_interval=cfg.snapshot_interval,
        gc_keep_checkpoints=cfg.gc_keep_checkpoints,
        fault_plan=plan,
    )
    try:
        cluster.process_stream(events)
        if not cluster.crashed:
            obs.outcome = OUTCOME_UNEXPECTED
            obs.detail = "scheduled kill never fired"
            return obs
        try:
            report = cluster.recover()
        except ClusterDataLossError as exc:
            obs.outcome = OUTCOME_FAILED_LOUD
            obs.data_loss = True
            obs.lost_shards = tuple(exc.lost_shards)
            obs.detail = (
                f"lost shards {list(exc.lost_shards)} ({exc.lost_events} events)"
            )
            return obs
        obs.attempts = max((r.attempts for r in report.per_shard), default=1)
        obs.resumed = any(r.resumed for r in report.per_shard)
        obs.mttr_seconds = report.rto_seconds
        cluster.process_stream([])
        obs.cluster_exact = cluster.verify_exact()
        obs.outcome = OUTCOME_RECOVERED
        if not obs.cluster_exact:
            obs.detail = (
                "recovered cluster state does not match the serial "
                "single-instance run"
            )
    except Exception as exc:  # noqa: BLE001 — the explorer must observe, not die
        obs.outcome = OUTCOME_UNEXPECTED
        obs.detail = f"{type(exc).__name__}: {exc}"
    return obs


def run_schedule(schedule: Schedule, cfg: CheckConfig) -> RunObservation:
    """Run one schedule to completion and observe it. Deterministic."""
    if schedule.scheme == CLUSTER_SCHEME:
        return _run_cluster_schedule(schedule, cfg)
    return _run_scheme_schedule(schedule, cfg)
