"""Chaos harness: storage-fault × crash-point × scheme sweeps.

Each cell of the sweep runs one full experiment under an adversarial
storage plan: a :class:`~repro.storage.faults.FaultInjector` damages a
durable segment (torn flush, bit flip, dropped flush, injected read
error) and/or kills the process *mid-epoch* (during group commit or
during checkpointing), then recovery runs and the harness verifies the
outcome against the serial ground truth.

Beyond the storage grid, two failure families target recovery's *own*
machinery:

- **worker-failure cells** kill or straggle one recovery worker while
  parallel replay is in flight; the resilient executor must re-assign
  the dead worker's chains to survivors and still restore the exact
  state (re-assignment rounds and wasted partial work are reported);
- **crash-during-recovery cells** kill the recovering process at a
  named ``recovery.*`` milestone (after checkpoint load, after an epoch
  replay, after a watermark flush, between chains, at finalize) — and,
  in the nested cell, twice in a row.  Each re-run of ``recover()``
  must resume from the durable progress watermark and converge on the
  same exact state, with the wasted re-execution quantified.

Every cell must end in one of two documented states:

- **exact** — recovered state and exactly-once outputs match the ground
  truth, possibly via the fallback ladder (``exact-degraded`` labels the
  runs where a lower rung was taken, with the rung counts reported);
- **failed-loud** — recovery raised a documented
  :class:`~repro.errors.StorageError` subclass (e.g. the checkpoint
  itself was unreadable and no older one existed).

Anything else — an undocumented exception, or worse, a *silently*
divergent recovery — fails the sweep.  ``repro chaos`` drives this from
the command line and exits non-zero on any such cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import SCHEMES
from repro.cluster import (
    PLACEMENT_NAMES,
    ClusterFault,
    ClusterFaultPlan,
    ClusterTopology,
    ShardedCluster,
    parse_kill,
)
from repro.errors import (
    ClusterDataLossError,
    ConfigError,
    InjectedCrash,
    ReassignmentError,
    StorageError,
)
from repro.ft.base import DEGRADABLE_ERRORS, FTScheme, RecoveryReport
from repro.harness.runner import ground_truth
from repro.sim.executor import WorkerFault
from repro.storage.faults import FaultInjector, FaultSpec
from repro.storage.stores import Disk
from repro.workloads.streaming_ledger import StreamingLedger

#: Where the injected crash lands relative to the epoch lifecycle.
CRASH_POINTS = ("boundary", "mid-commit", "mid-checkpoint")
#: Storage damage injected alongside the crash.
FAULT_KINDS = ("none", "torn", "bitflip", "drop", "read-error")
#: Worker-level failures injected into the parallel recovery itself.
WORKER_FAULTS = ("die-early", "die-mid", "straggle")
#: Milestones inside recovery the crash-during-recovery cells target.
RECOVERY_CRASH_POINTS = (
    "recovery.checkpoint-loaded",
    "recovery.epoch-replayed",
    "recovery.watermark",
    "recovery.chain",
    "recovery.finalize",
)
#: Label of the nested (crash-the-crashed-recovery) cell.
NESTED_CELL = "recovery.epoch-replayed:x2"

#: Outcomes a chaos cell may legitimately end in.
OUTCOME_EXACT = "exact"
OUTCOME_DEGRADED = "exact-degraded"
OUTCOME_FAILED_LOUD = "failed-loud"
OUTCOME_UNEXPECTED = "UNEXPECTED"

#: Schema tag of the ``repro chaos --json`` export (same convention as
#: ``repro.soak/v1`` and ``repro.soak.bench/v1`` in harness/slo.py).
CHAOS_SCHEMA = "repro.chaos/v1"


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos sweep: the cross product of the three axes."""

    schemes: Tuple[str, ...] = (
        "MSR",
        "WAL",
        "PACMAN",
        "DL",
        "LV",
        "LVC",
        "CKPT",
    )
    fault_kinds: Tuple[str, ...] = FAULT_KINDS
    crash_points: Tuple[str, ...] = CRASH_POINTS
    #: worker-failure cells run per scheme (empty tuple disables them).
    worker_faults: Tuple[str, ...] = WORKER_FAULTS
    #: crash-during-recovery cells run per scheme (empty disables them).
    recovery_crash_points: Tuple[str, ...] = RECOVERY_CRASH_POINTS
    #: also run the nested cell: two successive crashes mid-recovery.
    nested_crash: bool = True
    #: recover() re-runs allowed before a cell counts as non-convergent.
    max_recovery_attempts: int = 6
    num_workers: int = 4
    epoch_len: int = 48
    snapshot_interval: int = 4
    total_epochs: int = 6
    #: retained checkpoints — gives the checkpoint ladder a place to land.
    gc_keep_checkpoints: int = 2
    seed: int = 7
    #: cluster cells: placement strategies × correlated-kill targets
    #: (empty tuples disable the family).  A kill may name several
    #: simultaneous domains joined by ``+`` (k-correlated failure).
    cluster_placements: Tuple[str, ...] = PLACEMENT_NAMES
    cluster_kills: Tuple[str, ...] = ("shard:0", "node:0.0", "rack:0")
    cluster_shards: int = 4
    cluster_racks: int = 2
    cluster_nodes_per_rack: int = 2
    cluster_replication: int = 1
    #: also run the overwhelm cell: a correlated kill wider than the
    #: replication budget, which must end in a *loud* data-loss error.
    cluster_overwhelm: bool = True

    def __post_init__(self) -> None:
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ConfigError(f"unknown schemes: {sorted(unknown)}")
        if "NAT" in self.schemes:
            raise ConfigError("NAT cannot recover; chaos needs FT schemes")
        if set(self.fault_kinds) - set(FAULT_KINDS):
            raise ConfigError(f"fault kinds must be among {FAULT_KINDS}")
        if set(self.crash_points) - set(CRASH_POINTS):
            raise ConfigError(f"crash points must be among {CRASH_POINTS}")
        if set(self.worker_faults) - set(WORKER_FAULTS):
            raise ConfigError(
                f"worker faults must be among {WORKER_FAULTS}"
            )
        if set(self.recovery_crash_points) - set(RECOVERY_CRASH_POINTS):
            raise ConfigError(
                f"recovery crash points must be among {RECOVERY_CRASH_POINTS}"
            )
        if self.max_recovery_attempts < 1:
            raise ConfigError("max_recovery_attempts must be >= 1")
        if self.total_epochs <= self.snapshot_interval:
            raise ConfigError(
                "total_epochs must exceed snapshot_interval so the crash "
                "loses epochs past the checkpoint"
            )
        unknown_placements = set(self.cluster_placements) - set(PLACEMENT_NAMES)
        if unknown_placements:
            raise ConfigError(
                f"cluster placements must be among {PLACEMENT_NAMES}"
            )
        for kill in self.cluster_kills:
            for part in kill.split("+"):
                parse_kill(part)
        if self.cluster_replication < 0:
            raise ConfigError("cluster_replication must be >= 0")

    @property
    def num_events(self) -> int:
        return self.epoch_len * self.total_epochs


@dataclass
class ChaosRun:
    """One cell of the sweep and how it ended."""

    scheme: str
    fault: str
    crash_point: str
    outcome: str
    ok: bool
    detail: str = ""
    #: the crash point that actually materialized (a mid-epoch crash
    #: cannot fire for a scheme that never writes the targeted store).
    actual_point: str = ""
    fault_fired: bool = False
    mid_crash: bool = False
    #: rung name -> epochs recovered via that rung.
    ladder: Dict[str, int] = field(default_factory=dict)
    checkpoint_fallbacks: int = 0
    #: virtual mean-time-to-recover, summed across every recover()
    #: attempt of this cell (crashed attempts included).
    mttr_seconds: float = 0.0
    #: recover() invocations this cell needed to converge.
    attempts: int = 1
    #: the final attempt resumed from a durable progress watermark.
    resumed: bool = False
    #: re-assignment rounds the resilient executor ran.
    reassign_rounds: int = 0
    #: chain tasks handed from dead workers to survivors.
    tasks_reassigned: int = 0
    #: recovery workers that died mid-replay.
    dead_workers: Tuple[int, ...] = ()
    #: events the final successful recovery replayed.
    events_replayed: int = 0
    #: events replayed by crashed attempts and replayed again later.
    wasted_events: int = 0
    #: chains re-executed because their chain mark was in flight.
    wasted_chains: int = 0
    #: wasted_events / (events_replayed + wasted_events).
    wasted_ratio: float = 0.0


@dataclass
class ChaosReport:
    """Sweep results plus the pass/fail verdict."""

    config: ChaosConfig
    runs: List[ChaosRun]

    @property
    def passed(self) -> bool:
        return all(run.ok for run in self.runs)

    @property
    def failures(self) -> List[ChaosRun]:
        return [run for run in self.runs if not run.ok]

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for run in self.runs:
            counts[run.outcome] = counts.get(run.outcome, 0) + 1
        return counts


def smoke_config(seed: int = 7) -> ChaosConfig:
    """The reduced sweep CI runs on every push.

    Includes two worker-failure kinds (a death and a straggler) and two
    crash-during-recovery milestones plus the nested double-crash cell,
    so the resumable-recovery machinery is exercised on every push.
    """
    return ChaosConfig(
        schemes=("MSR", "WAL", "PACMAN", "LVC", "CKPT"),
        fault_kinds=("none", "torn"),
        crash_points=("boundary", "mid-commit"),
        worker_faults=("die-early", "straggle"),
        recovery_crash_points=(
            "recovery.epoch-replayed",
            "recovery.finalize",
        ),
        cluster_kills=("node:0.0", "rack:0"),
        seed=seed,
    )


def make_workload() -> StreamingLedger:
    """The canonical chaos workload, shared with the fault explorer.

    Both harnesses must stress the same mix (transfers, multi-partition
    chains, forced aborts) so a schedule found by ``repro check`` can be
    discussed in chaos-cell terms and vice versa.
    """
    return StreamingLedger(
        64,
        transfer_ratio=0.6,
        multi_partition_ratio=0.4,
        skew=0.4,
        forced_abort_ratio=0.05,
        num_partitions=4,
    )


def placed_fault_specs(
    fault_kind: str,
    crash_point: str,
    stream: Optional[str],
    *,
    snapshot_interval: int,
    total_epochs: int,
) -> List[FaultSpec]:
    """Place the faults so they hit segments recovery will need.

    Schemes group-commit one log segment per epoch, so the N-th log
    write is epoch N-1's segment (1-based).  Snapshot write #1 is the
    epoch ``-1`` initial checkpoint; #2 is the first interval
    checkpoint.  Placement per crash point:

    - ``boundary``: damage the last epoch's segment; the crash is an
      ordinary end-of-stream stoppage and recovery must replay it.
    - ``mid-commit``: damage the first post-checkpoint epoch's segment,
      then crash *inside* the next epoch's group commit (that flush is
      itself torn) — recovery discards the debris, degrades for the
      damaged epoch, and returns the sealed-but-unprocessed epoch to
      the ingress tail.
    - ``mid-checkpoint``: damage an early segment, then crash inside
      the first interval checkpoint flush — recovery must fall back to
      the initial checkpoint and replay everything.
    """
    specs: List[FaultSpec] = []
    if crash_point == "mid-commit":
        specs.append(
            FaultSpec(
                "crash",
                target="log",
                nth=snapshot_interval + 2,
                stream=stream,
            )
        )
    elif crash_point == "mid-checkpoint":
        specs.append(FaultSpec("crash", target="snapshot", nth=2))
    if fault_kind == "none":
        return specs
    if stream is None:
        # The scheme commits no log segments (CKPT): aim the damage at
        # the snapshot store instead, exercising the checkpoint rung of
        # the ladder — and, when the *only* checkpoint is hit, the
        # fail-loud bottom rung.
        if fault_kind == "read-error":
            specs.append(FaultSpec("read_error", target="snapshot", nth=1))
        elif crash_point == "mid-checkpoint":
            # Damage the initial checkpoint; the interval checkpoint is
            # the crash's own debris, so no readable restore point
            # remains and recovery must fail loudly.
            specs.append(FaultSpec(fault_kind, target="snapshot", nth=1))
        else:
            # Damage the interval checkpoint; the ladder walks back to
            # the initial one and replays every epoch.
            specs.append(FaultSpec(fault_kind, target="snapshot", nth=2))
        return specs
    if fault_kind == "read-error":
        specs.append(
            FaultSpec("read_error", target="log", nth=1, stream=stream)
        )
        return specs
    if crash_point == "boundary":
        nth = total_epochs
    elif crash_point == "mid-commit":
        nth = snapshot_interval + 1
    else:  # mid-checkpoint: an epoch replayed from the older checkpoint
        nth = 2
    specs.append(FaultSpec(fault_kind, target="log", nth=nth, stream=stream))
    return specs


def _verify_exact(scheme: FTScheme, workload, events) -> Tuple[bool, str]:
    """Recovered state + outputs vs the serial ground truth."""
    processed = events[: scheme._events_processed]
    expected_state, expected_outputs = ground_truth(workload, processed)
    if not scheme.store.equals(expected_state):
        return False, (
            f"state diverges: {scheme.store.diff(expected_state, 3)}"
        )
    delivered = scheme.sink.outputs()
    if delivered != expected_outputs:
        missing = sorted(
            set(expected_outputs).symmetric_difference(delivered)
        )[:5]
        return False, f"outputs diverge (seqs {missing})"
    return True, ""


def worker_fault_plan(
    kind: str, baseline_mttr: float, num_workers: int
) -> Tuple[WorkerFault, ...]:
    """The fault list for one worker-failure cell.

    Timing is anchored to the scheme's failure-free recovery time so
    the injected moment lands *inside* the parallel replay regardless
    of the cost model: ``die-early`` kills a worker before it runs a
    single chain, ``die-mid`` kills one roughly halfway through, and
    ``straggle`` slows one to a quarter speed from a quarter in.
    """
    if kind == "die-early":
        return (WorkerFault(1 % num_workers, "die", at_seconds=0.0),)
    if kind == "die-mid":
        return (
            WorkerFault(0, "die", at_seconds=0.5 * baseline_mttr),
        )
    if kind == "straggle":
        return (
            WorkerFault(
                0,
                "straggle",
                at_seconds=0.25 * baseline_mttr,
                slowdown=4.0,
            ),
        )
    raise ConfigError(f"unknown worker fault {kind!r}")


def recovery_point_specs(cell: str) -> List[FaultSpec]:
    """Crash-point fault specs for one crash-during-recovery cell."""
    if cell == NESTED_CELL:
        # Kill the first recovery attempt after its first epoch replay,
        # then kill the *second* attempt at the same milestone — the
        # point counter is shared across attempts, so nth=2 lands in
        # the resumed run.  Convergence despite nested failures.
        return [
            FaultSpec(
                "crash_point",
                target="any",
                nth=n,
                point="recovery.epoch-replayed",
            )
            for n in (1, 2)
        ]
    return [FaultSpec("crash_point", target="any", nth=1, point=cell)]


def _run_one(
    scheme_name: str,
    fault_kind: str,
    crash_point: str,
    cfg: ChaosConfig,
    recovery_faults: Tuple[WorkerFault, ...] = (),
    point_specs: Sequence[FaultSpec] = (),
    label_fault: Optional[str] = None,
    label_point: Optional[str] = None,
) -> ChaosRun:
    workload = make_workload()
    events = workload.generate(cfg.num_events, cfg.seed)
    scheme_cls = SCHEMES[scheme_name]
    stream = scheme_cls.log_streams[0] if scheme_cls.log_streams else None
    injector = FaultInjector(
        placed_fault_specs(
            fault_kind,
            crash_point,
            stream,
            snapshot_interval=cfg.snapshot_interval,
            total_epochs=cfg.total_epochs,
        )
        + list(point_specs),
        seed=cfg.seed,
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
    run = ChaosRun(
        scheme=scheme_name,
        fault=label_fault or fault_kind,
        crash_point=label_point or crash_point,
        outcome=OUTCOME_UNEXPECTED,
        ok=False,
    )
    try:
        try:
            scheme.process_stream(events)
        except InjectedCrash:
            run.mid_crash = True
        if not run.mid_crash:
            # Either a boundary scenario, or the targeted mid-epoch
            # write never happened for this scheme (e.g. CKPT commits
            # no log segments): stop the node at the epoch boundary.
            scheme.crash()
        run.actual_point = crash_point if run.mid_crash else "boundary"
        report = None
        attempts = 0
        while report is None:
            # Crash-during-recovery cells kill recover() itself; each
            # re-run must resume from the progress watermark.  A cell
            # that cannot converge within the attempt budget fails.
            attempts += 1
            try:
                report = scheme.recover()
            except InjectedCrash:
                if attempts >= cfg.max_recovery_attempts:
                    run.detail = (
                        "recovery did not converge within "
                        f"{cfg.max_recovery_attempts} attempts"
                    )
                    run.fault_fired = bool(injector.injected)
                    return run
            except (StorageError, ReassignmentError) as exc:
                # The ladder (or the re-assignment budget) was
                # exhausted: recovery must fail loudly with a
                # documented error and install nothing.
                run.outcome = OUTCOME_FAILED_LOUD
                run.ok = scheme.store is None
                run.detail = f"{type(exc).__name__}: {exc}"
                run.fault_fired = bool(injector.injected)
                return run
        run.attempts = report.attempts
        run.resumed = report.resumed
        run.mttr_seconds = report.elapsed_total_seconds
        run.ladder = dict(report.ladder)
        run.checkpoint_fallbacks = report.checkpoint_fallbacks
        run.reassign_rounds = report.reassign_rounds
        run.tasks_reassigned = report.tasks_reassigned
        run.dead_workers = report.dead_workers
        run.events_replayed = report.events_replayed
        run.wasted_events = report.wasted_events
        run.wasted_chains = report.wasted_chains
        replayed_total = report.events_replayed + report.wasted_events
        if replayed_total:
            run.wasted_ratio = report.wasted_events / replayed_total
        # The scenario has played out; reprocess any epochs returned to
        # the ingress tail without further interference.
        injector.disarm()
        scheme.process_stream([])
        run.fault_fired = bool(injector.injected)
        exact, detail = _verify_exact(scheme, workload, events)
        if not exact:
            run.detail = f"SILENT DIVERGENCE: {detail}"
            return run
        run.ok = True
        run.outcome = (
            OUTCOME_DEGRADED if report.degraded() else OUTCOME_EXACT
        )
        if report.fallbacks:
            first = report.fallbacks[0]
            run.detail = (
                f"epoch {first.epoch_id} via {first.rung} ({first.error})"
            )
        elif report.checkpoint_fallbacks:
            run.detail = (
                f"fell back past {report.checkpoint_fallbacks} "
                f"checkpoint(s) to epoch {report.checkpoint_epoch}"
            )
    except Exception as exc:  # noqa: BLE001 — the sweep must report, not die
        run.outcome = OUTCOME_UNEXPECTED
        run.ok = False
        run.detail = f"{type(exc).__name__}: {exc}"
    return run


#: The overwhelm cell's kill: the primary's node plus the node its
#: first replica lands on — wider than replication factor 1.
OVERWHELM_KILL = "node:0.0+node:1.0"


def _run_cluster_cell(
    placement: str,
    kill: str,
    cfg: ChaosConfig,
    replication: Optional[int] = None,
    expect_loss: bool = False,
) -> ChaosRun:
    """One correlated-failure cell: kill domain(s), recover, verify.

    ``kill`` may join several targets with ``+`` — they die at the same
    epoch boundary (one k-correlated event).  Within the replication
    budget the cell must recover to the exact serial ground truth; an
    ``expect_loss`` cell must instead end in a *loud*
    :class:`ClusterDataLossError` (silent wrong state fails the sweep).
    """
    workload = make_workload()
    events = workload.generate(cfg.num_events, cfg.seed)
    repl = cfg.cluster_replication if replication is None else replication
    kill_epoch = max(1, cfg.total_epochs // 2)
    topology = ClusterTopology(
        cfg.cluster_shards, cfg.cluster_racks, cfg.cluster_nodes_per_rack
    )
    plan = ClusterFaultPlan(
        kills=[
            ClusterFault(part, after_epoch=kill_epoch)
            for part in kill.split("+")
        ]
    )
    cluster = ShardedCluster(
        workload,
        topology,
        placement=placement,
        replication=repl,
        workers_per_shard=max(1, cfg.num_workers // 2),
        epoch_len=cfg.epoch_len,
        snapshot_interval=cfg.snapshot_interval,
        gc_keep_checkpoints=cfg.gc_keep_checkpoints,
        fault_plan=plan,
    )
    run = ChaosRun(
        scheme="CLUSTER",
        fault=f"{placement}/r{repl}",
        crash_point=kill,
        outcome=OUTCOME_UNEXPECTED,
        ok=False,
    )
    try:
        cluster.process_stream(events)
        if not cluster.crashed:
            run.detail = "kill never fired"
            return run
        run.actual_point = f"after epoch {kill_epoch}"
        try:
            report = cluster.recover()
        except ClusterDataLossError as exc:
            run.outcome = OUTCOME_FAILED_LOUD
            run.ok = expect_loss
            run.detail = (
                f"lost shards {list(exc.lost_shards)} "
                f"({exc.lost_events} events)"
            )
            if not expect_loss:
                run.detail = "unexpected data loss: " + run.detail
            run.fault_fired = True
            return run
        if expect_loss:
            run.detail = (
                "under-replicated correlated kill recovered instead of "
                "reporting data loss"
            )
            return run
        run.fault_fired = True
        run.mttr_seconds = report.rto_seconds
        run.attempts = max(
            (r.attempts for r in report.per_shard), default=1
        )
        run.resumed = any(r.resumed for r in report.per_shard)
        run.events_replayed = sum(
            r.events_replayed for r in report.per_shard
        )
        for record in report.per_shard:
            for rung, count in record.ladder.items():
                run.ladder[rung] = run.ladder.get(rung, 0) + count
        cluster.process_stream([])
        if not cluster.verify_exact():
            run.detail = (
                "SILENT DIVERGENCE: recovered cluster state does not "
                "match the serial single-instance run"
            )
            return run
        run.ok = True
        run.outcome = OUTCOME_EXACT
        run.detail = (
            f"shards {list(report.shards_killed)} recovered on "
            f"{report.recovery_nodes} nodes; "
            f"RTO {report.rto_seconds * 1e3:.2f}ms"
        )
    except Exception as exc:  # noqa: BLE001 — the sweep must report, not die
        run.outcome = OUTCOME_UNEXPECTED
        run.ok = False
        run.detail = f"{type(exc).__name__}: {exc}"
    return run


def run_chaos(cfg: Optional[ChaosConfig] = None) -> ChaosReport:
    """Run the full sweep; every cell is independent and seeded."""
    cfg = cfg or ChaosConfig()
    runs = [
        _run_one(scheme, fault, point, cfg)
        for scheme in cfg.schemes
        for fault in cfg.fault_kinds
        for point in cfg.crash_points
    ]
    for scheme in cfg.schemes:
        if cfg.worker_faults:
            # Anchor the fault moment to this scheme's failure-free
            # recovery time so a mid-recovery death actually lands
            # mid-recovery (the baseline cell itself is not reported).
            baseline = _run_one(scheme, "none", "boundary", cfg)
            for kind in cfg.worker_faults:
                runs.append(
                    _run_one(
                        scheme,
                        "none",
                        "boundary",
                        cfg,
                        recovery_faults=worker_fault_plan(
                            kind, baseline.mttr_seconds, cfg.num_workers
                        ),
                        label_fault=f"worker:{kind}",
                    )
                )
        for point in cfg.recovery_crash_points:
            if point == "recovery.chain" and scheme != "MSR":
                # Only MorphStreamR marks per-chain progress; the point
                # never fires elsewhere and the cell would be vacuous.
                continue
            runs.append(
                _run_one(
                    scheme,
                    "none",
                    "boundary",
                    cfg,
                    point_specs=recovery_point_specs(point),
                    label_point=point,
                )
            )
        if cfg.nested_crash and cfg.recovery_crash_points:
            runs.append(
                _run_one(
                    scheme,
                    "none",
                    "boundary",
                    cfg,
                    point_specs=recovery_point_specs(NESTED_CELL),
                    label_point=NESTED_CELL,
                )
            )
    if cfg.cluster_placements and cfg.cluster_kills:
        for placement in cfg.cluster_placements:
            for kill in cfg.cluster_kills:
                runs.append(_run_cluster_cell(placement, kill, cfg))
        if cfg.cluster_overwhelm:
            # Correlation width 2 against replication factor 1: the
            # cluster must refuse to fabricate state and fail loudly.
            runs.append(
                _run_cluster_cell(
                    "checkpoint_spread",
                    OVERWHELM_KILL,
                    cfg,
                    replication=1,
                    expect_loss=True,
                )
            )
    return ChaosReport(config=cfg, runs=runs)


def chaos_payload(report: ChaosReport) -> Dict:
    """The JSON document ``repro chaos --json`` exports.

    Per cell: the verdict, the fallback-ladder rung histogram, the
    re-assignment counters, and the wasted-work ratio.  The summary
    aggregates the rung histogram and wasted re-execution across the
    whole sweep.
    """
    from dataclasses import asdict

    from repro.harness.stats import latency_summary

    ladder_total: Dict[str, int] = {}
    wasted_events = replayed_plus_wasted = 0
    for run in report.runs:
        for rung, count in run.ladder.items():
            ladder_total[rung] = ladder_total.get(rung, 0) + count
        wasted_events += run.wasted_events
        replayed_plus_wasted += run.events_replayed + run.wasted_events
    mttrs = [run.mttr_seconds for run in report.runs if run.mttr_seconds > 0]
    return {
        "schema": CHAOS_SCHEMA,
        "config": asdict(report.config),
        "passed": report.passed,
        "outcome_counts": report.outcome_counts(),
        "summary": {
            "cells": len(report.runs),
            "failures": len(report.failures),
            "ladder_histogram": ladder_total,
            "wasted_events": wasted_events,
            "wasted_ratio": (
                wasted_events / replayed_plus_wasted
                if replayed_plus_wasted
                else 0.0
            ),
            # The canonical latency digest (repro.harness.stats), so the
            # chaos MTTR sample quotes the same interpolated quantiles
            # as the soak trajectory.
            "mttr": latency_summary(mttrs),
        },
        "cells": [
            {
                "scheme": run.scheme,
                "fault": run.fault,
                "crash_point": run.crash_point,
                "outcome": run.outcome,
                "ok": run.ok,
                "detail": run.detail,
                "actual_point": run.actual_point,
                "fault_fired": run.fault_fired,
                "mid_crash": run.mid_crash,
                "ladder": dict(run.ladder),
                "checkpoint_fallbacks": run.checkpoint_fallbacks,
                "mttr_seconds": run.mttr_seconds,
                "attempts": run.attempts,
                "resumed": run.resumed,
                "reassign_rounds": run.reassign_rounds,
                "tasks_reassigned": run.tasks_reassigned,
                "dead_workers": list(run.dead_workers),
                "events_replayed": run.events_replayed,
                "wasted_events": run.wasted_events,
                "wasted_chains": run.wasted_chains,
                "wasted_ratio": run.wasted_ratio,
            }
            for run in report.runs
        ],
    }


def load_chaos_payload(payload: Dict) -> Dict:
    """Validate a ``repro chaos --json`` document for downstream tooling.

    Same forward-compatibility stance as the soak trajectory loader in
    :mod:`repro.harness.slo`: the schema tag must match, the fields the
    consumer relies on must exist, and *unknown* fields are ignored so
    newer producers keep working with older consumers.
    """
    if not isinstance(payload, dict):
        raise ConfigError("chaos payload must be a JSON object")
    schema = payload.get("schema")
    if schema != CHAOS_SCHEMA:
        raise ConfigError(
            f"unsupported chaos schema {schema!r} (expected {CHAOS_SCHEMA})"
        )
    for key in ("passed", "cells", "summary"):
        if key not in payload:
            raise ConfigError(f"chaos payload missing field {key!r}")
    if not isinstance(payload["cells"], list):
        raise ConfigError("chaos payload cells must be a list")
    return payload
