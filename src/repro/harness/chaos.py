"""Chaos sweep: storage-fault × crash-point × scheme cells, as schedules.

The sweep owns no driver.  :func:`cells` defines it as labelled
:class:`~repro.check.schedule.Schedule` values — the fault-atom
vocabulary ``repro check`` explores — each under a
:class:`~repro.check.runner.Scenario`;
:func:`~repro.check.runner.run_schedule` runs every cell through the one
process → crash → recover-until-converged → drain → verify lifecycle and
:func:`run_cell` grades the observation it returns by the invariant
registry the explorer uses (:func:`~repro.check.invariants.check_observation`).

The storage grid damages a durable segment (torn flush, bit flip,
dropped flush, injected read error) and/or kills the process
*mid-epoch* (during group commit or during checkpointing).  Three more
families target recovery's *own* machinery and the cluster:

- **worker-failure cells** kill or straggle one recovery worker while
  parallel replay is in flight; the resilient executor must re-assign
  the dead worker's chains to survivors and still restore the exact
  state (re-assignment rounds and wasted partial work are reported);
- **crash-during-recovery cells** kill the recovering process at a
  named ``recovery.*`` milestone (after checkpoint load, after an epoch
  replay, after a watermark flush, between chains, at finalize) — and,
  in the nested cell, twice in a row.  Each re-run of ``recover()``
  must resume from the durable progress watermark and converge on the
  same exact state, with the wasted re-execution quantified;
- **cluster-kill cells** destroy one failure domain (or, in the
  overwhelm cell, more nodes than the replication factor covers) of a
  sharded cluster at an epoch boundary.

Every cell must end in one of two documented states:

- **exact** — recovered state and exactly-once outputs match the ground
  truth, possibly via the fallback ladder (``exact-degraded`` labels the
  runs where a lower rung was taken, with the rung counts reported);
- **failed-loud** — recovery raised a documented
  :class:`~repro.errors.StorageError` subclass (e.g. the checkpoint
  itself was unreadable and no older one existed) and installed nothing
  — or, only in the overwhelm cell, the cluster reported data loss.

Anything else — an undocumented :class:`~repro.errors.ReproError`, a
*silently* divergent recovery, or any other broken invariant (a
watermark moving backwards, a wrong stale read, a skipped ladder rung)
— fails the sweep (an exception that is not a ``ReproError`` is a bug
and propagates, naming the schedule).  ``repro chaos`` exits non-zero
on any failing cell.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.check.invariants import check_observation
from repro.check.runner import OUTCOME_FAILED_LOUD as RUN_FAILED_LOUD
from repro.check.runner import OUTCOME_RECOVERED as RUN_RECOVERED
from repro.check.runner import (
    RunObservation,
    Scenario,
    run_schedule,
    validate_schemes,
)
from repro.check.schedule import (
    CLUSTER_SCHEME,
    CRASH_KINDS,
    FAMILY_CRASH,
    FAMILY_KILL,
    FAMILY_RPOINT,
    FAMILY_STORAGE,
    FAMILY_WORKER,
    STORAGE_KINDS,
    WORKER_KINDS,
    FaultAtom,
    Schedule,
)
from repro.cluster import PLACEMENT_NAMES, ClusterRecoveryReport
from repro.crashpoints import registered_points
from repro.ft.base import RecoveryReport
from repro.harness.stats import latency_summary

#: Where the injected crash lands relative to the epoch lifecycle.
CRASH_POINTS = ("boundary",) + CRASH_KINDS
#: Storage damage injected alongside the crash.
FAULT_KINDS = ("none",) + STORAGE_KINDS
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
#: The overwhelm cell's kill: the primary's node plus the node its
#: first replica lands on — wider than replication factor 1.
OVERWHELM_KILL = "node:0.0+node:1.0"

#: Outcomes a chaos cell may legitimately end in.
OUTCOME_EXACT = "exact"
OUTCOME_DEGRADED = "exact-degraded"
OUTCOME_FAILED_LOUD = "failed-loud"
OUTCOME_UNEXPECTED = "UNEXPECTED"

#: Cell families, in sweep order (the ``repro chaos`` banner counts them).
FAMILY_NAMES = (
    "storage-fault",
    "worker-failure",
    "crash-during-recovery",
    "cluster-kill",
)

#: Schema tag of the ``repro chaos --json`` export (same convention as
#: ``repro.soak/v3`` in harness/soak.py and ``repro.soak.bench/v1`` in
#: harness/slo.py).
CHAOS_SCHEMA = "repro.chaos/v2"


#: The run knobs every cell shares (a cluster cell changes only its
#: placement); the config's seed replaces ``seed``.
CHAOS_SCENARIO = Scenario(epoch_len=48, max_recovery_attempts=6)


@dataclass(frozen=True)
class ChaosGrid:
    """The axes a sweep crosses: schemes × storage faults × crash points,
    then per scheme its worker faults and recovery crash points, then
    every placement × cluster kill.  A kill may name several
    simultaneous domains joined by ``+`` (k-correlated failure)."""

    schemes: Tuple[str, ...]
    fault_kinds: Tuple[str, ...]
    crash_points: Tuple[str, ...]
    worker_faults: Tuple[str, ...]
    recovery_crash_points: Tuple[str, ...]
    cluster_kills: Tuple[str, ...]


#: The full sweep.
FULL_GRID = ChaosGrid(
    schemes=("MSR", "WAL", "PACMAN", "DL", "LV", "LVC", "CKPT"),
    fault_kinds=FAULT_KINDS,
    crash_points=CRASH_POINTS,
    worker_faults=WORKER_KINDS,
    recovery_crash_points=RECOVERY_CRASH_POINTS,
    cluster_kills=("shard:0", "node:0.0", "rack:0"),
)
#: The reduced sweep CI runs on every push.  It keeps two worker-failure
#: kinds (a death and a straggler) and two crash-during-recovery
#: milestones plus the nested double-crash cell, so the
#: resumable-recovery machinery is exercised on every push.
SMOKE_GRID = ChaosGrid(
    schemes=("MSR", "WAL", "PACMAN", "LVC", "CKPT"),
    fault_kinds=("none", "torn"),
    crash_points=("boundary", "mid-commit"),
    worker_faults=("die-early", "straggle"),
    recovery_crash_points=("recovery.epoch-replayed", "recovery.finalize"),
    cluster_kills=("node:0.0", "rack:0"),
)


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos sweep: a grid, the schemes it runs, and the seed."""

    #: ``None`` runs the grid's own schemes.
    schemes: Optional[Tuple[str, ...]] = None
    seed: int = 7
    #: run :data:`SMOKE_GRID` instead of :data:`FULL_GRID`.
    smoke: bool = False
    #: also run the cluster-kill family, the overwhelm cell included.
    include_cluster: bool = True

    def __post_init__(self) -> None:
        if self.schemes is None:
            object.__setattr__(self, "schemes", self.grid.schemes)
        validate_schemes(self.schemes)

    @property
    def grid(self) -> ChaosGrid:
        return SMOKE_GRID if self.smoke else FULL_GRID

    @property
    def scenario(self) -> Scenario:
        return replace(CHAOS_SCENARIO, seed=self.seed)


@dataclass(frozen=True)
class Cell:
    """One cell of the sweep: a labelled schedule under a scenario."""

    #: the ``fault`` and ``point`` columns of the chaos table.
    fault: str
    crash_point: str
    schedule: Schedule
    scenario: Scenario
    #: the cell passes only by failing loudly with a data-loss error.
    expect_loss: bool = False

    @property
    def label(self) -> str:
        return f"{self.schedule.scheme}/{self.fault}/{self.crash_point}"

    @property
    def family(self) -> str:
        if self.schedule.scheme == CLUSTER_SCHEME:
            return "cluster-kill"
        if self.schedule.atoms_of(FAMILY_WORKER):
            return "worker-failure"
        if self.schedule.atoms_of(FAMILY_RPOINT):
            return "crash-during-recovery"
        return "storage-fault"


@dataclass
class ChaosRun:
    """One cell of the sweep, the driver's observation of it (with the
    converged recovery report), and the cell's grade."""

    cell: Cell
    obs: RunObservation
    outcome: str = OUTCOME_UNEXPECTED
    ok: bool = False
    detail: str = ""
    #: the crash point that actually materialized (a mid-epoch crash
    #: cannot fire for a scheme that never writes the targeted store).
    actual_point: str = ""


@dataclass
class ChaosReport:
    """Sweep results; :func:`chaos_payload` renders the verdict."""

    config: ChaosConfig
    runs: List[ChaosRun]


def cells(cfg: ChaosConfig) -> List[Cell]:
    """The sweep as data: every cell is a schedule for the one driver.

    Order is the report order: the storage × crash grid for every
    scheme, then per scheme its worker-failure and crash-during-recovery
    cells, then the cluster family.
    """
    grid, scenario = cfg.grid, cfg.scenario
    out: List[Cell] = []

    def add(scheme: str, fault: str, point: str, *atoms: FaultAtom) -> None:
        out.append(Cell(fault, point, Schedule(scheme, atoms), scenario))

    for scheme in cfg.schemes:
        for fault in grid.fault_kinds:
            for point in grid.crash_points:
                atoms = []
                if point != "boundary":
                    atoms.append(FaultAtom(FAMILY_CRASH, point))
                if fault != "none":
                    atoms.append(FaultAtom(FAMILY_STORAGE, fault))
                add(scheme, fault, point, *atoms)
    for scheme in cfg.schemes:
        for kind in grid.worker_faults:
            add(scheme, f"worker:{kind}", "boundary", FaultAtom(FAMILY_WORKER, kind))
        reachable = {p.name for p in registered_points(scheme=scheme)}
        for point in grid.recovery_crash_points:
            if point not in reachable:
                # e.g. only MorphStreamR marks per-chain progress; the
                # point never fires elsewhere and the cell would be
                # vacuous.
                continue
            add(scheme, "none", point, FaultAtom(FAMILY_RPOINT, point))
        # Kill the first recovery attempt after its first epoch replay,
        # then kill the *second* attempt at the same milestone:
        # convergence despite nested failures.
        add(
            scheme,
            "none",
            NESTED_CELL,
            FaultAtom(FAMILY_RPOINT, "recovery.epoch-replayed", 1),
            FaultAtom(FAMILY_RPOINT, "recovery.epoch-replayed", 2),
        )
    if cfg.include_cluster:
        for placement in PLACEMENT_NAMES:
            for kill in grid.cluster_kills:
                out.append(_cluster_cell(scenario, placement, kill))
        # Correlation width 2 against replication factor 1: the cluster
        # must refuse to fabricate state and fail loudly.
        out.append(
            _cluster_cell(
                scenario, "checkpoint_spread", OVERWHELM_KILL, expect_loss=True
            )
        )
    return out


def _cluster_cell(
    scenario: Scenario, placement: str, kill: str, expect_loss: bool = False
) -> Cell:
    """One correlated-failure cell; ``+`` joins simultaneous kills."""
    scenario = replace(scenario, cluster_placement=placement)
    return Cell(
        f"{placement}/r{scenario.cluster_replication}",
        kill,
        Schedule(
            CLUSTER_SCHEME,
            tuple(FaultAtom(FAMILY_KILL, part) for part in kill.split("+")),
        ),
        scenario,
        expect_loss,
    )


def run_cell(cell: Cell) -> ChaosRun:
    """Run one cell through the fault-run driver and grade what it saw.

    The cell passes exactly when the invariant registry finds nothing
    wrong with the observation and it reports data loss exactly when
    the cell expects it: within the replication budget (and for every
    single-scheme cell) the run must recover to the exact serial ground
    truth or fail loudly with nothing installed; an ``expect_loss`` cell
    must instead end in a *loud* data-loss error.  The outcome and
    detail only name what happened.
    """
    obs = run_schedule(cell.schedule, cell.scenario)
    violations = check_observation(obs)
    ok = not violations and obs.data_loss == cell.expect_loss
    run = ChaosRun(cell, obs, ok=ok, detail=obs.detail)
    if cell.schedule.scheme == CLUSTER_SCHEME:
        if obs.fault_fired:
            run.actual_point = f"after epoch {cell.scenario.kill_epoch}"
    elif obs.mid_crash:
        run.actual_point = cell.schedule.atoms_of(FAMILY_CRASH)[0].kind
    else:
        run.actual_point = "boundary"

    report = obs.report
    if obs.outcome == RUN_FAILED_LOUD:
        run.outcome = OUTCOME_FAILED_LOUD
        if obs.data_loss and not cell.expect_loss:
            run.detail = "unexpected data loss: " + run.detail
    elif obs.outcome != RUN_RECOVERED:
        return run  # no-converge / unexpected-error: obs.detail says why
    elif cell.expect_loss:
        run.detail = (
            "under-replicated correlated kill recovered instead of "
            "reporting data loss"
        )
    elif not (obs.state_exact and obs.outputs_exact):
        run.detail = f"SILENT DIVERGENCE: {obs.detail}"
    elif violations:
        run.detail = "; ".join(f"{v.invariant}: {v.detail}" for v in violations)
    elif isinstance(report, ClusterRecoveryReport):
        run.outcome = OUTCOME_EXACT
        run.detail = (
            f"shards {list(report.shards_killed)} recovered on "
            f"{report.recovery_nodes} nodes; "
            f"RTO {report.rto_seconds * 1e3:.2f}ms"
        )
    else:
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
    return run


def run_chaos(cfg: Optional[ChaosConfig] = None) -> ChaosReport:
    """Run the full sweep; every cell is independent and seeded."""
    cfg = cfg or ChaosConfig()
    return ChaosReport(config=cfg, runs=[run_cell(cell) for cell in cells(cfg)])


def _cell_entry(run: ChaosRun) -> Dict:
    """One ``cells`` entry: the cell, its grade, its report's facts.

    With no converged report (and, for the per-worker counters a cluster
    report lacks, on a cluster) an empty report's values are exported.
    """
    cell, report = run.cell, run.obs.report
    scheme_report = (
        report
        if isinstance(report, RecoveryReport)
        else RecoveryReport(cell.schedule.scheme)
    )
    folded = scheme_report if report is None else report
    replayed_total = folded.events_replayed + scheme_report.wasted_events
    return {
        "scheme": cell.schedule.scheme,
        "fault": cell.fault,
        "crash_point": cell.crash_point,
        "outcome": run.outcome,
        "ok": run.ok,
        "detail": run.detail,
        "actual_point": run.actual_point,
        "fault_fired": run.obs.fault_fired,
        "mid_crash": run.obs.mid_crash,
        "ladder": dict(folded.ladder),
        "checkpoint_fallbacks": scheme_report.checkpoint_fallbacks,
        # a scheme's summed over every recover() attempt; a cluster's RTO.
        "mttr_seconds": run.obs.mttr_seconds,
        "attempts": folded.attempts,
        "resumed": folded.resumed,
        "reassign_rounds": scheme_report.reassign_rounds,
        "tasks_reassigned": scheme_report.tasks_reassigned,
        "dead_workers": scheme_report.dead_workers,
        "events_replayed": folded.events_replayed,
        "wasted_events": scheme_report.wasted_events,
        "wasted_chains": scheme_report.wasted_chains,
        "wasted_ratio": (
            scheme_report.wasted_events / replayed_total if replayed_total else 0.0
        ),
    }


def chaos_payload(report: ChaosReport) -> Dict:
    """The JSON document ``repro chaos --json`` exports and the terminal
    output is printed from.

    Per cell: the verdict, the fallback-ladder rung histogram, the
    re-assignment counters, and the wasted-work ratio.  The summary
    aggregates those entries across the whole sweep.
    """
    entries = [_cell_entry(run) for run in report.runs]
    ladder_total: Counter = Counter()
    for entry in entries:
        ladder_total.update(entry["ladder"])
    wasted_events = sum(entry["wasted_events"] for entry in entries)
    replayed_plus_wasted = wasted_events + sum(
        entry["events_replayed"] for entry in entries
    )
    mttrs = [entry["mttr_seconds"] for entry in entries if entry["mttr_seconds"] > 0]
    failures = sum(not entry["ok"] for entry in entries)
    return {
        "schema": CHAOS_SCHEMA,
        # The config's own fields plus the scenario every cell shares.
        "config": {
            **asdict(report.config),
            "scenario": asdict(report.config.scenario),
        },
        "passed": not failures,
        "outcome_counts": dict(Counter(entry["outcome"] for entry in entries)),
        "summary": {
            "cells": len(entries),
            "failures": failures,
            "ladder_histogram": dict(ladder_total),
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
        "cells": entries,
    }
