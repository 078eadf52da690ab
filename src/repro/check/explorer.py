"""Exhaustive exploration of the fault-schedule space.

The explorer runs every schedule of the frontier, in build order:
per-scheme baselines first (they anchor worker-fault timing and
establish crash-point coverage on the healthy path), then every
single-atom schedule, then every valid atom pair.  Depth is fixed at
two: only single-atom schedules are ever extended, so a deeper
frontier would hold the same schedules.

Every run is checked against the invariant registry.  A violation is
delta-debugged to a 1-minimal schedule (:mod:`repro.check.shrink`) and
packaged as a self-contained repro payload (``repro.check/v2``) that
``repro check --replay`` re-executes deterministically.  Coverage
accounting aggregates crash-point passes across all runs and — by
default — fails the exploration when a registered recovery-domain
point never fired: an unreachable crash point means a recovery
milestone the test surface silently stopped exercising.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.check.invariants import check_observation, get_invariant
from repro.check.runner import (
    CheckConfig,
    RunObservation,
    Scenario,
    run_schedule,
)
from repro.check.schedule import (
    CLUSTER_SCHEME,
    FaultAtom,
    Schedule,
    cluster_atoms,
    expand,
    schedule_fingerprint,
    single_scheme_atoms,
)
from repro.check.shrink import shrink_schedule
from repro.crashpoints import DOMAIN_RECOVERY, registered_points
from repro.errors import ConfigError

#: Schema tag of counterexample repro files.
REPRO_SCHEMA = "repro.check/v2"
#: Schema tag of the ``repro check --json`` report.
REPORT_SCHEMA = "repro.check.report/v2"

#: Counterexamples shrunk and reported per exploration; further
#: violations of an already-reported (invariant, scheme) pair are
#: recorded as runs but not shrunk again.
MAX_COUNTEREXAMPLES = 8


@dataclass
class Counterexample:
    """One invariant violation, minimized and ready to replay."""

    invariant: str
    detail: str
    #: schedule the frontier found the violation with.
    found_with: Schedule
    #: 1-minimal schedule still violating the invariant.
    minimal: Schedule
    fingerprint: str
    shrink_runs: int
    observation: RunObservation


@dataclass
class CheckReport:
    """What one exploration ran, found, and covered."""

    config: CheckConfig
    #: per-schedule summaries in execution order.
    runs: List[Dict[str, object]] = field(default_factory=list)
    counterexamples: List[Counterexample] = field(default_factory=list)
    #: crash-point name -> passes observed across every run.
    coverage: Dict[str, int] = field(default_factory=dict)
    #: recovery-domain points the exploration was required to fire.
    required_points: Tuple[str, ...] = ()
    shrink_runs: int = 0

    @property
    def uncovered_points(self) -> List[str]:
        return [p for p in self.required_points if not self.coverage.get(p)]

    @property
    def coverage_ok(self) -> bool:
        return not self.uncovered_points

    @property
    def passed(self) -> bool:
        if self.counterexamples:
            return False
        if self.config.require_coverage and not self.coverage_ok:
            return False
        return True


def _required_points(cfg: CheckConfig) -> Tuple[str, ...]:
    names = []
    for point in registered_points(domain=DOMAIN_RECOVERY):
        if point.schemes and not set(point.schemes) & set(cfg.schemes):
            continue
        names.append(point.name)
    return tuple(names)


def build_frontier(cfg: CheckConfig) -> List[Schedule]:
    """Every schedule of one config: baselines, singles, then pairs."""
    vocab: Dict[str, List[FaultAtom]] = {
        scheme: single_scheme_atoms(scheme) for scheme in cfg.schemes
    }
    baselines = [Schedule(scheme, ()) for scheme in vocab]
    if cfg.include_cluster:
        vocab[CLUSTER_SCHEME] = cluster_atoms()
    singles = [
        Schedule(scheme, (atom,))
        for scheme, atoms in vocab.items()
        for atom in atoms
    ]
    # Two singles extend to the same pair; dict keys keep the first.
    pairs = dict.fromkeys(
        pair for single in singles for pair in expand(single, vocab[single.scheme])
    )
    return baselines + singles + list(pairs)


def _run_summary(
    schedule: Schedule, obs: RunObservation, violations
) -> Dict[str, object]:
    return {
        "schedule": schedule.label,
        "outcome": obs.outcome,
        "detail": obs.detail,
        "violations": [v.invariant for v in violations],
    }


def explore(cfg: Optional[CheckConfig] = None) -> CheckReport:
    """Run every schedule of the frontier. Deterministic for a given config."""
    cfg = cfg or CheckConfig()
    report = CheckReport(config=cfg, required_points=_required_points(cfg))
    scenario = cfg.scenario
    shrunk_keys = set()
    for schedule in build_frontier(cfg):
        obs = run_schedule(schedule, scenario)
        for point, count in obs.points_passed.items():
            report.coverage[point] = report.coverage.get(point, 0) + count
        violations = check_observation(obs)
        report.runs.append(_run_summary(schedule, obs, violations))
        for violation in violations:
            key = (violation.invariant, schedule.scheme)
            if key in shrunk_keys:
                continue
            if len(report.counterexamples) >= MAX_COUNTEREXAMPLES:
                continue
            shrunk_keys.add(key)
            minimal, min_obs, runs = shrink_schedule(
                schedule, scenario, violation.invariant
            )
            min_violations = check_observation(min_obs)
            detail = next(
                (
                    v.detail
                    for v in min_violations
                    if v.invariant == violation.invariant
                ),
                violation.detail,
            )
            report.shrink_runs += runs
            report.counterexamples.append(
                Counterexample(
                    invariant=violation.invariant,
                    detail=detail,
                    found_with=schedule,
                    minimal=minimal,
                    fingerprint=schedule_fingerprint(
                        minimal, asdict(scenario)
                    ),
                    shrink_runs=runs,
                    observation=min_obs,
                )
            )
    return report


def repro_payload(ce: Counterexample, cfg: CheckConfig) -> Dict[str, object]:
    """Self-contained replayable counterexample document."""
    return {
        "schema": REPRO_SCHEMA,
        "invariant": ce.invariant,
        "detail": ce.detail,
        "fingerprint": ce.fingerprint,
        "scenario": asdict(cfg.scenario),
        "schedule": ce.minimal.to_payload(),
        "found_with": ce.found_with.to_payload(),
        "shrink_runs": ce.shrink_runs,
        "observed": {
            "outcome": ce.observation.outcome,
            "detail": ce.observation.detail,
        },
    }


def load_repro_payload(payload: object) -> Dict[str, object]:
    """Validate a repro document; refuse what it cannot replay exactly.

    Unknown top-level keys are ignored (same forward-compatibility
    stance as the soak trajectory loader), but the schema tag must
    match and the schedule must parse.  An unknown scenario key is
    refused: dropping it would replay a different scenario under the
    recorded fingerprint.
    """
    if not isinstance(payload, dict):
        raise ConfigError("repro payload must be a JSON object")
    schema = payload.get("schema")
    if schema != REPRO_SCHEMA:
        raise ConfigError(
            f"unsupported repro schema {schema!r} (expected {REPRO_SCHEMA})"
        )
    try:
        schedule = Schedule.from_payload(payload["schedule"])
        invariant = str(payload["invariant"])
    except KeyError as exc:
        raise ConfigError(f"repro payload missing field: {exc}")
    get_invariant(invariant)
    recorded = payload.get("scenario", {})
    if not isinstance(recorded, dict):
        raise ConfigError("repro payload scenario must be an object")
    unknown = sorted(set(recorded) - {f.name for f in fields(Scenario)})
    if unknown:
        raise ConfigError(f"repro payload has unknown scenario keys: {unknown}")
    return {
        "schedule": schedule,
        "invariant": invariant,
        "scenario": Scenario(**recorded),
        "fingerprint": str(payload.get("fingerprint", "")),
    }


def replay_repro(payload: object) -> Dict[str, object]:
    """Re-run a repro file's minimal schedule; report whether it still fails."""
    loaded = load_repro_payload(payload)
    schedule: Schedule = loaded["schedule"]
    scenario: Scenario = loaded["scenario"]
    obs = run_schedule(schedule, scenario)
    violations = check_observation(obs)
    hit = next(
        (v for v in violations if v.invariant == loaded["invariant"]), None
    )
    return {
        "reproduced": hit is not None,
        "invariant": loaded["invariant"],
        "fingerprint": loaded["fingerprint"]
        or schedule_fingerprint(schedule, asdict(scenario)),
        "schedule": schedule.label,
        "outcome": obs.outcome,
        "detail": hit.detail if hit else obs.detail,
        "other_violations": [
            v.invariant for v in violations if v.invariant != loaded["invariant"]
        ],
    }


def report_payload(report: CheckReport) -> Dict[str, object]:
    """The JSON document ``repro check --json`` exports."""
    return {
        "schema": REPORT_SCHEMA,
        "config": asdict(report.config),
        "passed": report.passed,
        "shrink_runs": report.shrink_runs,
        "coverage": dict(report.coverage),
        "required_points": list(report.required_points),
        "uncovered_points": report.uncovered_points,
        "coverage_ok": report.coverage_ok,
        "counterexamples": [
            {
                "invariant": ce.invariant,
                "detail": ce.detail,
                "fingerprint": ce.fingerprint,
                "found_with": ce.found_with.label,
                "minimal": ce.minimal.label,
                "minimal_atoms": len(ce.minimal.atoms),
                "shrink_runs": ce.shrink_runs,
            }
            for ce in report.counterexamples
        ],
        "runs": list(report.runs),
    }
