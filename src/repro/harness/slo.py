"""Declarative SLOs, error budgets and the cross-PR perf trajectory.

Two concerns live here, both consumed by the soak harness and CI:

**SLO evaluation.**  :class:`SLOTargets` states the availability-centric
objectives of Vogel et al. declaratively (latency percentiles, recovery
time, availability); :func:`evaluate_slo` grades one
soak run against them and accounts the *error budget*: a target of
99.5% availability over a T-second run allows ``0.005 * T`` seconds of
outage, and the verdict reports how much of that budget the run burned.

**Perf trajectory.**  ``BENCH_soak.json`` is the repo's performance
memory: a schema-versioned, append-only list of soak records.
:func:`baseline_for` picks the newest committed record of a *cell*
(identical config fingerprint).  Virtual time is bit-deterministic, so
``repro gate soak`` requires each smoke cell to regenerate that record
exactly; ``repro gate soak --update`` appends the cells that moved once
their throughput / p99 / MTTR bands hold
(:func:`repro.harness.calibration.soak_claims`).  Loading tolerates
unknown fields, so older records keep the keys they were written with.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.harness.export import write_json

#: Schema identifier; bump the suffix on incompatible layout changes.
BENCH_SCHEMA = "repro.soak.bench/v1"

#: Metric keys a bench record's ``metrics`` block must carry.
REQUIRED_METRICS = (
    "throughput_eps",
    "latency_p50_seconds",
    "latency_p99_seconds",
    "latency_p999_seconds",
    "mttr_mean_seconds",
    "mttr_max_seconds",
    "rto_max_seconds",
    "availability",
    "degraded_reads",
)


# ---------------------------------------------------------------------------
# SLO targets and evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SLOTargets:
    """Declarative service-level objectives for one soak run."""

    #: end-to-end latency bounds (virtual seconds).
    p99_latency_seconds: float = 5.0
    p999_latency_seconds: float = 30.0
    #: fraction of the run the service must be up (writes accepted).
    availability: float = 0.995
    #: worst tolerated single recovery (detection + replay), seconds.
    max_mttr_seconds: float = 120.0

    def __post_init__(self) -> None:
        if not 0.0 < self.availability <= 1.0:
            raise ConfigError("availability target must be in (0, 1]")
        for name in ("p99_latency_seconds", "p999_latency_seconds",
                     "max_mttr_seconds"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


@dataclass(frozen=True)
class SLOBreach:
    """One objective the run failed, with the numbers."""

    objective: str
    limit: float
    actual: float


@dataclass
class ErrorBudget:
    """Availability error-budget accounting for one run."""

    #: outage seconds the availability target allows over this run.
    allowed_outage_seconds: float
    #: outage seconds actually spent (detection + recovery windows).
    spent_outage_seconds: float

    @property
    def burn_fraction(self) -> float:
        """Budget consumed; > 1.0 means the availability SLO is blown."""
        if self.allowed_outage_seconds <= 0:
            return float("inf") if self.spent_outage_seconds > 0 else 0.0
        return self.spent_outage_seconds / self.allowed_outage_seconds


@dataclass
class SLOVerdict:
    """Pass/fail plus every breached objective and the error budget."""

    passed: bool
    breaches: List[SLOBreach]
    budget: ErrorBudget


def slo_payload(verdict: SLOVerdict) -> Dict:
    """The ``slo`` block of a soak run's export."""
    return {
        "passed": verdict.passed,
        "breaches": [asdict(b) for b in verdict.breaches],
        "error_budget": {
            **asdict(verdict.budget),
            "burn_fraction": verdict.budget.burn_fraction,
        },
    }


def describe_slo(block: Dict) -> str:
    """The one-line verdict ``repro soak`` prints for an ``slo`` block."""
    if block["passed"]:
        burned = block["error_budget"]["burn_fraction"]
        return f"SLO met — error budget burned {burned:.0%}"
    return "SLO BREACH — " + "; ".join(
        f"{b['objective']}: {b['actual']:.6g} vs limit {b['limit']:.6g}"
        for b in block["breaches"]
    )


def evaluate_slo(
    *,
    targets: SLOTargets,
    duration_seconds: float,
    outage_seconds: float,
    latency_p99_seconds: float,
    latency_p999_seconds: float,
    mttr_max_seconds: float,
) -> SLOVerdict:
    """Grade one run's availability-centric metrics against ``targets``."""
    breaches: List[SLOBreach] = []
    if latency_p99_seconds > targets.p99_latency_seconds:
        breaches.append(SLOBreach(
            "p99 latency", targets.p99_latency_seconds, latency_p99_seconds
        ))
    if latency_p999_seconds > targets.p999_latency_seconds:
        breaches.append(SLOBreach(
            "p999 latency", targets.p999_latency_seconds, latency_p999_seconds
        ))
    availability = (
        1.0 - outage_seconds / duration_seconds if duration_seconds > 0 else 1.0
    )
    if availability < targets.availability:
        breaches.append(SLOBreach(
            "availability", targets.availability, availability
        ))
    if mttr_max_seconds > targets.max_mttr_seconds:
        breaches.append(SLOBreach(
            "max MTTR", targets.max_mttr_seconds, mttr_max_seconds
        ))
    budget = ErrorBudget(
        allowed_outage_seconds=(1.0 - targets.availability) * duration_seconds,
        spent_outage_seconds=outage_seconds,
    )
    return SLOVerdict(passed=not breaches, breaches=breaches, budget=budget)


# ---------------------------------------------------------------------------
# BENCH trajectory: load / append / baseline
# ---------------------------------------------------------------------------


def new_trajectory() -> Dict:
    return {"schema": BENCH_SCHEMA, "records": []}


def validate_record(record: Dict) -> None:
    """Structural check for one bench record (unknown fields are fine)."""
    if not isinstance(record, dict):
        raise ConfigError("bench record must be an object")
    for key in ("cell", "metrics"):
        if key not in record:
            raise ConfigError(f"bench record missing required key {key!r}")
    metrics = record["metrics"]
    if not isinstance(metrics, dict):
        raise ConfigError("bench record 'metrics' must be an object")
    missing = [k for k in REQUIRED_METRICS if k not in metrics]
    if missing:
        raise ConfigError(f"bench record metrics missing {missing}")


def load_trajectory(path: Path) -> Dict:
    """Load ``BENCH_soak.json``; tolerant of unknown fields everywhere.

    Raises :class:`ConfigError` on a wrong schema tag or a record that
    lacks the required keys — a malformed trajectory must never pass the
    gate silently.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("schema") != BENCH_SCHEMA:
        raise ConfigError(
            f"{path}: not a {BENCH_SCHEMA} trajectory "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})"
        )
    records = doc.get("records")
    if not isinstance(records, list):
        raise ConfigError(f"{path}: 'records' must be a list")
    for record in records:
        validate_record(record)
    return doc


def append_record(path: Path, record: Dict) -> None:
    """Append ``record`` to the trajectory at ``path`` (created if absent).

    Existing records — including any fields this version does not know
    about — are preserved byte-for-byte at the JSON level.
    """
    validate_record(record)
    path = Path(path)
    doc = load_trajectory(path) if path.exists() else new_trajectory()
    doc["records"].append(record)
    write_json(path, doc)


def baseline_for(trajectory: Dict, cell: str) -> Optional[Dict]:
    """The newest committed record of the same cell, or ``None``."""
    for record in reversed(trajectory.get("records", [])):
        if record.get("cell") == cell:
            return record
    return None
