"""Declarative SLOs, error budgets and the cross-PR perf trajectory.

Two concerns live here, both consumed by the soak harness and CI:

**SLO evaluation.**  :class:`SLOTargets` states the availability-centric
objectives of Vogel et al. declaratively (latency percentiles, recovery
time, recovery point, availability); :func:`evaluate_slo` grades one
soak run against them and accounts the *error budget*: a target of
99.5% availability over a T-second run allows ``0.005 * T`` seconds of
outage, and the verdict reports how much of that budget the run burned.

**Perf trajectory.**  ``BENCH_soak.json`` is the repo's performance
memory: a schema-versioned, append-only list of soak records, one per
committed run.  :func:`regression_gate` compares a fresh record against
the newest committed record of the same *cell* (identical config
fingerprint) and fails loudly when throughput drops, p99 latency rises
or MTTR rises beyond a tolerance band — so a PR that regresses recovery
or runtime performance turns CI red instead of silently shipping.
Loading tolerates unknown fields, so future schema extensions never
break an old gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import ConfigError

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
    "rpo_events",
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
    #: acknowledged events the run may lose (recovery-point objective).
    max_rpo_events: int = 0
    #: floor on sustained throughput; 0 disables the check.
    min_throughput_eps: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.availability <= 1.0:
            raise ConfigError("availability target must be in (0, 1]")
        for name in ("p99_latency_seconds", "p999_latency_seconds",
                     "max_mttr_seconds"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.max_rpo_events < 0:
            raise ConfigError("max_rpo_events must be >= 0")


@dataclass(frozen=True)
class SLOBreach:
    """One objective the run failed, with the numbers."""

    objective: str
    limit: float
    actual: float

    def describe(self) -> str:
        return f"{self.objective}: {self.actual:.6g} vs limit {self.limit:.6g}"


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

    def describe(self) -> str:
        if self.passed:
            return (
                "SLO met — error budget burned "
                f"{self.budget.burn_fraction:.0%}"
            )
        return "SLO BREACH — " + "; ".join(b.describe() for b in self.breaches)


def evaluate_slo(
    *,
    targets: SLOTargets,
    duration_seconds: float,
    outage_seconds: float,
    latency_p99_seconds: float,
    latency_p999_seconds: float,
    mttr_max_seconds: float,
    rpo_events: int,
    throughput_eps: float,
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
    if rpo_events > targets.max_rpo_events:
        breaches.append(SLOBreach(
            "RPO events", float(targets.max_rpo_events), float(rpo_events)
        ))
    if targets.min_throughput_eps and throughput_eps < targets.min_throughput_eps:
        breaches.append(SLOBreach(
            "throughput", targets.min_throughput_eps, throughput_eps
        ))
    budget = ErrorBudget(
        allowed_outage_seconds=(1.0 - targets.availability) * duration_seconds,
        spent_outage_seconds=outage_seconds,
    )
    return SLOVerdict(passed=not breaches, breaches=breaches, budget=budget)


# ---------------------------------------------------------------------------
# BENCH trajectory: load / append / gate
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


def append_record(path: Path, record: Dict) -> Dict:
    """Append ``record`` to the trajectory at ``path`` (created if absent).

    Existing records — including any fields this version does not know
    about — are preserved byte-for-byte at the JSON level.
    """
    validate_record(record)
    path = Path(path)
    doc = load_trajectory(path) if path.exists() else new_trajectory()
    doc["records"].append(record)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def baseline_for(trajectory: Dict, cell: str) -> Optional[Dict]:
    """The newest committed record of the same cell, or ``None``."""
    for record in reversed(trajectory.get("records", [])):
        if record.get("cell") == cell:
            return record
    return None


@dataclass(frozen=True)
class GateTolerance:
    """The band within which metric drift is not a regression."""

    #: fractional throughput drop tolerated (0.10 = -10%).
    throughput_drop: float = 0.10
    #: fractional p99 latency rise tolerated.
    p99_rise: float = 0.25
    #: fractional worst-MTTR rise tolerated.
    mttr_rise: float = 0.25


@dataclass(frozen=True)
class GateComparison:
    """One gated metric: candidate vs baseline and the verdict."""

    metric: str
    baseline: float
    candidate: float
    #: "improved" | "within-band" | "REGRESSED"
    verdict: str

    @property
    def regressed(self) -> bool:
        return self.verdict == "REGRESSED"


@dataclass
class GateResult:
    """Outcome of gating one record against the committed trajectory."""

    cell: str
    passed: bool
    comparisons: List[GateComparison] = field(default_factory=list)
    #: set when the trajectory holds no baseline for this cell — the
    #: gate passes vacuously (first run of a new cell seeds it).
    no_baseline: bool = False

    def describe(self) -> str:
        if self.no_baseline:
            return f"{self.cell}: no committed baseline — gate passes, seed it"
        parts = [
            f"{c.metric} {c.verdict} ({c.baseline:.6g} -> {c.candidate:.6g})"
            for c in self.comparisons
        ]
        prefix = "gate OK" if self.passed else "PERF REGRESSION"
        return f"{self.cell}: {prefix} — " + ", ".join(parts)


def _compare(
    metric: str, baseline: float, candidate: float,
    tolerance: float, higher_is_better: bool,
) -> GateComparison:
    if baseline <= 0:
        # A zero baseline (e.g. MTTR 0 in a crash-free cell) cannot
        # anchor a relative band; only flag a strict worsening.
        worse = candidate < baseline if higher_is_better else candidate > baseline
        verdict = "REGRESSED" if worse else "within-band"
        return GateComparison(metric, baseline, candidate, verdict)
    ratio = candidate / baseline
    if higher_is_better:
        if ratio < 1.0 - tolerance:
            verdict = "REGRESSED"
        elif ratio > 1.0:
            verdict = "improved"
        else:
            verdict = "within-band"
    else:
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSED"
        elif ratio < 1.0:
            verdict = "improved"
        else:
            verdict = "within-band"
    return GateComparison(metric, baseline, candidate, verdict)


def regression_gate(
    trajectory: Dict,
    record: Dict,
    tolerance: GateTolerance = GateTolerance(),
) -> GateResult:
    """Gate ``record`` against the trajectory's baseline for its cell.

    Three metrics are gated — throughput (must not drop), p99 latency
    and worst MTTR (must not rise) — each within its tolerance band.
    Any single regression fails the gate.
    """
    validate_record(record)
    cell = record["cell"]
    baseline = baseline_for(trajectory, cell)
    if baseline is None:
        return GateResult(cell=cell, passed=True, no_baseline=True)
    base_m, cand_m = baseline["metrics"], record["metrics"]
    comparisons = [
        _compare(
            "throughput_eps",
            float(base_m["throughput_eps"]),
            float(cand_m["throughput_eps"]),
            tolerance.throughput_drop,
            higher_is_better=True,
        ),
        _compare(
            "latency_p99_seconds",
            float(base_m["latency_p99_seconds"]),
            float(cand_m["latency_p99_seconds"]),
            tolerance.p99_rise,
            higher_is_better=False,
        ),
        _compare(
            "mttr_max_seconds",
            float(base_m["mttr_max_seconds"]),
            float(cand_m["mttr_max_seconds"]),
            tolerance.mttr_rise,
            higher_is_better=False,
        ),
    ]
    return GateResult(
        cell=cell,
        passed=not any(c.regressed for c in comparisons),
        comparisons=comparisons,
    )
