"""The declarative invariant registry the explorer checks every run against.

Each invariant is a named predicate over one :class:`RunObservation`.
They encode the recovery contracts the rest of the repo promises
piecemeal — here they are stated once, checked against *every* explored
fault schedule, and referenced by name in counterexample repro files:

- ``recovered-state-exact`` — a run that claims recovery holds state
  bit-identical to the serial ground truth.
- ``exactly-once-outputs`` — delivered outputs match the ground truth
  exactly once (no loss, no duplication).
- ``no-undocumented-failure`` — every run ends in a documented state:
  recovered, or loudly failed with nothing installed.  Undocumented
  exceptions and non-convergent recovery are violations.
- ``watermark-monotonic`` — durable progress watermarks for one crash
  never move backwards across recovery attempts.
- ``degraded-staleness-bounded`` — a stale read's value matches the
  ground truth at the checkpoint it claims to be served from, and the
  staleness label equals the actual, non-negative lag.
- ``ladder-monotonic`` — after k checkpoint fallbacks, recovery reports
  the (k+1)-th newest candidate — it never skips a rung silently.
- ``no-silent-data-loss`` — the cluster reports data loss only when the
  correlated kill was genuinely wider than the replication budget, and
  a recovered cluster matches the serial run exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.check.runner import (
    OUTCOME_FAILED_LOUD,
    OUTCOME_RECOVERED,
    RunObservation,
)
from repro.errors import ConfigError
from repro.ft.base import RecoveryReport


@dataclass(frozen=True)
class Violation:
    """One invariant broken by one observed run."""

    invariant: str
    detail: str


@dataclass(frozen=True)
class Invariant:
    name: str
    description: str
    #: returns a human-readable detail string on violation, else None.
    check: Callable[[RunObservation], Optional[str]]


def _check_state_exact(obs: RunObservation) -> Optional[str]:
    if obs.outcome != OUTCOME_RECOVERED:
        return None
    if obs.state_exact is False:
        return obs.detail or "recovered state diverges from ground truth"
    return None


def _check_outputs_exact(obs: RunObservation) -> Optional[str]:
    if obs.outcome != OUTCOME_RECOVERED:
        return None
    if obs.outputs_exact is False:
        return obs.detail or "outputs violate exactly-once delivery"
    return None


def _check_documented_failure(obs: RunObservation) -> Optional[str]:
    if obs.outcome == OUTCOME_RECOVERED:
        return None
    if obs.outcome == OUTCOME_FAILED_LOUD:
        if obs.installed_after_failure:
            return "loud failure left recovered state installed"
        return None
    return f"{obs.outcome}: {obs.detail}"


def _check_watermark_monotonic(obs: RunObservation) -> Optional[str]:
    if obs.report is not None and obs.report.watermark_degradations:
        # A torn watermark slot legitimately resets resume progress;
        # the report counts the reset, so skip the monotonicity claim.
        return None
    last_by_crash: Dict[object, int] = {}
    for crash_epoch, next_epoch in obs.watermarks:
        if not isinstance(next_epoch, int):
            continue
        prev = last_by_crash.get(crash_epoch)
        if prev is not None and next_epoch < prev:
            return (
                f"watermark for crash epoch {crash_epoch} moved "
                f"backwards: {prev} -> {next_epoch}"
            )
        last_by_crash[crash_epoch] = next_epoch
    return None


def _check_degraded_staleness(obs: RunObservation) -> Optional[str]:
    # The driver judged its probe with engine.verify.stale_read_error.
    return obs.degraded_probe or None


def _check_ladder_monotonic(obs: RunObservation) -> Optional[str]:
    report = obs.report
    if obs.outcome != OUTCOME_RECOVERED or not isinstance(report, RecoveryReport):
        return None
    candidates = report.checkpoint_candidates
    k = report.checkpoint_fallbacks
    if report.checkpoint_epoch is None or k >= len(candidates):
        return None
    if report.checkpoint_epoch != candidates[k]:
        return (
            f"after {k} fallback(s) over candidates {candidates}, "
            f"recovery reported checkpoint {report.checkpoint_epoch} "
            f"instead of {candidates[k]}"
        )
    return None


def _check_no_silent_data_loss(obs: RunObservation) -> Optional[str]:
    if obs.schedule.scheme != "CLUSTER":
        return None
    if obs.data_loss:
        width = obs.correlation_width or 0
        repl = obs.replication or 0
        if width <= repl:
            return (
                f"data loss reported for correlation width {width} "
                f"within replication budget {repl}"
            )
    return None


INVARIANTS = (
    Invariant(
        "recovered-state-exact",
        "recovered state is bit-identical to the serial ground truth",
        _check_state_exact,
    ),
    Invariant(
        "exactly-once-outputs",
        "delivered outputs match the ground truth exactly once",
        _check_outputs_exact,
    ),
    Invariant(
        "no-undocumented-failure",
        "every run ends recovered or loudly failed with nothing installed",
        _check_documented_failure,
    ),
    Invariant(
        "watermark-monotonic",
        "durable progress watermarks never move backwards within a crash",
        _check_watermark_monotonic,
    ),
    Invariant(
        "degraded-staleness-bounded",
        "stale reads match the ground truth at their labelled checkpoint",
        _check_degraded_staleness,
    ),
    Invariant(
        "ladder-monotonic",
        "checkpoint fallbacks walk the candidate ladder rung by rung",
        _check_ladder_monotonic,
    ),
    Invariant(
        "no-silent-data-loss",
        "data loss is reported only if the kill out-ran the replication budget",
        _check_no_silent_data_loss,
    ),
)

_BY_NAME = {inv.name: inv for inv in INVARIANTS}


def get_invariant(name: str) -> Invariant:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigError(
            f"unknown invariant {name!r}; known: {sorted(_BY_NAME)}"
        ) from None


def check_observation(obs: RunObservation) -> List[Violation]:
    """All invariant violations in one observed run (usually empty)."""
    violations = []
    for inv in INVARIANTS:
        detail = inv.check(obs)
        if detail is not None:
            violations.append(Violation(invariant=inv.name, detail=detail))
    return violations
