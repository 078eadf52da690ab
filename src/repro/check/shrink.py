"""Counterexample shrinking: delta-debug a schedule to a minimal fault set.

A violating schedule found at depth 2 may owe the violation to only one
of its atoms.  The shrinker greedily removes one atom at a time and
re-runs the schedule, keeping any removal after which the *same
invariant* still fails — the classic ddmin move, which terminates
because every accepted step strictly shrinks the schedule.  The result
is 1-minimal: removing any single remaining atom makes the violation
disappear, which is exactly the property that makes a repro file worth
reading.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.check.invariants import check_observation
from repro.check.runner import RunObservation, Scenario, run_schedule
from repro.check.schedule import Schedule


def violates(
    schedule: Schedule, scenario: Scenario, invariant: str
) -> Tuple[bool, RunObservation]:
    """Re-run a schedule and ask whether the named invariant still fails."""
    obs = run_schedule(schedule, scenario)
    hit = any(v.invariant == invariant for v in check_observation(obs))
    return hit, obs


def shrink_schedule(
    schedule: Schedule,
    scenario: Scenario,
    invariant: str,
    on_step: Callable[[Schedule, bool], None] = lambda s, kept: None,
) -> Tuple[Schedule, RunObservation, int]:
    """1-minimal schedule still violating ``invariant``.

    Returns ``(minimal_schedule, its_observation, runs_spent)``.  The
    input schedule is assumed to violate already (the explorer only
    shrinks confirmed counterexamples), so the observation returned is
    always a violating one.
    """
    _, best_obs = violates(schedule, scenario, invariant)
    runs = 1
    current = schedule
    changed = True
    while changed and current.atoms:
        changed = False
        for atom in current.atoms:
            candidate = current.without(atom)
            hit, obs = violates(candidate, scenario, invariant)
            runs += 1
            on_step(candidate, hit)
            if hit:
                current = candidate
                best_obs = obs
                changed = True
                break
    return current, best_obs, runs
