"""Systematic fault-schedule exploration with invariant checking.

A FoundationDB/Jepsen-style deterministic model checker for the
recovery stack: :mod:`repro.check.schedule` defines the fault-atom
vocabulary (storage damage, mid-epoch crashes, recovery worker faults,
crashes at registered ``recovery.*`` milestones, correlated cluster
kills) and composes them into schedules; :mod:`repro.check.runner`
executes one schedule on the virtual-time simulator and records a
structured observation; :mod:`repro.check.invariants` checks every
observation against the declarative invariant registry;
:mod:`repro.check.explorer` runs every schedule of depth at most two
with crash-point coverage accounting; and
:mod:`repro.check.shrink` delta-debugs a violating schedule down to a
minimal failing fault set, exported as a self-contained repro file
that ``repro check --replay`` re-triggers deterministically.

The seeded known-bug mutations the checker validates itself against
live in :mod:`repro.mutations`, below the layers that consult them.
"""

__all__ = [
    "explorer",
    "invariants",
    "runner",
    "schedule",
    "shrink",
]
