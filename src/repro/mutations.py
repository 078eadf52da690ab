"""Seeded known-bug mutations: the checker's own validation harness.

A model checker that has never caught a bug proves nothing.  Each
mutation here re-introduces one *specific, silent* recovery bug behind
the ``REPRO_CHECK_MUTATION`` environment flag; the test suite arms a
mutation, runs the explorer, and asserts it (a) finds an invariant
violation within the default budget, (b) shrinks the schedule to a
minimal fault set, and (c) re-triggers the violation from the emitted
repro file.  Production code paths consult :func:`mutation_enabled`,
which is false unless the flag names that exact mutation — so shipping
builds are unaffected.

This module sits beside :mod:`repro.crashpoints`, below every layer
that consults it (``ft``, ``core``, ``cluster``), and must stay a leaf
(stdlib-only imports besides :mod:`repro.errors`); the checker that
arms the mutations is :mod:`repro.check`.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ConfigError

#: Environment variable arming one mutation by name.
MUTATION_ENV = "REPRO_CHECK_MUTATION"

#: Known mutations and the bug each one re-introduces.
MUTATIONS = {
    "skip-ladder-rung": (
        "the recovery report names the newest checkpoint candidate "
        "even after the ladder fell back to an older one, so the "
        "report silently hides the rung recovery skipped"
    ),
}


def active_mutation() -> Optional[str]:
    """The armed mutation name, or ``None``.

    An unknown name raises :class:`ConfigError` — a typo'd flag
    silently testing nothing would defeat the whole validation.
    """
    name = os.environ.get(MUTATION_ENV, "").strip()
    if not name:
        return None
    if name not in MUTATIONS:
        raise ConfigError(
            f"{MUTATION_ENV}={name!r} names no known mutation; "
            f"known: {sorted(MUTATIONS)}"
        )
    return name


def mutation_enabled(name: str) -> bool:
    """True when the environment arms exactly this mutation."""
    if name not in MUTATIONS:
        raise ConfigError(f"unknown mutation {name!r}")
    return active_mutation() == name
