"""Central crash-point registry: every ``at_point(...)`` site, enumerable.

Crash points are named execution milestones where a
:class:`~repro.storage.faults.FaultInjector` may kill the process
(``FaultSpec(kind="crash_point", point=...)``).  Before this registry
they were stringly typed: a typo in a fault spec or a gate silently
never fired.  Now both ends of the contract are checked —

- ``FaultSpec`` rejects unregistered point names at construction;
- ``FaultInjector.at_point`` rejects unregistered gates at fire time;
- the systematic explorer (:mod:`repro.check`) *enumerates* the
  registry and fails its run when a registered point of the domains it
  drives never fired (coverage accounting), so a gate that rots away —
  e.g. a refactor drops the ``recovery.watermark`` call — turns CI red
  instead of silently shrinking the tested fault space.

Points are grouped by **domain**: ``recovery`` points fire on any disk
during :meth:`~repro.ft.base.FTScheme.recover`; the
``storage.progress-file`` points only exist on a file-backed disk
(either side of the rename that publishes a progress slot, in
:mod:`repro.storage.filedisk`'s write-through mapping) and are exercised
by ``tests/test_filedisk.py`` rather than the in-memory explorer — the
coverage contract is per-domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError

#: Domain of points fired by FTScheme.recover() on any disk.
DOMAIN_RECOVERY = "recovery"
#: Domain of points around a file-backed progress slot's rename.
DOMAIN_PROGRESS_FILE = "storage.progress-file"


@dataclass(frozen=True)
class CrashPoint:
    """One registered crash gate."""

    name: str
    domain: str
    description: str
    #: schemes whose runs can reach the point (empty = every scheme).
    schemes: Tuple[str, ...] = ()


_REGISTRY: Dict[str, CrashPoint] = {}


def register(point: CrashPoint) -> CrashPoint:
    """Add one point; re-registration must be identical (idempotent)."""
    existing = _REGISTRY.get(point.name)
    if existing is not None and existing != point:
        raise ConfigError(
            f"crash point {point.name!r} already registered with a "
            "different definition"
        )
    _REGISTRY[point.name] = point
    return point


def validate_point(name: str) -> None:
    """Reject a point name nothing will ever fire (checked contract)."""
    if name not in _REGISTRY:
        raise ConfigError(
            f"unregistered crash point {name!r}; known points: "
            f"{sorted(_REGISTRY)}"
        )


def registered_points(
    domain: Optional[str] = None, scheme: Optional[str] = None
) -> Tuple[CrashPoint, ...]:
    """All registered points, optionally filtered by domain and scheme.

    ``scheme`` keeps only points reachable by that scheme's runs
    (points with an empty ``schemes`` tuple apply to every scheme).
    """
    points = sorted(_REGISTRY.values(), key=lambda p: p.name)
    if domain is not None:
        points = [p for p in points if p.domain == domain]
    if scheme is not None:
        points = [p for p in points if not p.schemes or scheme in p.schemes]
    return tuple(points)


# ----------------------------------------------------------------------
# The registered gates.  Adding an ``at_point`` call site elsewhere
# requires registering it here, or the gate raises at fire time.
# ----------------------------------------------------------------------

register(
    CrashPoint(
        "recovery.checkpoint-loaded",
        DOMAIN_RECOVERY,
        "after the checkpoint rung restored a snapshot, before the "
        "initial progress watermark",
    )
)
register(
    CrashPoint(
        "recovery.epoch-replayed",
        DOMAIN_RECOVERY,
        "after one lost epoch was replayed and its outputs delivered",
    )
)
register(
    CrashPoint(
        "recovery.watermark",
        DOMAIN_RECOVERY,
        "after a recovery-progress watermark flush",
    )
)
register(
    CrashPoint(
        "recovery.chain",
        DOMAIN_RECOVERY,
        "after one chain bundle of the in-flight epoch (chain-"
        "structured schemes only)",
        schemes=("MSR",),
    )
)
register(
    CrashPoint(
        "recovery.finalize",
        DOMAIN_RECOVERY,
        "after sealed-epoch reopen and ingress-tail restore, before "
        "the progress slot is cleared",
    )
)
register(
    CrashPoint(
        "progress.tmp-written",
        DOMAIN_PROGRESS_FILE,
        "file-backed progress store: temp sibling written, rename not "
        "yet performed (the published slot is still the old one)",
    )
)
register(
    CrashPoint(
        "progress.replaced",
        DOMAIN_PROGRESS_FILE,
        "file-backed progress store: os.replace done, the new slot is "
        "the published one",
    )
)
