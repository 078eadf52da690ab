"""Fault-schedule vocabulary for the systematic explorer.

A :class:`Schedule` is an ordered set of :class:`FaultAtom` values, each
naming one fault from the vocabulary the rest of the repo already
speaks: storage damage (:mod:`repro.storage.faults`), mid-epoch crash
placements (the chaos harness's cells), recovery worker faults
(:class:`repro.sim.executor.WorkerFault`), crashes at registered
recovery milestones (:mod:`repro.crashpoints`), and correlated cluster
kills (:class:`repro.cluster.faultplan.ClusterFault`).  Schedules
are pure data — hashable, canonically ordered, JSON round-trippable —
so the explorer can enumerate, dedupe, shrink, and replay them
deterministically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.crashpoints import DOMAIN_RECOVERY, registered_points, validate_point
from repro.errors import ConfigError

# Atom families.  One schedule combines at most a handful of atoms;
# the per-family constraints in validate_atoms() keep the enumeration
# space meaningful (two mid-commit crashes in one run is not a new
# scenario, it is the same scenario twice).
FAMILY_CRASH = "crash"
FAMILY_STORAGE = "storage"
FAMILY_WORKER = "worker"
FAMILY_RPOINT = "rpoint"
FAMILY_KILL = "kill"

#: kind vocabulary per family.
CRASH_KINDS = ("mid-commit", "mid-checkpoint")
STORAGE_KINDS = ("torn", "bitflip", "drop", "read-error")
WORKER_KINDS = ("die-early", "die-mid", "straggle")
KILL_KINDS = ("shard:0", "node:0.0", "node:1.0", "rack:0")

_FAMILY_KINDS = {
    FAMILY_CRASH: CRASH_KINDS,
    FAMILY_STORAGE: STORAGE_KINDS,
    FAMILY_WORKER: WORKER_KINDS,
    FAMILY_KILL: KILL_KINDS,
}

#: Scheme label used for cluster-level schedules, which run on the
#: sharded cluster harness instead of a single FTScheme.
CLUSTER_SCHEME = "CLUSTER"


@dataclass(frozen=True, order=True)
class FaultAtom:
    """One indivisible fault in a schedule.

    ``family`` picks the injection mechanism, ``kind`` the specific
    fault within it, and ``nth`` the occurrence index where that is
    meaningful (crashes at the nth pass of a recovery point, so
    ``nth=2`` exercises nested recovery-during-recovery).
    """

    family: str
    kind: str
    nth: int = 1

    def __post_init__(self):
        if self.family == FAMILY_RPOINT:
            validate_point(self.kind)
            if self.nth not in (1, 2):
                raise ConfigError(
                    f"rpoint atom nth must be 1 or 2, got {self.nth}"
                )
        elif self.family in _FAMILY_KINDS:
            if self.kind not in _FAMILY_KINDS[self.family]:
                raise ConfigError(
                    f"unknown {self.family} atom kind {self.kind!r}; "
                    f"known: {list(_FAMILY_KINDS[self.family])}"
                )
            if self.nth != 1:
                raise ConfigError(
                    f"{self.family} atoms do not take nth (got {self.nth})"
                )
        else:
            raise ConfigError(f"unknown fault-atom family {self.family!r}")

    @property
    def label(self) -> str:
        if self.family == FAMILY_RPOINT and self.nth != 1:
            return f"{self.family}:{self.kind}#{self.nth}"
        return f"{self.family}:{self.kind}"

    def to_payload(self) -> Dict[str, object]:
        return {"family": self.family, "kind": self.kind, "nth": self.nth}

    @classmethod
    def from_payload(cls, payload: object) -> "FaultAtom":
        if not isinstance(payload, dict):
            raise ConfigError(f"fault atom payload must be a dict, got {payload!r}")
        try:
            return cls(
                family=str(payload["family"]),
                kind=str(payload["kind"]),
                nth=int(payload.get("nth", 1)),
            )
        except KeyError as exc:
            raise ConfigError(f"fault atom payload missing field: {exc}")


def validate_atoms(atoms: Sequence[FaultAtom], scheme: str) -> None:
    """Reject schedules outside the explored vocabulary.

    Per-family caps keep the frontier meaningful; the cluster harness
    speaks only kill atoms and the single-scheme harness none.
    """
    seen = set()
    counts: Dict[str, int] = {}
    for atom in atoms:
        if atom in seen:
            raise ConfigError(f"duplicate fault atom {atom.label}")
        seen.add(atom)
        counts[atom.family] = counts.get(atom.family, 0) + 1
    if scheme == CLUSTER_SCHEME:
        bad = [a.label for a in atoms if a.family != FAMILY_KILL]
        if bad:
            raise ConfigError(f"cluster schedules take only kill atoms, got {bad}")
        if counts.get(FAMILY_KILL, 0) > 2:
            raise ConfigError("at most 2 kill atoms per cluster schedule")
        return
    if counts.get(FAMILY_KILL, 0):
        raise ConfigError(f"kill atoms require the {CLUSTER_SCHEME} scheme")
    for family, cap in (
        (FAMILY_CRASH, 1),
        (FAMILY_STORAGE, 1),
        (FAMILY_WORKER, 1),
        (FAMILY_RPOINT, 2),
    ):
        if counts.get(family, 0) > cap:
            raise ConfigError(f"at most {cap} {family} atom(s) per schedule")


@dataclass(frozen=True)
class Schedule:
    """A canonically-ordered fault set bound to one scheme under test."""

    scheme: str
    atoms: Tuple[FaultAtom, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.atoms))
        if ordered != self.atoms:
            object.__setattr__(self, "atoms", ordered)
        validate_atoms(self.atoms, self.scheme)

    @property
    def label(self) -> str:
        inner = "+".join(a.label for a in self.atoms) or "baseline"
        return f"{self.scheme}[{inner}]"

    def atoms_of(self, family: str) -> List[FaultAtom]:
        return [a for a in self.atoms if a.family == family]

    def without(self, atom: FaultAtom) -> "Schedule":
        return Schedule(self.scheme, tuple(a for a in self.atoms if a != atom))

    def to_payload(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "atoms": [a.to_payload() for a in self.atoms],
        }

    @classmethod
    def from_payload(cls, payload: object) -> "Schedule":
        if not isinstance(payload, dict):
            raise ConfigError(f"schedule payload must be a dict, got {payload!r}")
        try:
            scheme = str(payload["scheme"])
            atoms_raw = payload["atoms"]
        except KeyError as exc:
            raise ConfigError(f"schedule payload missing field: {exc}")
        if not isinstance(atoms_raw, list):
            raise ConfigError("schedule payload atoms must be a list")
        return cls(scheme, tuple(FaultAtom.from_payload(a) for a in atoms_raw))


def schedule_fingerprint(schedule: Schedule, scenario: Dict[str, object]) -> str:
    """Short stable id for one (schedule, scenario-knobs) pair.

    Echoed on every failure so a CI log line alone is enough to rerun
    the exact scenario locally.
    """
    blob = json.dumps(
        {"schedule": schedule.to_payload(), "scenario": scenario},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def recovery_point_atoms(scheme: str) -> List[FaultAtom]:
    """rpoint atoms for every registered recovery-domain crash point.

    Driven by the central registry, so a newly registered recovery
    milestone is enumerated (and coverage-checked) with no explorer
    change.
    """
    atoms = []
    for point in registered_points(domain=DOMAIN_RECOVERY, scheme=scheme):
        for nth in (1, 2):
            atoms.append(FaultAtom(FAMILY_RPOINT, point.name, nth))
    return atoms


def single_scheme_atoms(scheme: str) -> List[FaultAtom]:
    """The depth-1 vocabulary for one FTScheme."""
    atoms: List[FaultAtom] = []
    atoms.extend(FaultAtom(FAMILY_CRASH, k) for k in CRASH_KINDS)
    atoms.extend(FaultAtom(FAMILY_STORAGE, k) for k in STORAGE_KINDS)
    atoms.extend(FaultAtom(FAMILY_WORKER, k) for k in WORKER_KINDS)
    atoms.extend(recovery_point_atoms(scheme))
    return atoms


def cluster_atoms() -> List[FaultAtom]:
    """The depth-1 vocabulary for the sharded cluster."""
    return [FaultAtom(FAMILY_KILL, k) for k in KILL_KINDS]


def expand(schedule: Schedule, vocabulary: Iterable[FaultAtom]) -> List[Schedule]:
    """All valid one-atom extensions of ``schedule``."""
    out = []
    for atom in vocabulary:
        if atom in schedule.atoms:
            continue
        try:
            out.append(Schedule(schedule.scheme, schedule.atoms + (atom,)))
        except ConfigError:
            continue
    return out
