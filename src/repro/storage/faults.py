"""Storage fault injection: deterministic chaos for the durable layer.

A :class:`FaultInjector` sits between the stores and their "medium":
every framed flush passes through :meth:`FaultInjector.on_write` (which
may tear it to a prefix, flip a bit, drop it entirely, or schedule a
mid-epoch crash right after it lands) and every fetch passes through
:meth:`FaultInjector.on_read` (which may raise an injected EIO).

Faults are described by :class:`FaultSpec` and trigger either
deterministically — the N-th operation of a category — or by seeded
probability, so every chaos run is reproducible from its seed.  The
injector never decides *how* a failure is handled; it only damages
bytes the way real storage does and lets the recovery fallback ladder
in :mod:`repro.ft.base` prove it can cope.

Crash faults model §II-C's failure moment landing *inside* group commit
or checkpointing: the triggering flush is torn, ``crash_pending`` is
raised, and the next crash gate (``FTScheme`` epoch steps, the Logging
Manager's commit loop) raises :class:`~repro.errors.InjectedCrash`
after some-but-not-all durable writes of the epoch completed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.crashpoints import validate_point
from repro.errors import ConfigError, InjectedCrash, ReadFaultError

#: Fault kinds applied to writes.
WRITE_KINDS = ("torn", "bitflip", "drop", "crash")
#: Fault kinds applied to reads.
READ_KINDS = ("read_error",)
#: Fault kinds applied to named execution points (crash gates inside
#: the recovery path itself, e.g. ``recovery.epoch-replayed``).
POINT_KINDS = ("crash_point",)
#: Operation categories the injector distinguishes.
TARGETS = ("log", "snapshot", "events", "progress", "any")
#: Fraction of the framed blob a torn/crash flush retains.
TORN_FRACTION = 0.5


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    ``kind`` is one of ``torn`` (keep only a prefix of the flush),
    ``bitflip`` (flip one payload bit), ``drop`` (the flush never
    reaches the medium), ``read_error`` (the fetch fails with EIO),
    ``crash`` (tear the flush, then kill the process at the next crash
    gate), or ``crash_point`` (kill the process when recovery passes
    the named execution ``point``, e.g. ``recovery.epoch-replayed``).
    The fault fires on the ``nth`` operation (1-based) of ``target`` —
    for ``crash_point``, the nth time that *point* is passed — or
    independently with ``probability`` per operation; ``stream``
    restricts log faults to one named log stream.
    """

    kind: str
    target: str = "log"
    nth: Optional[int] = None
    probability: float = 0.0
    stream: Optional[str] = None
    #: Execution point a ``crash_point`` fault fires at.
    point: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in WRITE_KINDS + READ_KINDS + POINT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        if self.target not in TARGETS:
            raise ConfigError(f"unknown fault target {self.target!r}")
        if self.kind in WRITE_KINDS and self.target == "events":
            # Like a point no gate fires: the spec would be silently inert.
            raise ConfigError(
                f"{self.kind} fault can never fire on 'events': ingress "
                "appends are not routed through on_write"
            )
        if self.kind in POINT_KINDS and not self.point:
            raise ConfigError("crash_point fault needs a point name")
        if self.point is not None:
            # The central registry is the checked contract: a spec
            # naming a point no gate will ever fire is a config bug.
            validate_point(self.point)
        if self.kind not in POINT_KINDS and self.point is not None:
            raise ConfigError(f"{self.kind} fault does not take a point")
        if self.nth is None and self.probability <= 0.0:
            raise ConfigError("fault needs an nth index or a probability")
        if self.nth is not None and self.nth < 1:
            raise ConfigError("nth is 1-based and must be >= 1")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError("probability must be in [0, 1]")


@dataclass(frozen=True)
class InjectedFault:
    """Record of one fault that actually fired (for chaos reports)."""

    kind: str
    target: str
    context: str
    op_index: int


class FaultInjector:
    """Deterministic fault plan shared by the four stores of one disk."""

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        self._specs: List[FaultSpec] = list(specs)
        self._rng = random.Random(seed)
        self._write_counts = {t: 0 for t in TARGETS}
        self._read_counts = {t: 0 for t in TARGETS}
        self._point_counts: dict = {}
        self._consumed: set = set()
        self._armed = True
        #: Faults that fired, in order (the chaos report's evidence).
        self.injected: List[InjectedFault] = []
        #: A crash fault fired; the next crash gate must raise.
        self.crash_pending = False
        #: Total crashes fired over the injector's lifetime.
        self.crashes_fired = 0

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    @property
    def armed(self) -> bool:
        return self._armed

    def disarm(self) -> None:
        """Stop injecting (e.g. once the chaos scenario has played out)."""
        self._armed = False

    def arm(self) -> None:
        self._armed = True

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------

    def _fire(
        self,
        spec_index: int,
        spec: FaultSpec,
        category: str,
        count: int,
        stream: Optional[str],
    ) -> bool:
        if spec_index in self._consumed:
            return False
        if spec.target != "any" and spec.target != category:
            return False
        if spec.stream is not None and spec.stream != stream:
            return False
        if spec.nth is not None:
            if count != spec.nth:
                return False
            # nth faults are one-shot; probability faults keep firing.
            self._consumed.add(spec_index)
            return True
        return self._rng.random() < spec.probability

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------

    def on_write(
        self,
        category: str,
        context: str,
        blob: bytes,
        stream: Optional[str] = None,
    ) -> Optional[bytes]:
        """Filter one flush; returns the bytes that land, None if dropped."""
        self._write_counts[category] += 1
        self._write_counts["any"] += 1
        if not self._armed:
            return blob
        for idx, spec in enumerate(self._specs):
            if spec.kind not in WRITE_KINDS:
                continue
            count = self._write_counts[
                "any" if spec.target == "any" else category
            ]
            if not self._fire(idx, spec, category, count, stream):
                continue
            self.injected.append(
                InjectedFault(spec.kind, category, context, count)
            )
            if spec.kind == "torn":
                blob = blob[: int(len(blob) * TORN_FRACTION)]
            elif spec.kind == "bitflip":
                blob = self._flip_bit(blob)
            elif spec.kind == "drop":
                return None
            elif spec.kind == "crash":
                # The flush the crash interrupts is itself torn.
                blob = blob[: int(len(blob) * TORN_FRACTION)]
                self.crash_pending = True
                self.crashes_fired += 1
        return blob

    def on_read(
        self, category: str, context: str, stream: Optional[str] = None
    ) -> None:
        """Gate one fetch; raises :class:`ReadFaultError` if injected."""
        self._read_counts[category] += 1
        self._read_counts["any"] += 1
        if not self._armed:
            return
        for idx, spec in enumerate(self._specs):
            if spec.kind not in READ_KINDS:
                continue
            count = self._read_counts[
                "any" if spec.target == "any" else category
            ]
            if not self._fire(idx, spec, category, count, stream):
                continue
            self.injected.append(
                InjectedFault(spec.kind, category, context, count)
            )
            raise ReadFaultError(
                f"injected device read error (EIO) for {context}"
            )

    def at_point(self, point: str) -> None:
        """Crash gate at a named execution point inside recovery.

        Recovery calls this as it passes each milestone (e.g. right
        after persisting a progress watermark).  A matching
        ``crash_point`` fault raises :class:`InjectedCrash` on the spot,
        modelling the recovering process itself dying mid-recovery.

        The point name must be registered in :mod:`repro.crashpoints` —
        an unregistered gate raises :class:`ConfigError` so a typo'd or
        forgotten registration cannot silently shrink the explorable
        fault space.  Passes are counted even while disarmed, so
        coverage accounting sees every milestone crossed.
        """
        validate_point(point)
        count = self._point_counts.get(point, 0) + 1
        self._point_counts[point] = count
        if not self._armed:
            return
        for idx, spec in enumerate(self._specs):
            if spec.kind not in POINT_KINDS or spec.point != point:
                continue
            if not self._fire(idx, spec, spec.target, count, None):
                continue
            self.injected.append(
                InjectedFault(spec.kind, spec.target, point, count)
            )
            self.crashes_fired += 1
            raise InjectedCrash(
                f"injected crash during recovery at point {point!r}"
            )

    @property
    def points_passed(self) -> dict:
        """Crash-point pass counts: ``{point name: times crossed}``.

        The explorer's coverage accounting reads this after every run;
        a registered point that never appears here across a whole
        exploration marks a gate that has rotted away.
        """
        return dict(self._point_counts)

    def maybe_crash(self) -> None:
        """Crash gate: raise :class:`InjectedCrash` if a crash is pending."""
        if self.crash_pending:
            self.crash_pending = False
            raise InjectedCrash(
                "injected mid-epoch crash: process died after partial "
                "durable writes"
            )

    def _flip_bit(self, blob: bytes) -> bytes:
        """Flip one bit inside the payload region (past the CRC header)."""
        if len(blob) <= 8:
            return blob
        flipped = bytearray(blob)
        pos = 8 + self._rng.randrange(len(blob) - 8)
        flipped[pos] ^= 1 << self._rng.randrange(8)
        return bytes(flipped)
