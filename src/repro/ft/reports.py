"""What a scheme reports: runtime, recovery, per-epoch and stale-read
records (re-exported from :mod:`repro.ft.base` and :mod:`repro.ft`)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class RuntimeReport:
    """What one runtime phase measured (feeds Figs. 2, 12a, 12c, 12d)."""

    scheme: str
    events_processed: int
    epochs: int
    elapsed_seconds: float
    throughput_eps: float
    buckets: Dict[str, float]
    bytes_logged: int
    bytes_snapshotted: int
    bytes_events: int
    peak_memory_bytes: int
    #: cumulative bytes written for checkpoints over the run (unlike
    #: ``bytes_snapshotted``, which is what remains on disk after GC).
    snapshot_bytes_written: int = 0


@dataclass(frozen=True)
class DegradedRead:
    """One read served stale from durable state while the node is down.

    Degraded-mode serving (bounded staleness): while recovery is in
    flight, reads may be answered from the newest *readable* checkpoint
    instead of failing.  Every answer is explicitly tagged with its
    staleness bound so downstream consumers can tell a stale value from
    a fresh one — ``staleness_epochs`` is the number of acknowledged
    epochs the serving view lags the crash point (0 means the
    checkpoint landed exactly at the crash epoch).
    """

    table: str
    key: object
    value: float
    #: epoch of the checkpoint that served the read.
    checkpoint_epoch: int
    #: acknowledged epochs the value may be behind (the staleness bound).
    staleness_epochs: int
    #: False when a live node answered with fresh state (cluster mode,
    #: key owned by a surviving shard) — no staleness bound applies.
    stale: bool = True


@dataclass(frozen=True)
class FallbackEvent:
    """One rung the recovery ladder had to step down (for reports)."""

    epoch_id: int
    error: str
    detail: str
    rung: str = "replay"


@dataclass
class RecoveryReport:
    """What one recovery phase measured (feeds Figs. 2, 11, 13, 14).

    One report is made per ``recover()`` attempt and filled in as the
    attempt advances; the counters up to ``checkpoint_fallbacks`` are
    what a progress watermark persists and a resumed attempt restores.
    """

    scheme: str
    events_replayed: int = 0
    epochs_replayed: int = 0
    elapsed_seconds: float = 0.0
    throughput_eps: float = 0.0
    buckets: Dict[str, float] = field(default_factory=dict)
    state_verified: Optional[bool] = None
    #: rung name -> epochs recovered via that rung ("fast" = the
    #: scheme's own mechanism, "replay" = event-reprocessing fallback).
    ladder: Dict[str, int] = field(default_factory=dict)
    #: per-epoch degradations, in replay order.
    fallbacks: List[FallbackEvent] = field(default_factory=list)
    #: the checkpoint recovery actually restored from.
    checkpoint_epoch: Optional[int] = None
    #: unreadable checkpoints skipped before one verified.
    checkpoint_fallbacks: int = 0
    #: checkpoint epochs on disk when the ladder walked them, newest
    #: first (empty when this run resumed past the ladder) — lets a
    #: checker assert the ladder took rungs in order without guessing
    #: what recovery saw after crash-debris discard.
    checkpoint_candidates: List[int] = field(default_factory=list)
    #: this run resumed from a durable progress watermark.
    resumed: bool = False
    #: first epoch this run actually replayed when resuming (None when
    #: the run started from the checkpoint).
    resumed_from_epoch: Optional[int] = None
    #: progress watermarks persisted across all attempts of this crash.
    watermark_saves: int = 0
    #: re-assignment rounds the resilient executor ran (worker deaths).
    reassign_rounds: int = 0
    #: tasks moved off dead workers onto survivors.
    tasks_reassigned: int = 0
    #: workers whose death affected the schedule.
    dead_workers: Tuple[int, ...] = ()
    #: events replayed by failed attempts and replayed again because no
    #: watermark covered them (cumulative across attempts).
    wasted_events: int = 0
    #: chains re-executed inside the idempotently re-run in-flight epoch.
    wasted_chains: int = 0
    #: recover() invocations for this crash, including this one.
    attempts: int = 1
    #: virtual seconds across *all* attempts of this crash, including
    #: the time failed attempts burned before dying (true MTTR).
    elapsed_total_seconds: float = 0.0
    #: durable progress watermarks found damaged (torn/corrupt slot) and
    #: discarded — each one silently degraded an attempt to a fresh
    #: start, which only costs speed but is worth surfacing.
    watermark_degradations: int = 0

    def degraded(self) -> bool:
        """True when any rung below the fast path was taken."""
        return bool(self.fallbacks) or self.checkpoint_fallbacks > 0


@dataclass(frozen=True)
class EpochStats:
    """Per-epoch runtime observability (volatile; for dashboards/tests).

    Recorded after every processed epoch.  ``epoch_len`` captures the
    punctuation interval in force when the epoch was formed, so the
    adaptive commitment controller's decisions are visible as a time
    series.
    """

    epoch_id: int
    num_events: int
    num_aborted: int
    elapsed_seconds: float
    throughput_eps: float
    log_bytes_delta: int
    epoch_len: int
