"""Fault-tolerance Manager (FM): marker orchestration (§IV, §VI-C).

The FM injects three marker types at reconfigurable intervals:

- **transaction markers** delimit punctuation epochs (the transition
  between stream processing and transaction processing) — every epoch;
- **commit markers** tell the Logging Manager to persist buffered
  intermediate results — every ``commit_every`` epochs (aligned with
  transaction markers by default);
- **snapshot markers** command a global state checkpoint — every
  ``snapshot_every`` epochs.

When an :class:`~repro.core.commitment.AdaptiveCommitController` is
attached, the FM re-derives the commit interval from the most recent
workload profile after each snapshot, implementing the workload-aware
commitment of §VI-B at the orchestration level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from repro.core.commitment import AdaptiveCommitController, WorkloadProfile
from repro.errors import ConfigError

TRANSACTION = "transaction"
COMMIT = "commit"
SNAPSHOT = "snapshot"


@dataclass
class MarkerSchedule:
    """Marker intervals, in punctuation epochs."""

    commit_every: int = 1
    snapshot_every: int = 4

    def __post_init__(self) -> None:
        if self.commit_every < 1:
            raise ConfigError("commit_every must be >= 1")
        if self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be >= 1")
        if self.snapshot_every % self.commit_every:
            raise ConfigError(
                "snapshot_every must be a multiple of commit_every so "
                "checkpoints always sit on commit boundaries"
            )


class FaultToleranceManager:
    """Decides which markers fire at the end of each epoch."""

    def __init__(
        self,
        schedule: Optional[MarkerSchedule] = None,
        controller: Optional[AdaptiveCommitController] = None,
        base_epoch_len: int = 512,
    ):
        self.schedule = schedule or MarkerSchedule()
        self.controller = controller
        self._epoch_len = base_epoch_len

    @property
    def epoch_len(self) -> int:
        """Current punctuation interval in events."""
        return self._epoch_len

    def markers_at(self, epoch_id: int) -> Set[str]:
        """Markers firing at the end of epoch ``epoch_id`` (0-based)."""
        markers = {TRANSACTION}
        if (epoch_id + 1) % self.schedule.commit_every == 0:
            markers.add(COMMIT)
        if (epoch_id + 1) % self.schedule.snapshot_every == 0:
            markers.add(SNAPSHOT)
        return markers

    def observe(self, profile: WorkloadProfile) -> None:
        """Feed the latest epoch profile to the adaptive controller."""
        if self.controller is not None:
            self._epoch_len = self.controller.recommend(profile)
