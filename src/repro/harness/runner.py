"""Run one fault-tolerance experiment: runtime → crash → recovery.

The runner sizes the stream so the crash lands ``recover_epochs``
punctuation epochs after the last checkpoint (snapshots fire every
``snapshot_interval`` epochs, so ``recover_epochs`` must stay below
it), then verifies two things against the serial ground truth:

1. the recovered state equals the state an ideal serial executor
   reaches at the crash point (correctness guarantee, §II-C);
2. the output sink holds exactly one output per event, each equal to
   the ground-truth output (delivery guarantee, §II-C).

Verification failures raise :class:`~repro.errors.RecoveryError` —
an experiment must never silently report timings for a wrong recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Type

# ground_truth is re-exported: examples and tests import it here.
from repro.engine.verify import ground_truth, verify_exact
from repro.errors import ConfigError, RecoveryError
from repro.ft.base import FTScheme, RecoveryReport, RuntimeReport
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.workloads.base import Workload


@dataclass
class ExperimentConfig:
    """One (workload, scheme) crash-recovery experiment."""

    workload_factory: Callable[[], Workload]
    scheme: Type[FTScheme]
    num_workers: int = 8
    epoch_len: int = 512
    snapshot_interval: int = 5
    #: Epochs lost between the last checkpoint and the crash.
    recover_epochs: int = 4
    seed: int = 7
    costs: CostModel = DEFAULT_COSTS
    scheme_kwargs: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.recover_epochs < self.snapshot_interval:
            raise ConfigError(
                "recover_epochs must be in [0, snapshot_interval) so the "
                "crash lands between checkpoints"
            )

    @property
    def total_epochs(self) -> int:
        return self.snapshot_interval + self.recover_epochs

    @property
    def num_events(self) -> int:
        return self.epoch_len * self.total_epochs


@dataclass
class ExperimentResult:
    """Reports plus verification verdicts of one experiment."""

    scheme: str
    runtime: RuntimeReport
    recovery: Optional[RecoveryReport]
    state_verified: bool
    outputs_verified: bool
    events_total: int


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute one experiment end to end and verify it.

    Schemes that cannot recover (NAT) run the runtime phase only and
    report ``recovery=None``.
    """
    workload = config.workload_factory()
    events = workload.generate(config.num_events, config.seed)
    scheme = config.scheme(
        workload,
        num_workers=config.num_workers,
        epoch_len=config.epoch_len,
        snapshot_interval=config.snapshot_interval,
        costs=config.costs,
        **config.scheme_kwargs,
    )
    runtime = scheme.process_stream(events)

    if not scheme.persists_events:
        return ExperimentResult(
            scheme=scheme.name,
            runtime=runtime,
            recovery=None,
            state_verified=True,
            outputs_verified=True,
            events_total=len(events),
        )

    # With an adaptive commitment controller the punctuation interval
    # may change mid-stream, leaving a pending tail; verify against
    # exactly the prefix that was processed into epochs.
    processed = runtime.events_processed
    scheme.crash()
    recovery = scheme.recover()
    verdict = verify_exact(
        scheme.store, scheme.sink.outputs(), workload, events[:processed]
    )
    recovery.state_verified = verdict.state_exact
    if not verdict:
        raise RecoveryError(
            f"{scheme.name}: recovery diverges from the serial ground "
            f"truth: {verdict.detail}"
        )

    return ExperimentResult(
        scheme=scheme.name,
        runtime=runtime,
        recovery=recovery,
        state_verified=verdict.state_exact,
        outputs_verified=verdict.outputs_exact,
        events_total=processed,
    )
