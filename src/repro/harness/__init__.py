"""Experiment harness: crash-injection runner, verification, reporting.

:mod:`repro.harness.runner` runs one (workload, scheme) experiment —
runtime phase, crash, recovery — and verifies the recovered state and
exactly-once outputs against the serial ground truth.
:mod:`repro.harness.figures` defines every paper-figure experiment on
top of it; :mod:`repro.harness.report` renders the printed tables.
"""

from repro.harness.chaos import (
    ChaosConfig,
    ChaosReport,
    ChaosRun,
    run_chaos,
)
from repro.harness.runner import (
    ExperimentConfig,
    ExperimentResult,
    ground_truth,
    run_experiment,
)
from repro.harness.slo import SLOTargets, SLOVerdict, evaluate_slo
from repro.harness.soak import (
    SoakConfig,
    SoakMetrics,
    SoakResult,
    run_soak,
    smoke_configs,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "ground_truth",
    "ChaosConfig",
    "ChaosReport",
    "ChaosRun",
    "run_chaos",
    "SLOTargets",
    "SLOVerdict",
    "evaluate_slo",
    "SoakConfig",
    "SoakMetrics",
    "SoakResult",
    "run_soak",
    "smoke_configs",
]
