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
    smoke_config,
)
from repro.harness.runner import (
    ExperimentConfig,
    ExperimentResult,
    ground_truth,
    run_experiment,
)
from repro.harness.slo import (
    GateResult,
    GateTolerance,
    SLOTargets,
    SLOVerdict,
    evaluate_slo,
    regression_gate,
)
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
    "smoke_config",
    "SLOTargets",
    "SLOVerdict",
    "evaluate_slo",
    "GateTolerance",
    "GateResult",
    "regression_gate",
    "SoakConfig",
    "SoakMetrics",
    "SoakResult",
    "run_soak",
    "smoke_configs",
]
