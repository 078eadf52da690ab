"""Fig. 11 record: MSR's recovery speedup over every baseline.

The baselines fight back (PACMAN parallel redo, compressed Taurus
vectors), so the headline claim — MSR recovers fastest — is falsifiable
by any cost-model or scheduler change.  :func:`compute_gate` reruns a
reduced, deterministic Fig. 11-style recovery comparison; its output is
committed as ``BENCH_fig11.json``.

Everything here runs on the virtual-clock simulator, so the measured
seconds are bit-deterministic across runs and machines: ``repro gate
fig11`` requires the record to regenerate exactly.  A deliberate move
is committed with ``repro gate fig11 --update``, which first checks
that each speedup stays within :data:`GATE_TOLERANCE` of the committed
one and above 1.0 (:func:`repro.harness.calibration.fig11_claims`).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro import SCHEMES
from repro.harness import figures
from repro.harness.runner import ExperimentConfig, run_experiment

#: Format marker for the exported payload.
GATE_SCHEMA = "bench-fig11/v1"

#: Schemes the gate compares against MSR — every recovery baseline,
#: including the two strong ones this gate exists to guard against.
GATE_BASELINES: Tuple[str, ...] = ("CKPT", "WAL", "PACMAN", "DL", "LV", "LVC")

#: Workloads the gate measures: the dependency-heavy default ledger
#: (where restructuring wins) and the low-dependency Grep&Sum sweep
#: point (where PACMAN's zero-sync redo is strongest — the hardest
#: point for MSR to defend).
def _gate_workloads() -> Dict[str, Callable]:
    return {
        "SL": figures.sl_factory(),
        "GS-lowdep": figures.gs_factory(
            skew=0.0, multi_partition_ratio=0.0, abort_ratio=0.0
        ),
    }


#: Reduced, CI-sized experiment scale (deterministic virtual time).
GATE_EPOCH_LEN = 96
GATE_SNAPSHOT_INTERVAL = 4
GATE_RECOVER_EPOCHS = 3
GATE_WORKERS = 4
GATE_SEED = 7

#: Relative drop of a speedup that ``repro gate fig11 --update`` accepts
#: when a deliberate recalibration moves the record.  Also written into
#: the record's ``config``; nothing reads it back from there.
GATE_TOLERANCE = 0.10


def _recovery_seconds(scheme_name: str, factory: Callable) -> float:
    config = ExperimentConfig(
        workload_factory=factory,
        scheme=SCHEMES[scheme_name],
        num_workers=GATE_WORKERS,
        epoch_len=GATE_EPOCH_LEN,
        snapshot_interval=GATE_SNAPSHOT_INTERVAL,
        recover_epochs=GATE_RECOVER_EPOCHS,
        seed=GATE_SEED,
    )
    result = run_experiment(config)
    assert result.recovery is not None
    return result.recovery.elapsed_seconds


def compute_gate() -> Dict:
    """Measure MSR's speedup over every baseline on the gate workloads."""
    workloads: Dict[str, Dict[str, float]] = {}
    for app, factory in _gate_workloads().items():
        seconds = {
            name: _recovery_seconds(name, factory)
            for name in ("MSR",) + GATE_BASELINES
        }
        msr = seconds["MSR"]
        workloads[app] = {
            "recovery_seconds": seconds,
            "msr_speedup": {
                name: seconds[name] / msr for name in GATE_BASELINES
            },
        }
    return {
        "schema": GATE_SCHEMA,
        "config": {
            "epoch_len": GATE_EPOCH_LEN,
            "snapshot_interval": GATE_SNAPSHOT_INTERVAL,
            "recover_epochs": GATE_RECOVER_EPOCHS,
            "num_workers": GATE_WORKERS,
            "seed": GATE_SEED,
            "tolerance": GATE_TOLERANCE,
        },
        "workloads": workloads,
    }


def describe_gate(payload: Dict) -> str:
    lines = []
    for app, row in payload["workloads"].items():
        speedups = ", ".join(
            f"{scheme} {ratio:.2f}x"
            for scheme, ratio in sorted(
                row["msr_speedup"].items(), key=lambda kv: kv[1]
            )
        )
        lines.append(f"{app}: MSR speedup over baselines — {speedups}")
    return "\n".join(lines)
