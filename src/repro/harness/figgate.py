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
The record's ``config`` is :data:`GATE_SCALE`, the one input that
shapes its numbers; the tolerance judges a move and is not recorded.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Dict, Tuple

from repro import SCHEMES
from repro.harness import figures

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
GATE_SCALE = figures.FigureScale(96, 4, 3, 4, 7)

#: Relative drop of a speedup that ``repro gate fig11 --update`` accepts
#: when a deliberate recalibration moves the record.
GATE_TOLERANCE = 0.10


def compute_gate() -> Dict:
    """Measure MSR's speedup over every baseline on the gate workloads."""
    workloads: Dict[str, Dict[str, float]] = {}
    for app, factory in _gate_workloads().items():
        seconds = {
            name: figures._run(GATE_SCALE, factory, SCHEMES[name]).recovery.elapsed_seconds
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
        "config": asdict(GATE_SCALE),
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
