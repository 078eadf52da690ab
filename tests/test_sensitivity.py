"""Cost-model sensitivity: orderings survive ±30% on any one constant.

docs/cost-model.md claims the headline orderings are driven by
structure, not knife-edge calibration.  This test perturbs each
influential constant by ±30% (one at a time) and asserts the Fig. 2
orderings still hold on Streaming Ledger.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest

from repro.harness.figures import FigureScale, RECOVERY_SCHEMES, sl_factory
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.sim.costs import DEFAULT_COSTS

SCALE = FigureScale(epoch_len=128, snapshot_interval=4, recover_epochs=3)

#: The constants with the most structural leverage.
PERTURBED = [
    "state_access",
    "sync_handoff",
    "remote_fetch",
    "rebuild_edge",
    "lsn_vector_entry",
    "sort_per_element",
    "view_record",
    "abort_transaction",
]


def _orderings(costs):
    recovery = {}
    runtime = {}
    for name, scheme in RECOVERY_SCHEMES.items():
        # Built here with the perturbed costs, so that no perturbed run
        # reaches the figures' run table.
        result = run_experiment(
            ExperimentConfig(
                workload_factory=sl_factory(), scheme=scheme, costs=costs,
                **asdict(SCALE),
            )
        )
        recovery[name] = result.recovery.elapsed_seconds
        runtime[name] = result.runtime.throughput_eps
    return recovery, runtime


@pytest.mark.parametrize("constant", PERTURBED)
@pytest.mark.parametrize("factor", [0.7, 1.3])
def test_fig2_orderings_survive_single_constant_perturbation(
    constant, factor
):
    perturbed = replace(
        DEFAULT_COSTS, **{constant: getattr(DEFAULT_COSTS, constant) * factor}
    )
    recovery, runtime = _orderings(perturbed)
    # The two headline claims:
    assert min(recovery, key=recovery.get) == "MSR", (constant, factor, recovery)
    assert max(recovery, key=recovery.get) == "WAL", (constant, factor, recovery)
    # MSR stays ahead of the log-based schemes at runtime.
    for name in ("WAL", "DL", "LV"):
        assert runtime["MSR"] > runtime[name] * 0.98, (constant, factor, name)
