"""The figures' run table: each distinct experiment runs once per process.

Workloads are hashable specs, so ``figures._run`` can key one in-memory
table by (scale, workload, scheme, scheme kwargs).  These tests pin what
sharing saves (Fig. 2, 12c and 12d are three views of one SL sweep;
Fig. 12a adds only NAT to Fig. 11's runs) and that sharing is safe: no
figure can change what another reads.
"""

from __future__ import annotations

import pytest

from repro.harness import figures
from repro.harness.figures import FIGURES, QUICK_SCALE, FigureScale

#: Small enough that counting runs costs little; no other test uses it.
TINY_SCALE = FigureScale(epoch_len=16, snapshot_interval=2, recover_epochs=1,
                         num_workers=2)


@pytest.fixture
def count_runs(monkeypatch):
    """Empty the table and count the experiments that actually run."""
    calls = []
    real = figures.run_experiment

    def counted(config):
        calls.append(config)
        return real(config)

    monkeypatch.setattr(figures, "run_experiment", counted)
    figures._run.cache_clear()
    return calls


def test_fig2_12c_12d_share_one_sl_sweep(count_runs):
    figures.fig2_motivation(TINY_SCALE)
    figures.fig12c_memory(TINY_SCALE)
    figures.fig12d_overhead(TINY_SCALE)
    assert len(count_runs) == len(figures.RUNTIME_SCHEMES) == 8


def test_fig12a_reruns_nothing_fig11_ran(count_runs):
    figures.fig11_breakdown(TINY_SCALE)
    assert len(count_runs) == 3 * len(figures.RECOVERY_SCHEMES) == 21
    figures.fig12a_runtime(TINY_SCALE)
    assert len(count_runs) == 3 * len(figures.RUNTIME_SCHEMES) == 24


def test_workload_specs_are_equal_data():
    assert figures.sl_factory() == figures.sl_factory(num_partitions=8)
    assert hash(figures.gs_factory(skew=0.0)) == hash(figures.gs_factory(skew=0.0))
    assert figures.sl_factory() != figures.sl_factory(skew=0.2)
    workload = figures.tp_factory(skew=0.1)()
    assert (workload.skew, workload.num_partitions) == (0.1, 8)


def test_a_figure_reads_the_same_cold_and_after_every_other():
    """Every figure at ``QUICK_SCALE``: computed after all the others
    have read the shared runs, then alone on an empty table."""
    for fn, _description in FIGURES.values():
        fn(QUICK_SCALE)
    after = {name: fn(QUICK_SCALE) for name, (fn, _d) in FIGURES.items()}
    for name, (fn, _description) in FIGURES.items():
        figures._run.cache_clear()
        assert fn(QUICK_SCALE) == after[name], name
