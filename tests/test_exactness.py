"""The one exactness check, and the divergence diagnostic at every caller.

``repro.engine.verify.verify_exact`` is the single place a run is
compared with the serial ground truth (§II-C's two guarantees).  The
harnesses differ only in what they do with a failed verdict: the chaos
sweep reports a failing cell, the fault-run driver records an
observation, ``run_experiment`` raises.  All three must *name the
records that differ*.  A read served while the node is down has its own
single check, ``stale_read_error``, which the soak and the checker share.
"""

from __future__ import annotations

import pytest

from repro.check.invariants import check_observation
from repro.check.runner import CheckConfig, run_schedule
from repro.check.schedule import Schedule
from repro.engine.state import StateStore
from repro.engine.verify import Exactness, ground_truth, stale_read_error, verify_exact
from repro.errors import RecoveryError
from repro.ft.checkpoint import GlobalCheckpoint
from repro.ft.reports import DegradedRead
from repro.harness.chaos import ChaosConfig, cells, run_cell
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.workloads.streaming_ledger import StreamingLedger


def _chaos_cell() -> str:
    run = run_cell(cells(ChaosConfig(schemes=("CKPT",)))[0])
    assert not run.ok and run.outcome == "UNEXPECTED"
    assert run.detail.startswith("SILENT DIVERGENCE: state diverges: [")
    return run.detail


def _run_schedule() -> str:
    obs = run_schedule(Schedule("CKPT", ()), CheckConfig().scenario)
    assert obs.outcome == "recovered"
    assert (obs.state_exact, obs.outputs_exact) == (False, True)
    assert obs.detail.startswith("state diverges: [")
    assert [v.invariant for v in check_observation(obs)] == [
        "recovered-state-exact"
    ]
    return obs.detail


def _run_experiment() -> str:
    config = ExperimentConfig(
        workload_factory=lambda: StreamingLedger(64, num_partitions=4),
        scheme=GlobalCheckpoint,
        num_workers=4,
        epoch_len=32,
        snapshot_interval=3,
        recover_epochs=2,
    )
    with pytest.raises(RecoveryError, match="CKPT: recovery diverges") as err:
        run_experiment(config)
    return str(err.value)


@pytest.mark.parametrize(
    "site", [_chaos_cell, _run_schedule, _run_experiment], ids=lambda f: f.__name__[1:]
)
def test_divergence_diagnostic_names_the_corrupted_record(site, diverging_ckpt):
    detail = site()
    assert repr(diverging_ckpt[0]) in detail


class TestVerifyExact:
    @pytest.fixture
    def run(self, sl):
        events = sl.generate(96, seed=3)
        store, outputs = ground_truth(sl, events)
        return sl, events, store, outputs

    def test_the_serial_run_is_exact(self, run):
        workload, events, store, outputs = run
        verdict = verify_exact(store, outputs, workload, events)
        assert verdict == Exactness(True, True, "")
        assert verdict

    def test_state_divergence_names_the_differing_records(self, run):
        workload, events, store, outputs = run
        ref = next(iter(store.refs()))
        store.set(ref, store.get(ref) + 1.0)
        verdict = verify_exact(store, outputs, workload, events)
        assert not verdict
        assert (verdict.state_exact, verdict.outputs_exact) == (False, True)
        assert verdict.detail.startswith("state diverges: [")
        assert repr(ref) in verdict.detail

    def test_a_lost_and_a_changed_output_are_both_named(self, run):
        workload, events, store, outputs = run
        del outputs[5]
        outputs[9] = ("tampered",)
        verdict = verify_exact(store, outputs, workload, events)
        assert (verdict.state_exact, verdict.outputs_exact) == (True, False)
        assert verdict.detail == "outputs diverge (seqs [5, 9])"

    def test_only_the_processed_prefix_is_claimed(self, run):
        workload, events, store, outputs = run
        assert not verify_exact(store, outputs, workload, events[:64])


def _truth_after(epoch: int) -> StateStore:
    """A serial run whose only record reads 100 x (epochs completed)."""
    return StateStore({"t": {0: 100.0 * (epoch + 1)}})


#: (read, what stale_read_error says) against crash epoch 5.
STALE_READ_CASES = {
    "correct-stale": (DegradedRead("t", 0, 400.0, 3, 2), None),
    "correct-fresh": (DegradedRead("t", 0, 600.0, 5, 0, stale=False), None),
    "wrong-value": (
        DegradedRead("t", 0, 999.0, 3, 2),
        "stale value 999.0 is not the ground truth 400.0 at checkpoint 3",
    ),
    "wrong-label": (
        DegradedRead("t", 0, 400.0, 3, 1),
        "staleness label 1 != actual lag 5 - 3",
    ),
    "checkpoint-after-crash": (
        DegradedRead("t", 0, 700.0, 6, -1),
        "checkpoint 6 is newer than crash epoch 5",
    ),
}


@pytest.mark.parametrize("case", sorted(STALE_READ_CASES))
def test_stale_read_error(case):
    read, expected = STALE_READ_CASES[case]
    assert stale_read_error(read, 5, _truth_after) == expected
