"""The Fig. 11 record: exact regeneration, the comparer and its bands.

``BENCH_fig11.json`` pins MSR's recovery speedup over every baseline.
Virtual time is bit-deterministic, so ``repro gate fig11`` requires
:func:`compute_gate` to regenerate the record exactly and names every
number that moved.  A deliberate move is written by ``--update`` only
while :func:`fig11_claims` hold: each speedup keeps 0.9 of the committed
one and stays above 1.0.
"""

from __future__ import annotations

import copy
import json
import math
import shutil

import pytest

from repro.cli import main
from repro.harness import figgate
from repro.harness.calibration import all_hold, fig11_claims
from repro.harness.export import MISSING, diff_records, write_json
from tests.conftest import REPO_ROOT, nudged, numeric_leaves

BASELINE_PATH = REPO_ROOT / "BENCH_fig11.json"
COMMITTED = json.loads(BASELINE_PATH.read_text())


@pytest.fixture(scope="module")
def current():
    """One gate measurement shared by the module (virtual time, ~1s)."""
    return figgate.compute_gate()


def _failed(checks):
    return [check.claim for check in checks if not check.holds]


def _speedup_record(speedup):
    return {"workloads": {"SL": {"msr_speedup": {"PACMAN": speedup}}}}


@pytest.fixture
def record_dir(tmp_path, monkeypatch):
    """A working directory holding a copy of the committed record."""
    shutil.copy(BASELINE_PATH, tmp_path / BASELINE_PATH.name)
    monkeypatch.chdir(tmp_path)
    return tmp_path / BASELINE_PATH.name


class TestCompareGate:
    def test_identical_payloads_pass(self, current):
        assert diff_records(current, current) == []
        assert all_hold(fig11_claims(current, current))

    def test_schema_mismatch_fails_with_regenerate_hint(self, record_dir, capsys):
        stale = copy.deepcopy(COMMITTED)
        stale["schema"] = "bench-fig11/v0"
        write_json(record_dir, stale)
        assert main(["gate", "fig11"]) == 1
        out = capsys.readouterr().out
        assert "bench-fig11/v0" in out and figgate.GATE_SCHEMA in out
        assert "repro gate fig11 --update" in out

    def test_speedup_regression_trips_the_floor(self, current):
        """MSR losing more than the tolerance vs a committed speedup fails
        that (workload, scheme) pair's floor claim, and only that one."""
        slowed = copy.deepcopy(current)
        app = next(iter(slowed["workloads"]))
        row = slowed["workloads"][app]["msr_speedup"]
        scheme = next(iter(row))
        row[scheme] *= 1.0 - 2 * figgate.GATE_TOLERANCE
        assert _failed(fig11_claims(current, slowed)) == [f"fig11-floor-{app}-{scheme}"]

    def test_within_tolerance_drift_passes(self, current):
        """Drift inside the band is a moved number to the exact gate, and
        a move ``--update`` may write."""
        drifted = copy.deepcopy(current)
        for row in drifted["workloads"].values():
            for scheme in row["msr_speedup"]:
                # Stay above the absolute >1.0x headline floor — that
                # check is deliberately insensitive to the tolerance.
                row["msr_speedup"][scheme] = max(
                    row["msr_speedup"][scheme]
                    * (1.0 - 0.5 * figgate.GATE_TOLERANCE),
                    1.001,
                )
        assert diff_records(current, drifted)
        assert all_hold(fig11_claims(current, drifted))

    def test_msr_losing_outright_always_fails(self, current):
        """Speedup <= 1.0 fails the headline claim even against a
        committed speedup low enough to pass the floor."""
        beaten = copy.deepcopy(current)
        permissive = copy.deepcopy(current)
        app = next(iter(beaten["workloads"]))
        scheme = next(iter(beaten["workloads"][app]["msr_speedup"]))
        beaten["workloads"][app]["msr_speedup"][scheme] = 0.9
        permissive["workloads"][app]["msr_speedup"][scheme] = 0.5
        assert _failed(fig11_claims(permissive, beaten)) == [f"fig11-beats-{app}-{scheme}"]

    def test_missing_scheme_is_reported(self, current):
        partial = copy.deepcopy(current)
        app = next(iter(partial["workloads"]))
        was = partial["workloads"][app]["msr_speedup"].pop("PACMAN")
        assert diff_records(current, partial) == [
            (f"workloads.{app}.msr_speedup.PACMAN", was, MISSING)
        ]
        assert _failed(fig11_claims(current, partial)) == [
            f"fig11-floor-{app}-PACMAN",
            f"fig11-beats-{app}-PACMAN",
        ]

    @pytest.mark.parametrize(
        "keys", list(numeric_leaves(COMMITTED)), ids=".".join
    )
    def test_one_ulp_move_is_named(self, keys):
        moved, old, new = nudged(COMMITTED, keys)
        assert diff_records(COMMITTED, moved) == [(".".join(keys), old, new)]


class TestBands:
    def test_floor_holds_at_its_bound_and_fails_one_step_past(self):
        committed = _speedup_record(2.0)
        at_floor = 1.8  # 0.9 x 2.0
        assert all_hold(fig11_claims(committed, _speedup_record(at_floor)))
        past = _speedup_record(math.nextafter(at_floor, 0.0))
        assert _failed(fig11_claims(committed, past)) == ["fig11-floor-SL-PACMAN"]

    def test_msr_must_beat_the_baseline_strictly(self):
        committed = _speedup_record(1.0)
        above = _speedup_record(math.nextafter(1.0, 2.0))
        assert all_hold(fig11_claims(committed, above))
        assert _failed(fig11_claims(committed, _speedup_record(1.0))) == [
            "fig11-beats-SL-PACMAN"
        ]


class TestGateCommand:
    def test_one_ulp_nudge_fails_and_prints_the_path(self, record_dir, capsys):
        moved, old, new = nudged(COMMITTED, ("workloads", "SL", "msr_speedup", "PACMAN"))
        write_json(record_dir, moved)
        assert main(["gate", "fig11"]) == 1
        out = capsys.readouterr().out
        assert "workloads.SL.msr_speedup.PACMAN" in out
        assert repr(new) in out and repr(old) in out
        assert "FIG11 GATE FAILED" in out

    def test_update_with_a_failing_claim_leaves_the_record_untouched(
        self, record_dir, capsys
    ):
        inflated = copy.deepcopy(COMMITTED)
        inflated["workloads"]["SL"]["msr_speedup"]["PACMAN"] *= 10
        write_json(record_dir, inflated)
        before = record_dir.read_bytes()
        assert main(["gate", "fig11", "--update"]) == 1
        assert record_dir.read_bytes() == before
        out = capsys.readouterr().out
        assert "FAIL" in out and "fig11-floor-SL-PACMAN" in out
        assert "left untouched" in out

    def test_update_within_the_bands_rewrites_the_record(self, record_dir, capsys):
        moved, _old, _new = nudged(COMMITTED, ("workloads", "SL", "msr_speedup", "PACMAN"))
        write_json(record_dir, moved)
        assert main(["gate", "fig11", "--update"]) == 0
        assert record_dir.read_bytes() == BASELINE_PATH.read_bytes()
        assert main(["gate", "fig11"]) == 0

    def test_record_must_be_in_the_working_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["gate", "fig11"]) == 2
        assert "repository root" in capsys.readouterr().out


class TestCommittedBaseline:
    def test_gate_passes_against_committed_baseline(self, current, tmp_path):
        """The CI guard itself: today's code regenerates the committed
        record byte for byte."""
        write_json(tmp_path / "fig11.json", current)
        assert (tmp_path / "fig11.json").read_bytes() == BASELINE_PATH.read_bytes()

    def test_baseline_covers_every_strong_baseline(self):
        assert COMMITTED["schema"] == figgate.GATE_SCHEMA
        for row in COMMITTED["workloads"].values():
            assert set(row["msr_speedup"]) == set(figgate.GATE_BASELINES)
            # The headline held when the baseline was committed.
            assert all(s > 1.0 for s in row["msr_speedup"].values())

    def test_describe_mentions_every_workload(self, current):
        text = figgate.describe_gate(current)
        for app in current["workloads"]:
            assert app in text
