"""Calibration battery: the shipped cost model satisfies every claim.

This is the single test that would catch a future miscalibration: it
runs the same claim battery as ``repro calibrate --quick``, at a mid
scale large enough for every claim to manifest.
"""

from __future__ import annotations

import pytest

from repro import cli
from repro.harness.calibration import (
    QUICK_CALIBRATION_SCALE,
    CalibrationCheck,
    all_hold,
    run_calibration,
)


@pytest.fixture(scope="module")
def checks():
    return run_calibration(QUICK_CALIBRATION_SCALE)


def test_quick_calibrate_runs_the_tested_scale(monkeypatch, capsys):
    """``repro calibrate --quick`` runs the battery at the scale this
    file checks it at, not at the figures' smaller quick scale."""
    seen = []

    def fake_battery(scale):
        seen.append(scale)
        return [CalibrationCheck("claim", "ref", True, "detail")]

    monkeypatch.setattr(cli, "run_calibration", fake_battery)
    assert cli.main(["calibrate", "--quick"]) == 0
    assert seen == [QUICK_CALIBRATION_SCALE]
    assert "all claims hold" in capsys.readouterr().out


def test_battery_covers_the_claim_surface(checks):
    claims = {c.claim for c in checks}
    assert len(claims) == len(checks)  # no duplicate ids
    assert len(claims) >= 15
    # Every evaluation theme is represented.
    for fragment in (
        "msr-fastest-recovery",
        "wal-slowest",
        "ckpt-least-runtime",
        "msr-scales",
        "lv-best-at-uniform",
        "selective-logging",
    ):
        assert any(fragment in claim for claim in claims), fragment


def test_every_check_carries_a_reference_and_detail(checks):
    for check in checks:
        assert isinstance(check, CalibrationCheck)
        assert check.reference
        assert check.detail


def test_shipped_cost_model_satisfies_all_claims(checks):
    failing = [c for c in checks if not c.holds]
    assert all_hold(checks), [
        (c.claim, c.detail) for c in failing
    ]
