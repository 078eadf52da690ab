"""The claim battery: every paper-figure claim, one test id each.

The battery (:mod:`repro.harness.calibration`) runs once per session at
``repro calibrate --quick``'s scale (192-event epochs); CI's "Paper
claims at benchmark scale" step runs it at ``DEFAULT_SCALE``.
"""

from __future__ import annotations

import math

import pytest

from repro import cli
from repro.harness import figures
from repro.harness.calibration import QUICK_CALIBRATION_SCALE, CalibrationCheck

#: Every claim id, in battery order.  A dropped or renamed claim fails
#: :func:`test_battery_covers_the_claim_surface`.
CLAIMS = (
    "fig2-nat-fastest-runtime-no-recovery",
    "fig2-msr-recovers-fastest",
    "fig2-wal-recovers-slowest",
    "fig2-dependency-trackers-slower-than-ckpt",
    "fig2-msr-runtime-above-wal",
    "fig9-lsfd-largest-epoch-recovers-best",
    "fig9-hsmd-runtime-prefers-small-epochs",
    "fig9-high-skew-recovery-prefers-large-epochs",
    "fig11-msr-fastest-recovery-SL",
    "fig11-msr-speedup-SL",
    "fig11-msr-fastest-recovery-GS",
    "fig11-msr-speedup-GS",
    "fig11-msr-fastest-recovery-TP",
    "fig11-msr-speedup-TP",
    "fig11-wal-wait-dominates",
    "fig11-wal-reload-largest",
    "fig11-dl-construct-dominates",
    "fig11-msr-minimal-explore",
    "fig11-abort-pushdown-shrinks-tp-aborts",
    "fig11d-full-msr-beats-simple",
    "fig11d-restructuring-largest-gain-sl",
    "fig11d-task-assignment-helps-gs",
    "fig11d-abort-pushdown-helps-tp",
    "fig12a-ckpt-least-overhead",
    "fig12a-msr-beats-log-schemes",
    "fig12a-msr-within-a-fifth-of-native",
    "fig12b-selective-logging-trade-off",
    "fig12b-selective-overtakes-at-full-ratio",
    "fig12c-ckpt-least-memory",
    "fig12c-msr-below-dl-and-lv",
    "fig12d-nat-no-io-or-tracking",
    "fig12d-lv-most-tracking",
    "fig12d-msr-tracking-below-dl",
    "fig12d-msr-io-below-dl",
    "fig13-msr-scales",
    "fig13-wal-does-not-scale",
    "fig13-msr-scales-wal-does-not-sl",
    "fig13-msr-fastest-at-32-cores",
    "fig13-wal-beats-msr-at-one-core",
    "fig13-ckpt-bounded-on-contended-gs",
    "fig14a-msr-leads-every-ratio",
    "fig14a-ckpt-degrades",
    "fig14b-lv-best-at-uniform",
    "fig14b-lv-family-leads-at-uniform",
    "fig14b-lv-collapses-msr-tolerates-skew",
    "fig14b-ckpt-degrades-with-skew",
    "fig14b-msr-best-at-extreme-skew",
    "fig14c-wal-improves-with-aborts",
    "fig14c-msr-leads-moderate-aborts",
    "fig14c-lv-overtakes-msr-at-extreme",
    "ablation-adaptive-commit-exact",
    "ablation-adaptive-commit-runtime-floor",
    "ablation-adaptive-commit-lsfd-tracks-large",
    "ablation-adaptive-commit-hsfd-interpolates",
    "ablation-adaptive-commit-lsmd-compromise",
    "ablation-adaptive-commit-hsmd-envelope",
    "ablation-lpt-never-loses",
    "ablation-lpt-gain-grows-with-skew",
    "ablation-finer-partitions-help-skew",
    "ablation-incremental-ckpt-fewer-bytes",
    "ablation-incremental-ckpt-keeps-runtime",
    "ablation-incremental-ckpt-longer-reload",
    "ablation-shadow-fewer-log-bytes",
    "ablation-shadow-keeps-runtime",
    "ablation-shadow-recovery-within-1.5x",
    "extra-ob-msr-fastest-recovery",
    "extra-ob-wal-trails-msr-2x",
    "extra-ob-recovers-exactly",
)

#: Claims that show only at ``DEFAULT_SCALE``, where CI asserts them.
#: Here each must fail, so the set stays exact: selective logging's
#: overtake at 100 % multi-partition transactions reads 3.265 against
#: full logging's 3.268 at 192-event epochs.
DEFAULT_SCALE_ONLY = {"fig12b-selective-overtakes-at-full-ratio"}


@pytest.mark.parametrize("claim", CLAIMS)
def test_claim(claims, claim):
    check = claims[claim]
    expected = claim not in DEFAULT_SCALE_ONLY
    assert check.holds is expected, f"{check.reference}: {check.detail}"


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


def test_battery_covers_the_claim_surface(battery):
    ids = [check.claim for check in battery]
    assert len(ids) == len(set(ids)) and len(CLAIMS) == len(set(CLAIMS))
    assert set(ids) == set(CLAIMS)
    assert DEFAULT_SCALE_ONLY <= set(CLAIMS)


def test_every_check_carries_a_reference_and_detail(battery):
    for check in battery:
        assert isinstance(check, CalibrationCheck)
        assert check.reference
        assert check.detail


def test_shipped_cost_model_satisfies_all_claims(claims):
    """Every claim holds at this scale except the documented
    default-scale-only set: ``repro calibrate --quick`` fails exactly it."""
    failing = {claim for claim, check in claims.items() if not check.holds}
    assert failing == DEFAULT_SCALE_ONLY, [
        (claim, claims[claim].detail) for claim in failing ^ DEFAULT_SCALE_ONLY
    ]


def test_fig11_bars_sum_to_recovery_time(figure_data):
    """Each Fig. 11 bar is the whole recovery: the battery's buckets for
    every (app, scheme) cell sum to that run's ``elapsed_seconds``."""
    for app, per_scheme in figure_data["fig11"].items():
        for name, bars in per_scheme.items():
            recovery = figures._run(
                QUICK_CALIBRATION_SCALE,
                figures.WORKLOADS[app](),
                figures.RECOVERY_SCHEMES[name],
            ).recovery
            assert math.isclose(
                sum(bars.values()), recovery.elapsed_seconds, rel_tol=1e-9
            ), (app, name, bars, recovery.elapsed_seconds)
