"""Calibration checker: do the paper's qualitative claims hold?

Runs a compact battery of experiments and evaluates every transferable
claim of the paper's evaluation as a named boolean check.  This is the
programmatic form of EXPERIMENTS.md — used by ``repro calibrate`` after
touching the cost model, and by tests to guard the shipped defaults.

Each check is (claim id, paper reference, holds?, detail string).

:func:`fig11_claims` and :func:`soak_claims` are the bands a committed
virtual-time record's deliberate move must keep to (``repro gate --update``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro import buckets
from repro.harness import figures
from repro.harness.figgate import GATE_TOLERANCE
from repro.harness.stats import crossover, scaling_efficiency, speedup_vs_suboptimal


@dataclass(frozen=True)
class CalibrationCheck:
    """One verified qualitative claim."""

    claim: str
    reference: str
    holds: bool
    detail: str


def run_calibration(
    scale: figures.FigureScale = figures.DEFAULT_SCALE,
) -> List[CalibrationCheck]:
    """Evaluate the core claim battery; returns one entry per claim."""
    checks: List[CalibrationCheck] = []

    def add(claim: str, reference: str, holds: bool, detail: str) -> None:
        checks.append(CalibrationCheck(claim, reference, holds, detail))

    # --- Fig. 2 / Fig. 11: recovery orderings --------------------------
    breakdown = figures.fig11_breakdown(scale)
    for app, per_scheme in breakdown.items():
        totals = {name: sum(b.values()) for name, b in per_scheme.items()}
        ordered = sorted(totals, key=totals.get)
        add(
            f"msr-fastest-recovery-{app}",
            "Fig. 11",
            ordered[0] == "MSR",
            f"{app}: " + " < ".join(ordered),
        )
        factor = speedup_vs_suboptimal(totals, "MSR")
        add(
            f"msr-speedup-{app}",
            "Fig. 11 (1.7-3.1x)",
            factor > 1.2,
            f"{app}: {factor:.2f}x vs sub-optimal",
        )
    sl = breakdown["SL"]
    sl_totals = {name: sum(b.values()) for name, b in sl.items()}
    add(
        "wal-slowest-recovery-sl",
        "Fig. 2",
        max(sl_totals, key=sl_totals.get) == "WAL",
        f"SL slowest: {max(sl_totals, key=sl_totals.get)}",
    )
    add(
        "dependency-trackers-worse-than-ckpt-sl",
        "S I / Fig. 2",
        sl_totals["DL"] > sl_totals["CKPT"]
        and sl_totals["LV"] > sl_totals["CKPT"] * 0.9,
        f"SL: DL {sl_totals['DL']:.2e}s, LV {sl_totals['LV']:.2e}s "
        f"vs CKPT {sl_totals['CKPT']:.2e}s",
    )
    add(
        "wal-wait-dominates",
        "S VIII-B",
        all(
            per["WAL"][buckets.WAIT] == max(per["WAL"].values())
            for per in breakdown.values()
        ),
        "WAL wait is its own largest bucket on every app",
    )
    add(
        "dl-construct-dominates",
        "S VIII-B",
        all(
            per["DL"][buckets.CONSTRUCT]
            == max(b[buckets.CONSTRUCT] for b in per.values())
            for per in breakdown.values()
        ),
        "DL construct is the largest across schemes on every app",
    )

    # --- Fig. 12a: runtime orderings ------------------------------------
    runtime = figures.fig12a_runtime(scale, apps=("SL",))["SL"]
    ft_only = {k: v for k, v in runtime.items() if k != "NAT"}
    add(
        "ckpt-least-runtime-overhead",
        "S VIII-C",
        max(ft_only, key=ft_only.get) == "CKPT",
        f"best FT runtime: {max(ft_only, key=ft_only.get)}",
    )
    add(
        "msr-beats-log-schemes-runtime",
        "S VIII-C (up to 30%)",
        all(runtime["MSR"] > runtime[n] for n in ("WAL", "DL", "LV")),
        f"MSR {runtime['MSR']:.0f} vs LV {runtime['LV']:.0f} events/s",
    )

    # --- Fig. 13: scalability -------------------------------------------
    scalability = figures.fig13_scalability(
        scale, cores=(1, 8, 32), apps=("SL", "GS")
    )
    msr_eff = scaling_efficiency(scalability["SL"]["MSR"])
    wal_eff = scaling_efficiency(scalability["SL"]["WAL"])
    add(
        "msr-scales-wal-does-not",
        "S VIII-E",
        msr_eff > 0.4 and wal_eff < 0.1,
        f"SL efficiency at 32 cores: MSR {msr_eff:.2f}, WAL {wal_eff:.2f}",
    )
    add(
        "wal-best-at-one-core",
        "S VIII-E",
        dict(scalability["SL"]["WAL"])[1] > dict(scalability["SL"]["MSR"])[1],
        "WAL beats MSR at a single core on SL",
    )

    # --- Fig. 14b: skew sensitivity --------------------------------------
    skew = figures.fig14b_skew(scale, skews=(0.0, 0.99))
    at_uniform = {name: pts[0][1] for name, pts in skew.items()}
    # An LSN-vector scheme leads at uniform: with the compressed Taurus
    # variant in the mix, LVC edges out dense LV (smaller records, same
    # replay), so the claim is about the vector *family*.
    add(
        "lv-best-at-uniform",
        "S VIII-F",
        max(at_uniform, key=at_uniform.get) in ("LV", "LVC"),
        f"uniform best: {max(at_uniform, key=at_uniform.get)}",
    )
    msr_drop = skew["MSR"][1][1] / skew["MSR"][0][1]
    lv_drop = skew["LV"][1][1] / skew["LV"][0][1]
    add(
        "msr-skew-tolerant",
        "S VIII-F",
        msr_drop > 0.9 and lv_drop < 0.5,
        f"throughput retained at skew 0.99: MSR {msr_drop:.2f}, LV {lv_drop:.2f}",
    )

    # --- Fig. 14c: abort sensitivity --------------------------------------
    aborts = figures.fig14c_aborts(scale, abort_ratios=(0.0, 0.8))
    add(
        "wal-improves-with-aborts",
        "S VIII-F",
        aborts["WAL"][1][1] > aborts["WAL"][0][1],
        "WAL throughput rises from 0% to 80% aborts",
    )
    add(
        "msr-lead-lost-at-extreme-aborts",
        "S VIII-F",
        aborts["MSR"][0][1] > aborts["LV"][0][1]
        and aborts["LV"][1][1] > aborts["MSR"][1][1],
        "LV overtakes MSR at 80% aborts",
    )

    # --- Fig. 12b: selective-logging crossover ----------------------------
    selective = figures.fig12b_selective(scale, ratios=(0.1, 0.5, 1.0))
    with_series = [(r, w) for r, w, _wo in selective]
    without_series = [(r, wo) for r, _w, wo in selective]
    cross = crossover(with_series, without_series)
    first_gap = selective[0][2] - selective[0][1]
    last_gap = selective[-1][2] - selective[-1][1]
    add(
        "selective-logging-trade-off",
        "S VIII-C / Fig. 12b",
        first_gap > 0 and last_gap < first_gap,
        (
            f"full logging wins at 10% (gap {first_gap:.3f}), gap at 100% "
            f"{last_gap:.3f}"
            + (f"; crossover near ratio {cross:.2f}" if cross is not None else "")
        ),
    )

    return checks


#: Soak bands as (metric, band, higher is better), relative to the
#: committed record: throughput may drop by 10 %, p99 latency and worst
#: MTTR may rise by 25 %.
SOAK_BANDS = (
    ("throughput_eps", 0.10, True),
    ("latency_p99_seconds", 0.25, False),
    ("mttr_max_seconds", 0.25, False),
)


def fig11_claims(committed: Dict, fresh: Dict) -> List[CalibrationCheck]:
    """Per (workload, baseline) pair: MSR's fresh speedup keeps at least
    ``1 - GATE_TOLERANCE`` of the committed one, and stays above 1.0.
    A speedup ``fresh`` lacks counts as 0."""
    checks = []
    for app, row in committed["workloads"].items():
        speedups = fresh["workloads"].get(app, {}).get("msr_speedup", {})
        for scheme, was in row["msr_speedup"].items():
            now = speedups.get(scheme, 0.0)
            floor = was * (1.0 - GATE_TOLERANCE)
            detail = f"{app}: MSR {now:.4f}x over {scheme}, floor {floor:.4f}x"
            checks += [
                CalibrationCheck(f"fig11-floor-{app}-{scheme}", "Fig. 11", now >= floor, detail),
                CalibrationCheck(f"fig11-beats-{app}-{scheme}", "Fig. 11", now > 1.0, detail),
            ]
    return checks


def soak_claims(committed: Dict, fresh: Dict) -> List[CalibrationCheck]:
    """Throughput, p99 and worst-MTTR bands of one soak cell's record."""
    checks = []
    for metric, band, higher_is_better in SOAK_BANDS:
        was, now = committed["metrics"][metric], fresh["metrics"][metric]
        if was <= 0:
            # A zero baseline (e.g. MTTR 0 in a crash-free cell) cannot
            # anchor a relative band; only a strict worsening fails.
            holds = now >= was if higher_is_better else now <= was
        else:
            holds = now / was >= 1.0 - band if higher_is_better else now / was <= 1.0 + band
        checks.append(CalibrationCheck(
            f"soak-{metric}", "Vogel et al.", holds,
            f"{fresh['cell']}: {was:.6g} -> {now:.6g} (band {band:.0%})",
        ))
    return checks


def all_hold(checks: List[CalibrationCheck]) -> bool:
    return all(check.holds for check in checks)
