"""The claim battery: every qualitative claim of the paper's evaluation.

Each claim is written once, here, as a named boolean check over the
data of the figure it cites: :data:`repro.harness.figures.FIGURES` at
each function's default sweep (the data ``repro figure`` prints and
``scripts/regenerate_experiments.py`` exports), plus the ablations and
the Online Bidding extension of DESIGN.md §6-7.  ``repro calibrate``
runs it at ``DEFAULT_SCALE`` (CI's "Paper claims at benchmark scale"
step) and the test suite at :data:`QUICK_CALIBRATION_SCALE`.

Each check is (claim id, paper reference, holds?, detail string).

:func:`fig11_claims` and :func:`soak_claims` are the bands a committed
virtual-time record's deliberate move must keep to (``repro gate --update``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro import buckets
from repro.harness import figures
from repro.harness.figgate import GATE_TOLERANCE
from repro.harness.stats import crossover, scaling_efficiency, speedup_vs_suboptimal


#: ``repro calibrate --quick``'s scale, the one the test suite checks the
#: battery at.  ``figures.QUICK_SCALE`` (64-event epochs) is too small for
#: several claims to show.
QUICK_CALIBRATION_SCALE = figures.FigureScale(
    epoch_len=192, snapshot_interval=4, recover_epochs=3
)

#: The recovery baselines the paper's figures plot.  PACMAN and LVC are
#: this reproduction's stronger additions: a claim covers them only
#: where it says so.
PAPER_BASELINES = ("CKPT", "WAL", "DL", "LV")


@dataclass(frozen=True)
class CalibrationCheck:
    """One verified qualitative claim."""

    claim: str
    reference: str
    holds: bool
    detail: str


Add = Callable[[str, str, bool, str], None]


def _leads(values: Dict, leader: str, rivals: Optional[Iterable[str]] = None,
           lower: bool = False) -> bool:
    """``leader`` strictly beats every rival (every other key by default)."""
    if rivals is None:
        rivals = [name for name in values if name != leader]
    if lower:
        return all(values[leader] < values[r] for r in rivals)
    return all(values[leader] > values[r] for r in rivals)


def _ranked(values: Dict) -> str:
    return " < ".join(sorted(values, key=values.get))


def run_calibration(
    scale: figures.FigureScale = figures.DEFAULT_SCALE,
    data: Optional[Dict] = None,
) -> List[CalibrationCheck]:
    """Evaluate the claim battery; returns one entry per claim.

    ``data`` maps each name in :data:`~repro.harness.figures.FIGURES` to
    that figure's default sweep at ``scale``; it is computed here unless
    the caller already has it.  The ablations always run here.
    """
    if data is None:
        data = {name: fn(scale) for name, (fn, _desc) in figures.FIGURES.items()}
    checks: List[CalibrationCheck] = []

    def add(claim: str, reference: str, holds: bool, detail: str) -> None:
        checks.append(CalibrationCheck(claim, reference, bool(holds), detail))

    _fig2_claims(data["fig2"], add)
    _fig9_claims(data["fig9"], add)
    _fig11_claims(data["fig11"], add)
    _fig11d_claims(data["fig11d"], add)
    _fig12a_claims(data["fig12a"], add)
    # The figure's sweep stops at 90 %; the overtake is claimed at 100 %.
    _fig12b_claims(
        data["fig12b"] + figures.fig12b_selective(scale, ratios=(1.0,)), add
    )
    _fig12c_claims(data["fig12c"], add)
    _fig12d_claims(data["fig12d"], add)
    _fig13_claims(data["fig13"], add)
    _fig14a_claims(data["fig14a"], add)
    _fig14b_claims(data["fig14b"], add)
    _fig14c_claims(data["fig14c"], add)
    _adaptive_commit_claims(figures.ablation_adaptive_commit(scale), add)
    _assignment_claims(figures.ablation_assignment(scale), add)
    _incremental_claims(figures.ablation_incremental_checkpoints(scale), add)
    _shadow_claims(figures.ablation_shadow(scale), add)
    _online_bidding_claims(figures.extra_online_bidding(scale), add)
    return checks


def _fig2_claims(rows: Dict, add: Add) -> None:
    ref = "Fig. 2"
    runtime = {name: row["runtime_eps"] for name, row in rows.items()}
    recovery = {name: row["recovery_seconds"] for name, row in rows.items() if name != "NAT"}
    add("fig2-nat-fastest-runtime-no-recovery", ref,
        rows["NAT"]["recovery_seconds"] == 0.0
        and all(eps <= runtime["NAT"] * 1.001 for eps in runtime.values()),
        f"runtime: {_ranked(runtime)}; NAT recovers nothing")
    add("fig2-msr-recovers-fastest", ref, _leads(recovery, "MSR", lower=True),
        f"SL recovery: {_ranked(recovery)}")
    add("fig2-wal-recovers-slowest", ref, _leads(recovery, "WAL"),
        f"SL recovery: {_ranked(recovery)}")
    add("fig2-dependency-trackers-slower-than-ckpt", "S I / Fig. 2",
        recovery["DL"] > recovery["CKPT"] and recovery["LV"] > recovery["CKPT"] * 0.9,
        f"SL: DL {recovery['DL']:.2e}s, LV {recovery['LV']:.2e}s, CKPT {recovery['CKPT']:.2e}s")
    add("fig2-msr-runtime-above-wal", ref, runtime["MSR"] > runtime["WAL"],
        f"runtime: MSR {runtime['MSR']:.0f}, WAL {runtime['WAL']:.0f} events/s")


def _fig9_claims(curves: Dict, add: Add) -> None:
    ref = "Fig. 9 / S VI-B"
    runtime = {regime: [rt for _e, rt, _rec in pts] for regime, pts in curves.items()}
    recovery = {regime: [rec for _e, _rt, rec in pts] for regime, pts in curves.items()}
    lsfd, hsmd, hsfd = recovery["LSFD"], recovery["HSMD"], recovery["HSFD"]
    add("fig9-lsfd-largest-epoch-recovers-best", ref, lsfd[-1] == max(lsfd),
        "LSFD recovery by epoch: " + ", ".join(f"{eps:.0f}" for eps in lsfd))
    add("fig9-hsmd-runtime-prefers-small-epochs", ref,
        runtime["HSMD"][0] > runtime["HSMD"][-1],
        "HSMD runtime by epoch: " + ", ".join(f"{eps:.0f}" for eps in runtime["HSMD"]))
    add("fig9-high-skew-recovery-prefers-large-epochs", ref,
        hsmd[0] < max(hsmd[2:]) and hsfd[0] < hsfd[-1],
        f"recovery, smallest epoch vs larger: HSMD {hsmd[0]:.0f} vs {max(hsmd[2:]):.0f}, "
        f"HSFD {hsfd[0]:.0f} vs {hsfd[-1]:.0f}")


def _fig11_claims(breakdown: Dict, add: Add) -> None:
    ref = "Fig. 11 / S VIII-B"
    for app, per_scheme in breakdown.items():
        totals = {name: sum(b.values()) for name, b in per_scheme.items()}
        add(f"fig11-msr-fastest-recovery-{app}", "Fig. 11",
            _leads(totals, "MSR", lower=True), f"{app}: {_ranked(totals)}")
        factor = speedup_vs_suboptimal(totals, "MSR")
        add(f"fig11-msr-speedup-{app}", "Fig. 11 (1.7-3.1x)", factor > 1.2,
            f"{app}: {factor:.2f}x vs sub-optimal")

    def bucket(name: str) -> Dict[str, Dict[str, float]]:
        return {app: {scheme: b[name] for scheme, b in per.items()}
                for app, per in breakdown.items()}

    def largest(per_app: Dict) -> str:
        return ", ".join(f"{app} {max(per, key=per.get)}" for app, per in per_app.items())

    add("fig11-wal-wait-dominates", ref,
        all(per["WAL"][buckets.WAIT] == max(per["WAL"].values()) for per in breakdown.values()),
        "WAL's wait is its own largest bucket on every app")
    reload, construct = bucket(buckets.RELOAD), bucket(buckets.CONSTRUCT)
    add("fig11-wal-reload-largest", ref,
        all(per["WAL"] == max(per.values()) for per in reload.values()),
        f"largest reload: {largest(reload)}")
    add("fig11-dl-construct-dominates", ref,
        all(_leads(per, "DL") for per in construct.values()),
        f"largest construct: {largest(construct)}")
    add("fig11-msr-minimal-explore", ref,
        all(per["MSR"] <= min(per["LV"], per["CKPT"]) for per in bucket(buckets.EXPLORE).values()),
        "MSR's explore is at most LV's and CKPT's on every app")
    tp_abort = bucket(buckets.ABORT)["TP"]
    add("fig11-abort-pushdown-shrinks-tp-aborts", ref, tp_abort["MSR"] < tp_abort["CKPT"],
        f"TP abort: MSR {tp_abort['MSR']:.2e}s, CKPT {tp_abort['CKPT']:.2e}s")


def _fig11d_claims(factor: Dict, add: Add) -> None:
    ref = "Fig. 11d"
    steps = {app: dict(pairs) for app, pairs in factor.items()}
    add("fig11d-full-msr-beats-simple", ref,
        all(s["+OptTaskAssign"] < s["Simple"] for s in steps.values()),
        ", ".join(f"{app} {s['Simple'] / s['+OptTaskAssign']:.2f}x" for app, s in steps.items()))
    sl, gs, tp = steps["SL"], steps["GS"], steps["TP"]
    restructure = sl["Simple"] - sl["+OpRestructure"]
    abort = sl["+OpRestructure"] - sl["+AbortPD"]
    lpt = sl["+AbortPD"] - sl["+OptTaskAssign"]
    add("fig11d-restructuring-largest-gain-sl", ref,
        restructure > abort and restructure > lpt and restructure > abort + lpt,
        f"SL gains: restructure {restructure:.2e}s, abort pushdown {abort:.2e}s, "
        f"task assignment {lpt:.2e}s")
    add("fig11d-task-assignment-helps-gs", ref, gs["+OptTaskAssign"] < gs["+AbortPD"],
        f"GS: {gs['+AbortPD']:.2e}s -> {gs['+OptTaskAssign']:.2e}s")
    add("fig11d-abort-pushdown-helps-tp", ref, tp["+AbortPD"] < tp["+OpRestructure"],
        f"TP: {tp['+OpRestructure']:.2e}s -> {tp['+AbortPD']:.2e}s")


def _fig12a_claims(runtime: Dict, add: Add) -> None:
    ref = "Fig. 12a / S VIII-C"
    ft_only = {app: {n: eps for n, eps in per.items() if n != "NAT"} for app, per in runtime.items()}
    add("fig12a-ckpt-least-overhead", ref,
        all(per["CKPT"] == max(per.values()) for per in ft_only.values()),
        "best FT runtime: " + ", ".join(f"{app} {max(per, key=per.get)}"
                                        for app, per in ft_only.items()))
    add("fig12a-msr-beats-log-schemes", ref + " (up to 30%)",
        all(_leads(per, "MSR", ("WAL", "DL", "LV")) for per in runtime.values()),
        ", ".join(f"{app} MSR {per['MSR']:.0f} vs LV {per['LV']:.0f}" for app, per in runtime.items()))
    add("fig12a-msr-within-a-fifth-of-native", ref,
        all(per["MSR"] >= per["NAT"] * 0.8 for per in runtime.values()),
        "MSR / NAT: " + ", ".join(f"{app} {per['MSR'] / per['NAT']:.2f}"
                                  for app, per in runtime.items()))


def _fig12b_claims(points: List, add: Add) -> None:
    ref = "Fig. 12b / S VIII-C"
    (low, low_with, low_without), (high, high_with, high_without) = points[0], points[-1]
    first_gap, last_gap = low_without - low_with, high_without - high_with
    cross = crossover([(r, w) for r, w, _wo in points], [(r, wo) for r, _w, wo in points])
    add("fig12b-selective-logging-trade-off", ref, first_gap > 0 and last_gap < first_gap,
        f"gap (full - selective) {first_gap:.3f} at {low:.0%}, {last_gap:.3f} at {high:.0%}"
        + (f"; crossover near ratio {cross:.2f}" if cross is not None else ""))
    add("fig12b-selective-overtakes-at-full-ratio", ref, high_with > high_without,
        f"at {high:.0%}: selective {high_with:.3f}, full {high_without:.3f}")


def _fig12c_claims(memory: Dict, add: Add) -> None:
    add("fig12c-ckpt-least-memory", "Fig. 12c",
        all(memory["CKPT"] <= memory[name] for name in ("WAL", "DL", "LV", "MSR")),
        f"peak: {_ranked(memory)}")
    add("fig12c-msr-below-dl-and-lv", "Fig. 12c", _leads(memory, "MSR", ("DL", "LV"), lower=True),
        f"peak KiB: MSR {memory['MSR'] / 1024:.1f}, DL {memory['DL'] / 1024:.1f}, "
        f"LV {memory['LV'] / 1024:.1f}")


def _fig12d_claims(overhead: Dict, add: Add) -> None:
    ref = "Fig. 12d / S VIII-D"
    track = {name: b[buckets.TRACK] for name, b in overhead.items()}
    io = {name: b[buckets.IO] for name, b in overhead.items()}
    add("fig12d-nat-no-io-or-tracking", ref, io["NAT"] == 0.0 and track["NAT"] == 0.0,
        f"NAT io {io['NAT']}, track {track['NAT']}")
    add("fig12d-lv-most-tracking", ref, _leads(track, "LV", ("NAT", "CKPT", "WAL", "MSR")),
        f"tracking: {_ranked(track)}")
    add("fig12d-msr-tracking-below-dl", ref, track["MSR"] < track["DL"],
        f"tracking: MSR {track['MSR']:.2e}s, DL {track['DL']:.2e}s")
    add("fig12d-msr-io-below-dl", ref, io["MSR"] < io["DL"],
        f"io: MSR {io['MSR']:.2e}s, DL {io['DL']:.2e}s")


def _fig13_claims(scalability: Dict, add: Add) -> None:
    ref = "Fig. 13 / S VIII-E"
    at = {app: {name: dict(pts) for name, pts in per.items()} for app, per in scalability.items()}

    def speedups(scheme: str) -> str:
        return ", ".join(f"{app} {c[scheme][32] / c[scheme][1]:.2f}x" for app, c in at.items())

    add("fig13-msr-scales", ref,
        all(c["MSR"][32] > 5 * c["MSR"][1] and c["MSR"][16] > 3 * c["MSR"][1]
            for c in at.values()),
        f"MSR 32-core speedup: {speedups('MSR')}")
    add("fig13-wal-does-not-scale", ref,
        all(c["WAL"][32] < 2 * c["WAL"][1] and c["WAL"][16] < 2 * c["WAL"][1]
            for c in at.values()),
        f"WAL 32-core speedup: {speedups('WAL')}")
    msr_eff = scaling_efficiency(scalability["SL"]["MSR"])
    wal_eff = scaling_efficiency(scalability["SL"]["WAL"])
    add("fig13-msr-scales-wal-does-not-sl", ref, msr_eff > 0.4 and wal_eff < 0.1,
        f"SL efficiency at 32 cores: MSR {msr_eff:.2f}, WAL {wal_eff:.2f}")
    at_32 = {app: {name: curve[32] for name, curve in c.items()} for app, c in at.items()}
    add("fig13-msr-fastest-at-32-cores", ref,
        all(per["MSR"] == max(per.values()) for per in at_32.values()),
        "fastest at 32 cores: " + ", ".join(f"{app} {max(per, key=per.get)}"
                                            for app, per in at_32.items()))
    add("fig13-wal-beats-msr-at-one-core", ref,
        all(at[app]["WAL"][1] > at[app]["MSR"][1] for app in ("SL", "TP")),
        "1 core, WAL / MSR: " + ", ".join(f"{app} {at[app]['WAL'][1] / at[app]['MSR'][1]:.2f}"
                                          for app in ("SL", "TP")))
    gs, sl = at["GS"]["CKPT"], at["SL"]["CKPT"]
    add("fig13-ckpt-bounded-on-contended-gs", ref,
        all(gs[cores] / gs[1] < sl[cores] / sl[1] for cores in (16, 32)),
        f"CKPT 32-core speedup: GS {gs[32] / gs[1]:.2f}x, SL {sl[32] / sl[1]:.2f}x")


def _sweep_leads(results: Dict, indices: Iterable[int]) -> bool:
    """MSR beats every paper baseline at each of the sweep's ``indices``."""
    return all(
        _leads({name: pts[i][1] for name, pts in results.items()}, "MSR", PAPER_BASELINES)
        for i in indices
    )


def _fig14a_claims(results: Dict, add: Add) -> None:
    ref = "Fig. 14a / S VIII-F"
    add("fig14a-msr-leads-every-ratio", ref, _sweep_leads(results, range(len(results["MSR"]))),
        f"MSR beats {', '.join(PAPER_BASELINES)} at every ratio")
    ckpt = results["CKPT"]
    add("fig14a-ckpt-degrades", ref, ckpt[-1][1] < ckpt[0][1],
        f"CKPT {ckpt[0][1]:.0f} -> {ckpt[-1][1]:.0f} events/s")


def _fig14b_claims(results: Dict, add: Add) -> None:
    ref = "Fig. 14b / S VIII-F"
    uniform = {name: pts[0][1] for name, pts in results.items()}
    extreme = {name: pts[-1][1] for name, pts in results.items()}
    kept = {name: extreme[name] / uniform[name] for name in results}
    add("fig14b-lv-best-at-uniform", ref, _leads(uniform, "LV", ("CKPT", "WAL", "DL", "MSR")),
        f"uniform: {_ranked(uniform)}")
    add("fig14b-lv-family-leads-at-uniform", ref, max(uniform, key=uniform.get) in ("LV", "LVC"),
        f"uniform: LVC {uniform['LVC']:.0f}, LV {uniform['LV']:.0f} events/s")
    add("fig14b-lv-collapses-msr-tolerates-skew", ref, kept["LV"] < 0.5 and kept["MSR"] > 0.9,
        f"throughput kept at the top skew: LV {kept['LV']:.2f}, MSR {kept['MSR']:.2f}")
    add("fig14b-ckpt-degrades-with-skew", ref, kept["CKPT"] < 1.0,
        f"CKPT keeps {kept['CKPT']:.2f} of its throughput at the top skew")
    add("fig14b-msr-best-at-extreme-skew", ref, _leads(extreme, "MSR"),
        f"top skew: {_ranked(extreme)}")


def _fig14c_claims(results: Dict, add: Add) -> None:
    ref = "Fig. 14c / S VIII-F"
    wal = [eps for _ratio, eps in results["WAL"]]
    msr, lv = results["MSR"], results["LV"]
    add("fig14c-wal-improves-with-aborts", ref, wal == sorted(wal) and wal[-1] > wal[0],
        "WAL by abort ratio: " + ", ".join(f"{eps:.0f}" for eps in wal))
    add("fig14c-msr-leads-moderate-aborts", ref, _sweep_leads(results, range(3)),
        f"MSR beats {', '.join(PAPER_BASELINES)} at the three lowest abort ratios")
    add("fig14c-lv-overtakes-msr-at-extreme", ref,
        msr[0][1] > lv[0][1] and lv[-1][1] > msr[-1][1],
        f"LV / MSR: {lv[0][1] / msr[0][1]:.2f} at {msr[0][0]:.0%}, "
        f"{lv[-1][1] / msr[-1][1]:.2f} at {msr[-1][0]:.0%}")


def _adaptive_commit_claims(results: Dict, add: Add) -> None:
    ref = "DESIGN.md S6 / S VI-B2"
    lsfd, hsfd, lsmd, hsmd = (results[r] for r in ("LSFD", "HSFD", "LSMD", "HSMD"))
    add("ablation-adaptive-commit-exact", ref,
        all(exact for modes in results.values() for _rt, _rec, exact in modes.values()),
        "every fixed and adaptive cycle recovers the serial state and outputs")
    add("ablation-adaptive-commit-runtime-floor", ref,
        all(m["adaptive"][0] >= 0.9 * min(m["fixed-small"][0], m["fixed-large"][0])
            for m in results.values()),
        "adaptive runtime / worse fixed: " + ", ".join(
            f"{r} {m['adaptive'][0] / min(m['fixed-small'][0], m['fixed-large'][0]):.2f}"
            for r, m in results.items()))
    add("ablation-adaptive-commit-lsfd-tracks-large", ref,
        lsfd["adaptive"][0] >= 0.9 * lsfd["fixed-large"][0]
        and lsfd["adaptive"][1] >= 0.8 * lsfd["fixed-large"][1],
        f"LSFD adaptive / fixed-large: runtime {lsfd['adaptive'][0] / lsfd['fixed-large'][0]:.2f}, "
        f"recovery {lsfd['adaptive'][1] / lsfd['fixed-large'][1]:.2f}")
    add("ablation-adaptive-commit-hsfd-interpolates", ref,
        hsfd["fixed-small"][1] * 1.2 <= hsfd["adaptive"][1] <= hsfd["fixed-large"][1] * 1.05,
        f"HSFD recovery: fixed-small {hsfd['fixed-small'][1]:.0f}, "
        f"adaptive {hsfd['adaptive'][1]:.0f}, fixed-large {hsfd['fixed-large'][1]:.0f}")
    add("ablation-adaptive-commit-lsmd-compromise", ref,
        lsmd["adaptive"][0] >= 0.95 * lsmd["fixed-small"][0]
        and lsmd["adaptive"][1] >= lsmd["fixed-small"][1],
        f"LSMD adaptive / fixed-small: runtime {lsmd['adaptive'][0] / lsmd['fixed-small'][0]:.2f}, "
        f"recovery {lsmd['adaptive'][1] / lsmd['fixed-small'][1]:.2f}")
    add("ablation-adaptive-commit-hsmd-envelope", ref,
        all(hsmd[mode][0] >= 0.9 * hsmd["fixed-large"][0]
            and hsmd[mode][1] >= 0.9 * hsmd["fixed-small"][1]
            for mode in ("adaptive", "adaptive-runtime-first")),
        "both HSMD controllers within 0.9 of the fixed envelope")


def _assignment_claims(results: Dict, add: Add) -> None:
    ref = "DESIGN.md S6 / Fig. 11d"
    policy, per_worker = results["policy"], results["granularity"]
    gains = [row["round-robin"] / row["LPT"] for _skew, row in sorted(policy.items())]
    add("ablation-lpt-never-loses", ref,
        all(row["LPT"] <= row["round-robin"] * 1.02 for row in policy.values()),
        "LPT gain over round-robin by skew: " + ", ".join(f"{g:.2f}x" for g in gains))
    add("ablation-lpt-gain-grows-with-skew", ref, gains[-1] >= gains[0],
        f"LPT gain {gains[0]:.2f}x uniform, {gains[-1]:.2f}x at the top skew")
    add("ablation-finer-partitions-help-skew", ref, per_worker[2] <= per_worker[1] * 1.05,
        f"GS skew 0.95 recovery: 1/worker {per_worker[1]:.2e}s, 2/worker {per_worker[2]:.2e}s")


def _incremental_claims(results: Dict, add: Add) -> None:
    ref = "DESIGN.md S6 / S VIII-D"
    full, delta = results["full"], results["incremental"]
    add("ablation-incremental-ckpt-fewer-bytes", ref,
        delta["snapshot_bytes"] < full["snapshot_bytes"],
        f"checkpoint bytes: full {full['snapshot_bytes']}, incremental {delta['snapshot_bytes']}")
    add("ablation-incremental-ckpt-keeps-runtime", ref,
        delta["runtime_eps"] >= full["runtime_eps"] * 0.99,
        f"runtime incremental / full: {delta['runtime_eps'] / full['runtime_eps']:.3f}")
    add("ablation-incremental-ckpt-longer-reload", ref,
        delta["reload_seconds"] >= full["reload_seconds"],
        f"reload: full {full['reload_seconds']:.2e}s, incremental {delta['reload_seconds']:.2e}s")


def _shadow_claims(results: Dict, add: Add) -> None:
    ref = "DESIGN.md S6 / Fig. 12b"
    selective, full = results["selective"], results["full"]
    add("ablation-shadow-fewer-log-bytes", ref, selective["log_bytes"] < full["log_bytes"],
        f"view-log bytes: selective {selective['log_bytes']}, full {full['log_bytes']}")
    add("ablation-shadow-keeps-runtime", ref,
        selective["runtime_eps"] >= full["runtime_eps"] * 0.98,
        f"runtime selective / full: {selective['runtime_eps'] / full['runtime_eps']:.3f}")
    add("ablation-shadow-recovery-within-1.5x", ref,
        selective["recovery_seconds"] <= full["recovery_seconds"] * 1.5,
        f"recovery selective / full: "
        f"{selective['recovery_seconds'] / full['recovery_seconds']:.2f}")


def _online_bidding_claims(results: Dict, add: Add) -> None:
    ref = "DESIGN.md S7"
    totals = {name: row["recovery_seconds"] for name, row in results.items()}
    add("extra-ob-msr-fastest-recovery", ref, _leads(totals, "MSR", lower=True),
        f"OB recovery: {_ranked(totals)}")
    add("extra-ob-wal-trails-msr-2x", ref, totals["WAL"] > totals["MSR"] * 2,
        f"WAL / MSR: {totals['WAL'] / totals['MSR']:.2f}")
    add("extra-ob-recovers-exactly", ref,
        all(row["state_verified"] is True for row in results.values()),
        "every scheme's recovered OB state verified exact")


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
