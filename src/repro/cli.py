"""Command-line interface: run experiments and figure reproductions.

Subcommands::

    repro list                      # available workloads/schemes/figures
    repro run --workload SL --scheme MSR [sizing options]
    repro figure fig11 [--quick]
    repro chaos [--smoke] [--seed N] [--max-mttr S]
    repro cluster --shards 8 --placement checkpoint_spread --kill rack:0
    repro soak [--smoke] [--mode single|cluster|both]
    repro check [--schemes CSV] [--seed N] [--replay repro.json]
    repro gate [fig11|soak] [--update]

``repro run`` executes one runtime → crash → recovery experiment with
full verification and prints both reports; ``repro figure`` regenerates
one of the paper's evaluation figures and prints the series the figure
plots (the data ``repro calibrate``'s claim battery reads).  ``repro
chaos`` sweeps storage faults × mid-epoch crash points × schemes and
verifies that every cell either recovers exactly (possibly through the
fallback ladder) or fails loudly with a documented storage error.  ``repro
cluster`` runs a sharded cluster across a failure-domain topology,
injects a correlated kill (whole node or whole rack), recovers the dead
shards in parallel on the survivors and verifies the result against the
serial single-instance ground truth.  ``repro soak`` runs the
sustained-traffic SLA soak — seeded crash schedule, degraded-mode
serving, token-bucket admission — and grades the run against
declarative SLO targets.

``repro check`` is the systematic fault-schedule explorer: it runs
every single fault and every valid pair of storage faults, mid-epoch
crashes, recovery-worker failures, crashes at registered recovery
milestones and correlated cluster kills, checks every run against
the declarative invariant registry, delta-debugs any violation to a
minimal fault set and emits a replayable repro file; ``--replay``
re-triggers a saved counterexample deterministically.

``repro gate`` regenerates the committed virtual-time records,
``BENCH_fig11.json`` and each smoke cell of ``BENCH_soak.json``, and
requires them to match exactly; ``--update`` writes a deliberate move
once the record's bands (:mod:`repro.harness.calibration`) still hold.

Exit codes are CI contracts (see :mod:`repro.exitcodes` and the README
table): ``chaos`` and ``soak`` return non-zero on any verification
failure, data loss or SLO breach, and ``gate`` on any number that moved.  Exit code ``2``
covers invalid configuration values (e.g. ``--workers 0``) as well as
bad flags.  Exit code ``4`` means ``repro check`` found (or
``--replay`` reproduced) an invariant violation — distinct from ``1``
(coverage gap or harness failure) so CI can route counterexamples to
the artifact-upload path.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import SCHEMES
from repro.buckets import RECOVERY_BUCKETS, RUNTIME_OVERHEAD_BUCKETS
from repro.harness import figures
from repro.harness.calibration import CalibrationCheck, all_hold, run_calibration
from repro.harness.export import without, write_json
from repro.harness.plot import bar_chart, line_chart
from repro.harness.report import (
    format_seconds,
    format_throughput,
    print_figure,
    render_table,
)
from repro.harness.runner import ExperimentConfig, run_experiment

# Exit codes live in repro.exitcodes (one definition for every
# entrypoint); re-exported here because callers and tests historically
# import them from the CLI module.
from repro.exitcodes import (  # noqa: F401  (re-export)
    EXIT_FAILURE,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
)

#: ``repro gate``'s records; ``BENCH_<name>.json`` in the working directory.
GATE_RECORDS = ("fig11", "soak")


def _add_json_flag(parser: argparse.ArgumentParser, what: str) -> None:
    """``--json [PATH]``: export ``what``; see :func:`_emit_json`."""
    parser.add_argument(
        "--json",
        type=Path,
        nargs="?",
        const=Path("-"),
        default=None,
        metavar="PATH",
        help=f"export {what} as JSON (bare --json prints to stdout)",
    )


def _emit_json(target: Optional[Path], payload: Dict, exported: str) -> None:
    """Nothing without ``--json``; the document on stdout for a bare
    flag (``-``); else written to ``target`` and announced with the
    ``exported`` line."""
    if target is None:
        return
    if str(target) == "-":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        write_json(target, payload)
        print(exported)


def _add_topology_flags(parser: argparse.ArgumentParser, shards: int) -> None:
    """The failure-domain topology and replica placement of a cluster."""
    from repro.cluster import PLACEMENT_NAMES

    parser.add_argument("--shards", type=int, default=shards)
    parser.add_argument("--racks", type=int, default=2)
    parser.add_argument("--nodes-per-rack", type=int, default=2)
    parser.add_argument(
        "--placement", choices=sorted(PLACEMENT_NAMES),
        default="checkpoint_spread",
    )
    parser.add_argument(
        "--replication",
        type=int,
        default=1,
        help="checkpoint/log replicas per shard beyond the primary",
    )


#: (flag, ``SLOTargets`` field, metavar, help): ``repro soak``'s SLO
#: overrides — drives both the declarations and the override dict.
SLO_FLAGS = (
    ("--slo-p99", "p99_latency_seconds", "SECONDS",
     "override the p99 end-to-end latency target"),
    ("--slo-p999", "p999_latency_seconds", "SECONDS",
     "override the p999 end-to-end latency target"),
    ("--slo-availability", "availability", "FRACTION",
     "override the availability target (e.g. 0.995)"),
    ("--slo-mttr", "max_mttr_seconds", "SECONDS",
     "override the worst-tolerated single-recovery time"),
)


def _parse_schemes(csv: str) -> Optional[Tuple[str, ...]]:
    """``--schemes``: the named subset, or ``None`` (after saying which)
    when a name is not a scheme."""
    wanted = tuple(s.strip().upper() for s in csv.split(",") if s.strip())
    unknown = sorted(set(wanted) - set(SCHEMES))
    if unknown:
        print(f"unknown scheme(s): {', '.join(unknown)}")
        return None
    return wanted


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MorphStreamR reproduction: fault-tolerant "
        "transactional stream processing experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, schemes and figures")

    run = sub.add_parser(
        "run", help="run one crash-recovery experiment with verification"
    )
    run.add_argument(
        "--workload", choices=sorted(figures.WORKLOADS), default="SL"
    )
    run.add_argument("--scheme", choices=sorted(SCHEMES), default="MSR")
    run.add_argument("--workers", type=int, default=8)
    run.add_argument("--epoch-len", type=int, default=256)
    run.add_argument("--snapshot-interval", type=int, default=5)
    run.add_argument(
        "--recover-epochs",
        type=int,
        default=4,
        help="epochs lost between the last checkpoint and the crash",
    )
    run.add_argument("--seed", type=int, default=7)

    fig = sub.add_parser("figure", help="reproduce one evaluation figure")
    fig.add_argument("name", choices=sorted(figures.FIGURES))
    fig.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced test-size scale instead of benchmark scale",
    )
    fig.add_argument(
        "--plot",
        action="store_true",
        help="additionally render an ASCII chart of the figure",
    )

    chaos = sub.add_parser(
        "chaos",
        help="sweep storage faults × crash points × schemes and verify "
        "every recovery",
    )
    chaos.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sweep (5 schemes × 2 faults × 2 crash points) for CI",
    )
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--schemes",
        default=None,
        metavar="CSV",
        help="comma-separated scheme subset (e.g. MSR,WAL); default: "
        "the full sweep's schemes",
    )
    chaos.add_argument(
        "--no-cluster",
        action="store_true",
        help="skip the cluster-kill cell family",
    )
    chaos.add_argument(
        "--max-mttr",
        type=float,
        default=None,
        metavar="SECONDS",
        help="SLO gate: fail (exit 1) if any cell's MTTR exceeds this "
        "bound (virtual seconds)",
    )
    _add_json_flag(
        chaos,
        "the full sweep (per-cell ladder histogram, re-assignment "
        "counters, wasted-work ratios)",
    )

    cluster = sub.add_parser(
        "cluster",
        help="sharded-cluster recovery: correlated node/rack kills, "
        "replica placement, parallel shard recovery",
    )
    _add_topology_flags(cluster, shards=8)
    cluster.add_argument(
        "--kill",
        action="append",
        default=None,
        metavar="TARGET",
        help="failure domain to kill: shard:S, node:R.N or rack:R "
        "(repeatable; all fire at the same epoch boundary; "
        "default rack:0)",
    )
    cluster.add_argument(
        "--kill-after-epoch",
        type=int,
        default=None,
        help="epoch boundary at which the kill fires (default: half "
        "the stream)",
    )
    cluster.add_argument("--epochs", type=int, default=6)
    cluster.add_argument("--epoch-len", type=int, default=32)
    cluster.add_argument(
        "--workers", type=int, default=2, help="workers per shard"
    )
    cluster.add_argument("--accounts", type=int, default=64)
    cluster.add_argument("--seed", type=int, default=7)
    _add_json_flag(cluster, "topology, runtime and recovery reports")

    soak = sub.add_parser(
        "soak",
        help="sustained-traffic SLA soak: seeded crash schedule, "
        "degraded-mode serving and SLO grading",
    )
    soak.add_argument(
        "--mode", choices=("single", "cluster", "both"), default="single"
    )
    soak.add_argument(
        "--smoke",
        action="store_true",
        help="bounded CI pair (small key space, 2 crash cycles, "
        "single-node + one cluster cell); ignores the sizing flags",
    )
    soak.add_argument(
        "--scheme",
        choices=sorted(s for s in SCHEMES if s != "NAT"),
        default="MSR",
    )
    soak.add_argument("--keys", type=int, default=4096)
    soak.add_argument("--epoch-len", type=int, default=256)
    soak.add_argument("--epochs", type=int, default=48)
    soak.add_argument(
        "--crashes", type=int, default=3,
        help="seeded crash/recover cycles armed across the run",
    )
    soak.add_argument(
        "--workers", type=int, default=4,
        help="workers per engine (single) / per shard (cluster)",
    )
    soak.add_argument("--snapshot-interval", type=int, default=4)
    soak.add_argument("--skew", type=float, default=0.6)
    soak.add_argument("--seed", type=int, default=7)
    _add_topology_flags(soak, shards=4)
    soak.add_argument(
        "--chaos",
        action="store_true",
        help="also arm seeded torn-flush storage faults (single mode)",
    )
    soak.add_argument(
        "--no-verify",
        action="store_true",
        help="skip ground-truth verification (faster; NOT for CI)",
    )
    for flag, _field, metavar, text in SLO_FLAGS:
        soak.add_argument(
            flag, type=float, default=None, metavar=metavar, help=text
        )
    _add_json_flag(soak, "the full soak report")

    check = sub.add_parser(
        "check",
        help="systematic fault-schedule exploration: enumerate fault "
        "combinations, check recovery invariants, shrink and export "
        "counterexamples",
    )
    check.add_argument(
        "--schemes",
        default=None,
        metavar="CSV",
        help="comma-separated scheme subset (e.g. MSR,CKPT); default "
        "all seven recoverable schemes, MSR,WAL,PACMAN,LVC,CKPT,DL,LV",
    )
    check.add_argument(
        "--no-cluster",
        action="store_true",
        help="skip correlated cluster-kill schedules",
    )
    check.add_argument(
        "--seed", type=int, default=7, help="workload and fault-injection seed"
    )
    check.add_argument(
        "--no-coverage",
        action="store_true",
        help="do not fail when a registered recovery crash point never "
        "fired",
    )
    _add_json_flag(check, "the full exploration report")
    check.add_argument(
        "--repro-dir",
        type=Path,
        default=Path("check-repros"),
        metavar="DIR",
        help="directory minimized counterexample repro files are "
        "written to",
    )
    check.add_argument(
        "--replay",
        type=Path,
        default=None,
        metavar="PATH",
        help="re-run a saved repro file instead of exploring; exits 4 "
        "when the violation still reproduces",
    )

    gate = sub.add_parser(
        "gate",
        help="regenerate BENCH_fig11.json / BENCH_soak.json and fail on "
        "any number that moved",
    )
    gate.add_argument(
        "record", nargs="?", choices=GATE_RECORDS, help="default: both"
    )
    gate.add_argument(
        "--update",
        action="store_true",
        help="write a moved record if its bands hold (soak: append)",
    )

    cal = sub.add_parser(
        "calibrate",
        help="verify every qualitative paper claim against the current "
        "cost model",
    )
    cal.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced scale the test suite checks the battery at "
        "(192-event epochs) instead of benchmark scale",
    )
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    print_figure(
        "Workloads",
        render_table(
            ["name", "application"],
            [
                ["SL", "Streaming Ledger: account/asset transfers"],
                ["GS", "Grep&Sum: skewed shared-state summation"],
                ["TP", "Toll Processing: Linear-Road-style tolling"],
            ],
        ),
    )
    print_figure(
        "Schemes",
        render_table(
            ["name", "mechanism"],
            [
                ["NAT", "native MorphStream, no fault tolerance"],
                ["CKPT", "global checkpointing + input replay"],
                ["WAL", "command logging, sequential redo"],
                ["PACMAN", "command logging, parallel redo via static "
                 "key-access analysis"],
                ["DL", "DistDGCC dependency-graph logging"],
                ["LV", "Taurus LSN-vector logging (dense vectors)"],
                ["LVC", "Taurus compressed vectors: sparse (stream, pos)"],
                ["MSR", "MorphStreamR: intermediate-result views"],
            ],
        ),
    )
    print_figure(
        "Figures",
        render_table(
            ["name", "reproduces"],
            [[name, desc] for name, (_fn, desc) in sorted(figures.FIGURES.items())],
        ),
    )
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    factory = figures.WORKLOADS[args.workload]()
    config = ExperimentConfig(
        workload_factory=factory,
        scheme=SCHEMES[args.scheme],
        num_workers=args.workers,
        epoch_len=args.epoch_len,
        snapshot_interval=args.snapshot_interval,
        recover_epochs=args.recover_epochs,
        seed=args.seed,
    )
    result = run_experiment(config)
    runtime = result.runtime
    print_figure(
        f"{args.scheme} on {args.workload} — runtime phase",
        render_table(
            ["metric", "value"],
            [
                ["events processed", runtime.events_processed],
                ["throughput", format_throughput(runtime.throughput_eps)],
                ["peak memory", f"{runtime.peak_memory_bytes / 1024:.1f} KiB"],
                ["log bytes", runtime.bytes_logged],
                *[
                    [f"{b} overhead", format_seconds(runtime.buckets.get(b, 0.0))]
                    for b in RUNTIME_OVERHEAD_BUCKETS
                ],
            ],
        ),
    )
    if result.recovery is None:
        print("\nscheme does not support recovery (runtime phase only)")
        return EXIT_OK
    recovery = result.recovery
    print_figure(
        f"{args.scheme} on {args.workload} — recovery phase",
        render_table(
            ["metric", "value"],
            [
                ["events replayed", recovery.events_replayed],
                ["epochs replayed", recovery.epochs_replayed],
                ["recovery time", format_seconds(recovery.elapsed_seconds)],
                ["throughput", format_throughput(recovery.throughput_eps)],
                *[
                    [b, format_seconds(recovery.buckets.get(b, 0.0))]
                    for b in RECOVERY_BUCKETS
                ],
            ],
        ),
    )
    print("\nstate verified against serial ground truth: OK")
    print("outputs delivered exactly once: OK")
    return EXIT_OK


def _render_figure(name: str, data) -> None:
    """Best-effort tabular rendering for any figure's data shape."""
    if name == "fig2":
        rows = [
            [
                scheme,
                format_throughput(row["runtime_eps"]),
                format_seconds(row["recovery_seconds"])
                if row["recovery_seconds"]
                else "n/a",
            ]
            for scheme, row in data.items()
        ]
        print_figure(name, render_table(["scheme", "runtime", "recovery"], rows))
    elif name == "fig9":
        rows = [
            [regime, epoch, format_throughput(rt), format_throughput(rec)]
            for regime, points in data.items()
            for epoch, rt, rec in points
        ]
        print_figure(
            name, render_table(["regime", "epoch", "runtime", "recovery"], rows)
        )
    elif name == "fig11":
        for app, per_scheme in data.items():
            rows = [
                [scheme]
                + [format_seconds(b.get(k, 0.0)) for k in RECOVERY_BUCKETS]
                for scheme, b in per_scheme.items()
            ]
            print_figure(
                f"{name} ({app})",
                render_table(["scheme", *RECOVERY_BUCKETS], rows),
            )
    elif name == "fig11d":
        rows = [
            [app, label, format_seconds(seconds)]
            for app, steps in data.items()
            for label, seconds in steps
        ]
        print_figure(name, render_table(["app", "step", "recovery"], rows))
    elif name == "fig12a":
        schemes = list(next(iter(data.values())))
        rows = [
            [app, *(format_throughput(per[s]) for s in schemes)]
            for app, per in data.items()
        ]
        print_figure(name, render_table(["app", *schemes], rows))
    elif name == "fig12b":
        rows = [
            [f"{ratio:.0%}", f"{w:.3f}", f"{wo:.3f}"] for ratio, w, wo in data
        ]
        print_figure(
            name, render_table(["ratio", "selective", "full logging"], rows)
        )
    elif name == "fig12c":
        rows = [[s, f"{b / 1024:.1f} KiB"] for s, b in data.items()]
        print_figure(name, render_table(["scheme", "peak memory"], rows))
    elif name == "fig12d":
        rows = [
            [s, *(format_seconds(b.get(k, 0.0)) for k in RUNTIME_OVERHEAD_BUCKETS)]
            for s, b in data.items()
        ]
        print_figure(
            name, render_table(["scheme", *RUNTIME_OVERHEAD_BUCKETS], rows)
        )
    else:  # fig13 / fig14*: {(app ->)? scheme -> [(x, eps)]}
        def render_curves(title, curves):
            xs = [x for x, _e in next(iter(curves.values()))]
            rows = [
                [s, *(format_throughput(e) for _x, e in points)]
                for s, points in curves.items()
            ]
            print_figure(title, render_table(["scheme", *map(str, xs)], rows))

        first_value = next(iter(data.values()))
        if isinstance(first_value, dict):  # fig13: nested by app
            for app, curves in data.items():
                render_curves(f"{name} ({app})", curves)
        else:
            render_curves(name, data)


def _plot_figure(name: str, data) -> None:
    """ASCII chart rendering for the figures that are curves or bars."""
    if name == "fig2":
        print(
            bar_chart(
                {
                    s: row["recovery_seconds"] * 1e3
                    for s, row in data.items()
                    if row["recovery_seconds"]
                },
                unit="ms",
            )
        )
    elif name == "fig9":
        print(
            line_chart(
                {r: [(e, rec) for e, _rt, rec in pts] for r, pts in data.items()},
                x_label="commit epoch (events)",
                y_label="recovery events/s",
            )
        )
    elif name == "fig12c":
        print(bar_chart({s: b / 1024 for s, b in data.items()}, unit="KiB"))
    elif name in ("fig14a", "fig14b", "fig14c"):
        print(
            line_chart(
                {s: list(pts) for s, pts in data.items()},
                x_label="swept parameter",
                y_label="recovery events/s",
            )
        )
    elif name == "fig13":
        for app, curves in data.items():
            print(f"[{app}]")
            print(
                line_chart(
                    {s: list(pts) for s, pts in curves.items()},
                    x_label="cores",
                    y_label="recovery events/s",
                )
            )
    else:
        print("(no chart rendering for this figure; see the table above)")


def _cmd_figure(args: argparse.Namespace) -> int:
    fn, description = figures.FIGURES[args.name]
    scale = figures.QUICK_SCALE if args.quick else figures.DEFAULT_SCALE
    print(f"reproducing {args.name}: {description} ...")
    data = fn(scale)
    _render_figure(args.name, data)
    if args.plot:
        print()
        _plot_figure(args.name, data)
    return EXIT_OK


def _cmd_chaos(args: argparse.Namespace) -> int:
    from collections import Counter
    from dataclasses import replace

    from repro.harness.chaos import (
        FAMILY_NAMES,
        ChaosConfig,
        cells,
        chaos_payload,
        run_chaos,
        smoke_config,
    )

    cfg = (
        smoke_config(seed=args.seed)
        if args.smoke
        else replace(ChaosConfig(), seed=args.seed)
    )
    if args.schemes:
        wanted = _parse_schemes(args.schemes)
        if wanted is None:
            return EXIT_USAGE
        cfg = replace(cfg, schemes=wanted)
    if args.no_cluster:
        cfg = replace(
            cfg,
            cluster_placements=(),
            cluster_kills=(),
            cluster_overwhelm=False,
        )
    counts = Counter(cell.family for cell in cells(cfg))
    print(
        "chaos sweep: "
        + " + ".join(f"{counts[name]} {name} cells" for name in FAMILY_NAMES)
        + f" (seed {cfg.seed}) ..."
    )
    payload = chaos_payload(run_chaos(cfg))
    rows = []
    for cell in payload["cells"]:
        ladder = (
            " ".join(f"{r}:{n}" for r, n in sorted(cell["ladder"].items()))
            or "-"
        )
        reassign = (
            f"{cell['reassign_rounds']}r/{cell['tasks_reassigned']}t"
            if cell["reassign_rounds"]
            else "-"
        )
        wasted = (
            f"{cell['wasted_ratio']:.0%}" if cell["wasted_ratio"] else "-"
        )
        rows.append(
            [
                "OK" if cell["ok"] else "FAIL",
                cell["scheme"],
                cell["fault"],
                cell["crash_point"],
                cell["outcome"],
                ladder,
                str(cell["attempts"]) if cell["attempts"] > 1 else "-",
                reassign,
                wasted,
                format_seconds(cell["mttr_seconds"])
                if cell["mttr_seconds"]
                else "-",
                cell["detail"][:48],
            ]
        )
    print_figure(
        "Chaos sweep — fault × crash point × scheme",
        render_table(
            [
                "verdict",
                "scheme",
                "fault",
                "point",
                "outcome",
                "ladder",
                "tries",
                "reassign",
                "wasted",
                "MTTR",
                "detail",
            ],
            rows,
        ),
    )
    summary = payload["summary"]
    _emit_json(
        args.json,
        payload,
        f"\nexported {summary['cells']} cells to {args.json}",
    )
    outcomes = ", ".join(
        f"{k}: {v}" for k, v in sorted(payload["outcome_counts"].items())
    )
    digest = summary["mttr"]
    if digest["count"]:
        print(
            f"\nMTTR digest over {digest['count']} recoveries: "
            f"p50 {format_seconds(digest['p50'])}, "
            f"p99 {format_seconds(digest['p99'])}, "
            f"max {format_seconds(digest['max'])}"
        )
    status = EXIT_OK
    if payload["passed"]:
        print(f"\nall {summary['cells']} cells verified — {outcomes}")
    else:
        print(
            f"\n{summary['failures']} cell(s) FAILED "
            f"(silent divergence or undocumented error) — {outcomes}"
        )
        status = EXIT_FAILURE
    if args.max_mttr is not None:
        breach = digest["max"] > args.max_mttr
        print(
            f"MTTR SLO{' BREACH' if breach else ''}: worst cell "
            f"{format_seconds(digest['max'])} "
            f"{'exceeds' if breach else 'within'} --max-mttr "
            f"{format_seconds(args.max_mttr)}"
        )
        if breach:
            status = EXIT_FAILURE
    return status


def _cmd_cluster(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from repro.check.runner import make_workload
    from repro.cluster import (
        ClusterFault,
        ClusterTopology,
        ShardedCluster,
        parse_kill,
    )
    from repro.errors import ClusterDataLossError

    kills = args.kill if args.kill else ["rack:0"]
    kill_epoch = (
        args.kill_after_epoch
        if args.kill_after_epoch is not None
        else max(1, args.epochs // 2)
    )
    topology = ClusterTopology(args.shards, args.racks, args.nodes_per_rack)
    for spec in kills:
        topology.validate(parse_kill(spec))
    workload = make_workload(args.accounts)
    cluster = ShardedCluster(
        workload,
        topology,
        placement=args.placement,
        replication=args.replication,
        workers_per_shard=args.workers,
        epoch_len=args.epoch_len,
        kills=[ClusterFault(spec, after_epoch=kill_epoch) for spec in kills],
    )
    events = workload.generate(args.epochs * args.epoch_len, args.seed)
    print(
        f"cluster: {args.shards} shards over {topology.num_nodes} nodes "
        f"({args.racks} racks × {args.nodes_per_rack}), placement "
        f"{args.placement}, replication {args.replication}; killing "
        f"{' + '.join(kills)} after epoch {kill_epoch} ..."
    )
    runtime = cluster.process_stream(events)
    payload: Dict = {
        "topology": {
            "shards": args.shards,
            "racks": args.racks,
            "nodes_per_rack": args.nodes_per_rack,
            "nodes": topology.num_nodes,
        },
        "placement": args.placement,
        "replication": args.replication,
        "kills": list(kills),
        "kill_after_epoch": kill_epoch,
        "runtime": {
            **without(asdict(runtime), "num_shards", "elapsed_seconds"),
            "cross_shard_ratio": runtime.cross_shard_ratio,
        },
    }
    exported = f"\nexported cluster report to {args.json}"
    if not cluster.crashed:
        print("kill never fired (stream shorter than the kill epoch)")
        _emit_json(args.json, payload, exported)
        return EXIT_FAILURE
    try:
        report = cluster.recover()
    except ClusterDataLossError as exc:
        print(
            f"\nDATA LOSS: shards {list(exc.lost_shards)} lost every "
            f"replica ({exc.lost_events} events unrecoverable) — "
            f"replication factor {args.replication} is narrower than "
            f"the correlated failure"
        )
        payload["recovery"] = {
            "verdict": "data-loss",
            "lost_shards": list(exc.lost_shards),
            "rpo_events": exc.lost_events,
        }
        _emit_json(args.json, payload, exported)
        return EXIT_FAILURE
    cluster.process_stream([])
    exact = cluster.verify_exact()
    # The document states placement / replication / kills once, at the
    # top; a survived run lost nothing.
    recovery = payload["recovery"] = {
        **without(vars(report), "placement", "replication", "kills", "per_shard"),
        "verdict": "survived",
        "rpo_events": 0,
        "rpo_seconds": 0.0,
        "watermark_degradations": report.watermark_degradations,
        "per_shard": [
            {
                "shard": r.shard,
                "node": r.node,
                "rack": r.rack,
                "mttr_seconds": r.mttr_seconds,
                "epochs_replayed": r.report.epochs_replayed,
                "events_replayed": r.report.events_replayed,
                "ladder": r.report.ladder,
                "resumed": r.report.resumed,
                "checkpoint_epoch": r.report.checkpoint_epoch,
                "attempts": r.report.attempts,
            }
            for r in report.per_shard
        ],
        "verified_exact": bool(exact),
    }
    rows = [
        [
            f"shard {r['shard']}",
            f"{r['rack']}.{r['node'] % args.nodes_per_rack}",
            format_seconds(r["mttr_seconds"]),
            str(r["epochs_replayed"]),
            str(r["events_replayed"]),
            " ".join(f"{k}:{v}" for k, v in sorted(r["ladder"].items())) or "-",
            str(r["checkpoint_epoch"]),
        ]
        for r in recovery["per_shard"]
    ]
    print_figure(
        "Parallel shard recovery",
        render_table(
            ["shard", "node", "MTTR", "epochs", "events", "ladder", "ckpt"],
            rows,
        ),
    )
    print_figure(
        "Cluster recovery — aggregate",
        render_table(
            ["metric", "value"],
            [
                ["verdict", recovery["verdict"]],
                ["shards killed", ", ".join(map(str, recovery["shards_killed"]))],
                ["correlation width", recovery["correlation_width"]],
                ["recovery nodes", recovery["recovery_nodes"]],
                ["detection", format_seconds(recovery["detection_seconds"])],
                ["makespan", format_seconds(recovery["makespan_seconds"])],
                ["RTO", format_seconds(recovery["rto_seconds"])],
                ["RPO", f"{recovery['rpo_events']} events"],
                ["mean shard MTTR", format_seconds(recovery["mean_mttr_seconds"])],
                ["max shard MTTR", format_seconds(recovery["max_mttr_seconds"])],
                ["watermark degradations", recovery["watermark_degradations"]],
            ],
        ),
    )
    _emit_json(args.json, payload, exported)
    if not exact:
        print(
            "\nSILENT DIVERGENCE: recovered cluster does not match the "
            f"serial single-instance ground truth: {exact.detail}"
        )
        return EXIT_FAILURE
    print(
        "\nrecovered cluster state matches serial ground truth "
        "bit-for-bit: OK"
    )
    print("outputs delivered exactly once across all shards: OK")
    return EXIT_OK


def _cmd_soak(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.errors import ClusterDataLossError
    from repro.harness.slo import describe_slo
    from repro.harness.soak import (
        SOAK_SCHEMA,
        SoakConfig,
        run_soak,
        smoke_configs,
        soak_payload,
    )

    slo_overrides = {
        field: value
        for flag, field, _metavar, _text in SLO_FLAGS
        if (value := getattr(args, flag[2:].replace("-", "_"))) is not None
    }

    if args.smoke:
        configs = [
            cfg
            for cfg in smoke_configs(seed=args.seed)
            if args.mode == "both" or cfg.mode == args.mode
        ]
        if args.chaos:
            configs = [
                replace(cfg, chaos=True) if cfg.mode == "single" else cfg
                for cfg in configs
            ]
        if args.no_verify:
            configs = [replace(cfg, verify=False) for cfg in configs]
    else:
        modes = ("single", "cluster") if args.mode == "both" else (args.mode,)
        configs = [
            SoakConfig(
                mode=mode,
                scheme=args.scheme,
                num_keys=args.keys,
                epoch_len=args.epoch_len,
                epochs=args.epochs,
                crashes=args.crashes,
                num_workers=args.workers,
                snapshot_interval=args.snapshot_interval,
                skew=args.skew,
                seed=args.seed,
                chaos=args.chaos and mode == "single",
                verify=not args.no_verify,
                shards=args.shards,
                racks=args.racks,
                nodes_per_rack=args.nodes_per_rack,
                replication=args.replication,
                placement=args.placement,
            )
            for mode in modes
        ]
    if slo_overrides:
        configs = [
            replace(cfg, slo=replace(cfg.slo, **slo_overrides))
            for cfg in configs
        ]

    status = EXIT_OK
    aborted = False
    runs_payload: List[Dict] = []
    for cfg in configs:
        print(
            f"soak [{cfg.mode}] {cfg.cell()}: {cfg.epochs} epochs × "
            f"{cfg.epoch_len} events, {cfg.crashes} seeded crash "
            f"cycle(s), seed {cfg.seed} ..."
        )
        try:
            result = run_soak(cfg)
        except ClusterDataLossError as exc:
            print(
                f"\nDATA LOSS: shards {list(exc.lost_shards)} lost every "
                f"replica ({exc.lost_events} events unrecoverable) — "
                f"soak aborted"
            )
            # The runs completed before the loss are still reported.
            aborted = True
            break
        run = soak_payload(result)
        runs_payload.append(run)
        config, m, checked = run["config"], run["metrics"], run["verification"]
        verified = checked["state"] and checked["outputs"] and checked["degraded_reads"]
        if not checked["ran"]:
            verified_cell = "skipped (--no-verify)"
        else:
            verified_cell = "OK" if verified else "FAIL"
        print_figure(
            f"Soak — {config['mode']} {config['scheme']} ({run['cell']})",
            render_table(
                ["metric", "value"],
                [
                    ["events", str(config["epochs"] * config["epoch_len"])],
                    ["virtual duration", format_seconds(m["duration_seconds"])],
                    ["offered rate", format_throughput(m["offered_eps"])],
                    ["throughput", format_throughput(m["throughput_eps"])],
                    [
                        "latency p50/p99/p999",
                        f"{format_seconds(m['latency_p50_seconds'])} / "
                        f"{format_seconds(m['latency_p99_seconds'])} / "
                        f"{format_seconds(m['latency_p999_seconds'])}",
                    ],
                    ["availability", f"{m['availability']:.4f}"],
                    ["outage", format_seconds(m["outage_seconds"])],
                    [
                        "MTTR mean/max",
                        f"{format_seconds(m['mttr_mean_seconds'])} / "
                        f"{format_seconds(m['mttr_max_seconds'])}",
                    ],
                    ["RTO max", format_seconds(m["rto_max_seconds"])],
                    ["RPO", f"{m['rpo_events']} events"],
                    [
                        "degraded reads",
                        f"{m['degraded_reads']} ({m['stale_reads']} stale-tagged)",
                    ],
                    ["deferred admissions", str(m["deferred_events"])],
                    ["verified vs ground truth", verified_cell],
                ],
            ),
        )
        print(describe_slo(run["slo"]))
        if not verified:
            print(
                "VERIFICATION FAILURE: post-recovery state, outputs or "
                "degraded reads diverge from the serial ground truth"
            )
        if not run["ok"]:
            status = EXIT_FAILURE
        print()
    _emit_json(
        args.json,
        {"schema": SOAK_SCHEMA, "runs": runs_payload},
        f"exported {len(runs_payload)} soak run(s) to {args.json}",
    )
    if aborted:
        return EXIT_FAILURE
    if status == EXIT_OK and all(run["verification"]["ran"] for run in runs_payload):
        print(f"soak: all {len(runs_payload)} run(s) verified, met their SLOs")
    elif status == EXIT_OK:
        print(f"soak: all {len(runs_payload)} run(s) met their SLOs, verification skipped")
    else:
        print("soak: FAILURE — SLO breach or verification failure (see above)")
    return status


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check.explorer import (
        build_frontier,
        explore,
        replay_repro,
        report_payload,
        repro_payload,
    )
    from repro.check.runner import CheckConfig
    from repro.errors import ConfigError

    if args.replay is not None:
        try:
            payload = json.loads(args.replay.read_text())
        except (OSError, ValueError) as exc:
            print(f"cannot read repro file {args.replay}: {exc}")
            return EXIT_USAGE
        try:
            result = replay_repro(payload)
        except ConfigError as exc:
            print(f"invalid repro file: {exc}")
            return EXIT_USAGE
        print(
            f"replaying {result['schedule']} against invariant "
            f"{result['invariant']} ..."
        )
        if result["reproduced"]:
            print(f"REPRODUCED: {result['detail']}")
            print(f"schedule fingerprint: {result['fingerprint']}")
            return EXIT_INVARIANT
        print(
            f"did not reproduce (run ended {result['outcome']}: "
            f"{result['detail'] or 'no violation'})"
        )
        return EXIT_OK

    kwargs: Dict = {
        "seed": args.seed,
        "include_cluster": not args.no_cluster,
        "require_coverage": not args.no_coverage,
    }
    if args.schemes:
        wanted = _parse_schemes(args.schemes)
        if wanted is None:
            return EXIT_USAGE
        kwargs["schemes"] = wanted
    try:
        cfg = CheckConfig(**kwargs)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}")
        return EXIT_USAGE
    print(
        f"exploring {len(build_frontier(cfg))} schedules (schemes "
        f"{','.join(cfg.schemes)}"
        f"{'+cluster' if cfg.include_cluster else ''}, seed {cfg.seed}) ..."
    )
    report = explore(cfg)
    payload = report_payload(report)

    coverage, required = payload["coverage"], payload["required_points"]
    print_figure(
        "Crash-point coverage",
        render_table(
            ["point", "passes", "covered"],
            [
                [p, str(coverage.get(p, 0)), "yes" if coverage.get(p) else "NO"]
                for p in required
            ],
        ),
    )
    print(
        f"\n{len(payload['runs'])} schedules run "
        f"(+{payload['shrink_runs']} shrink runs); "
        f"{len(required) - len(payload['uncovered_points'])}/{len(required)} "
        f"registered recovery crash points fired"
    )

    counterexamples = payload["counterexamples"]
    if counterexamples:
        print_figure(
            "Counterexamples (minimized)",
            render_table(
                ["invariant", "found with", "minimal", "atoms", "fingerprint"],
                [
                    [entry["invariant"], entry["found_with"], entry["minimal"],
                     str(entry["minimal_atoms"]), entry["fingerprint"]]
                    for entry in counterexamples
                ],
            ),
        )
        args.repro_dir.mkdir(parents=True, exist_ok=True)
        for ce, entry in zip(report.counterexamples, counterexamples):
            path = args.repro_dir / f"repro-{ce.invariant}-{ce.fingerprint}.json"
            write_json(path, repro_payload(ce, cfg))
            print(f"  {entry['detail']}")
            print(
                f"  schedule fingerprint: {entry['fingerprint']} — replay "
                f"with: repro check --replay {path}"
            )

    _emit_json(
        args.json,
        payload,
        f"exported exploration report to {args.json}",
    )

    if counterexamples:
        print(
            f"\ncheck: {len(counterexamples)} invariant "
            f"violation(s) found — repro files in {args.repro_dir}/"
        )
        return EXIT_INVARIANT
    if not payload["passed"]:
        print(
            "\ncheck: COVERAGE GAP — registered crash points never fired: "
            f"{', '.join(payload['uncovered_points'])}"
        )
        return EXIT_FAILURE
    from repro.check.invariants import INVARIANTS

    print(
        f"\ncheck: all {len(payload['runs'])} explored schedules satisfy "
        f"all {len(INVARIANTS)} invariants"
    )
    return EXIT_OK


def _cmd_gate(args: argparse.Namespace) -> int:
    from repro.harness.calibration import fig11_claims, soak_claims
    from repro.harness.export import diff_records
    from repro.harness.figgate import compute_gate, describe_gate
    from repro.harness.slo import append_record, baseline_for, load_trajectory
    from repro.harness.soak import bench_record, run_soak, smoke_configs

    status = EXIT_OK
    for name in [args.record] if args.record else GATE_RECORDS:
        path = Path(f"BENCH_{name}.json")
        if not path.exists():
            print(f"no {path} here: run `repro gate` from the repository root")
            return EXIT_USAGE
        if name == "fig11":
            fresh = compute_gate()
            print(describe_gate(fresh))
            pairs = [("fig11", json.loads(path.read_text()), fresh)]
            claims, write = fig11_claims, write_json
        else:
            trajectory = load_trajectory(path)
            pairs = []
            for cfg in smoke_configs():
                # A cell with no committed record compares against {}:
                # every key of its fresh record is then a difference.
                committed = baseline_for(trajectory, cfg.cell()) or {}
                pairs.append((cfg.cell(), committed, bench_record(run_soak(cfg))))
            claims, write = soak_claims, append_record
        rows, moved = [], []
        for label, committed, fresh in pairs:
            diffs = diff_records(committed, fresh)
            rows += [[label, *diff] for diff in diffs]
            if diffs:
                moved.append((committed, fresh))
        if not moved:
            print(f"{name} gate OK: {path} regenerates exactly\n")
            continue
        print_figure(
            f"{name} gate — numbers that moved",
            render_table(["record", "path", "committed", "fresh"], rows),
        )
        if not args.update:
            print(
                f"{name.upper()} GATE FAILED: if the move is deliberate, "
                f"`repro gate {name} --update` checks its bands and writes it\n"
            )
            status = EXIT_FAILURE
            continue
        # A newly seeded soak cell has no committed record to band against.
        checks = [
            check
            for committed, fresh in moved
            if committed
            for check in claims(committed, fresh)
        ]
        _print_checks(f"{name} gate — bands of the moved record", checks)
        if not all_hold(checks):
            print(f"{name}: a band failed, {path} left untouched\n")
            status = EXIT_FAILURE
            continue
        for _committed, fresh in moved:
            write(path, fresh)
        print(f"{name}: {path} updated\n")
    return status


def _print_checks(title: str, checks: List[CalibrationCheck]) -> None:
    rows = [
        ["PASS" if c.holds else "FAIL", c.claim, c.reference, c.detail]
        for c in checks
    ]
    print_figure(
        title, render_table(["verdict", "claim", "paper ref", "detail"], rows)
    )


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.harness.calibration import QUICK_CALIBRATION_SCALE

    scale = QUICK_CALIBRATION_SCALE if args.quick else figures.DEFAULT_SCALE
    print("running the qualitative-claim battery ...")
    checks = run_calibration(scale)
    _print_checks("Calibration — paper claims vs current cost model", checks)
    if all_hold(checks):
        print("\nall claims hold")
        return EXIT_OK
    failing = sum(1 for c in checks if not c.holds)
    print(f"\n{failing} claim(s) FAILED — see EXPERIMENTS.md and docs/cost-model.md")
    return EXIT_FAILURE


#: subcommand name -> handler taking the parsed arguments.
COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "list": _cmd_list,
    "run": _cmd_run,
    "figure": _cmd_figure,
    "chaos": _cmd_chaos,
    "cluster": _cmd_cluster,
    "soak": _cmd_soak,
    "check": _cmd_check,
    "gate": _cmd_gate,
    "calibrate": _cmd_calibrate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.errors import ConfigError

    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
