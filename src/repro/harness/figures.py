"""Paper-figure experiment definitions (§VIII).

One function per evaluation figure; each returns plain data structures
(dicts/lists of numbers) that ``repro figure`` prints and the claim
battery (:mod:`repro.harness.calibration`) asserts shape properties on.
``FigureScale`` controls experiment size so the same definitions serve
quick test runs and full benchmark-scale runs.  :data:`FIGURES` indexes
them by name; the ablations and the Online Bidding extension of
DESIGN.md §6-7 follow the figures.

A workload is data, a hashable :class:`WorkloadSpec`, so an experiment
is a key: every figure reads its runs from one in-process run table
(:func:`_run`), and each distinct experiment runs once per process
however many figures plot it.  The table is never written to disk: a
cached result would hide a nondeterminism that a rerun shows.

Figure index (see DESIGN.md §4 and EXPERIMENTS.md):

- :func:`fig2_motivation` — runtime throughput vs recovery time (SL);
- :func:`fig9_commit_epochs` — runtime/recovery throughput across log
  commitment epochs for the LSFD/LSMD/HSFD/HSMD regimes;
- :func:`fig11_breakdown` — recovery-time breakdown per scheme per app;
- :func:`fig11d_factor` — incremental factor analysis of MSR's
  recovery optimizations;
- :func:`fig12a_runtime` — runtime throughput per scheme;
- :func:`fig12b_selective` — logging efficiency with/without selective
  logging vs multi-partition ratio;
- :func:`fig12c_memory` — peak memory footprint per scheme;
- :func:`fig12d_overhead` — runtime overhead breakdown (I/O, tracking,
  sync) relative to native execution;
- :func:`fig13_scalability` — recovery throughput vs core count;
- :func:`fig14_sensitivity` — recovery throughput vs multi-partition
  ratio / skew / abort ratio.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro import buckets
from repro.core.commitment import AdaptiveCommitController
from repro.core.morphstreamr import MorphStreamR, MSROptions
from repro.engine.verify import verify_exact
from repro.ft.base import FTScheme
from repro.ft.checkpoint import GlobalCheckpoint
from repro.ft.dlog import DependencyLogging
from repro.ft.lsnvector import LSNVector, LSNVectorCompressed
from repro.ft.native import Native
from repro.ft.pacman import WALPacman
from repro.ft.wal import WriteAheadLog
from repro.harness.runner import ExperimentConfig, ExperimentResult, run_experiment
from repro.workloads.base import Workload
from repro.workloads.grep_sum import GrepSum
from repro.workloads.online_bidding import OnlineBidding
from repro.workloads.streaming_ledger import StreamingLedger
from repro.workloads.toll_processing import TollProcessing

#: Schemes compared in recovery experiments (NAT cannot recover).
#: PACMAN and LVC are the "baselines that fight back" of ROADMAP item
#: 3: parallel command-log redo and compressed Taurus vectors, so the
#: headline figures measure MSR against the strongest competition.
RECOVERY_SCHEMES: Dict[str, type] = {
    "CKPT": GlobalCheckpoint,
    "WAL": WriteAheadLog,
    "PACMAN": WALPacman,
    "DL": DependencyLogging,
    "LV": LSNVector,
    "LVC": LSNVectorCompressed,
    "MSR": MorphStreamR,
}

#: Schemes compared at runtime (includes the NAT upper bound).
RUNTIME_SCHEMES: Dict[str, type] = {"NAT": Native, **RECOVERY_SCHEMES}


@dataclass(frozen=True)
class FigureScale:
    """Experiment sizing shared by all figures."""

    epoch_len: int = 256
    snapshot_interval: int = 5
    recover_epochs: int = 4
    num_workers: int = 8
    seed: int = 7


#: Full-size default: ``repro figure`` and ``repro calibrate``.
DEFAULT_SCALE = FigureScale()
#: Reduced size for fast tests.
QUICK_SCALE = FigureScale(epoch_len=64, snapshot_interval=3, recover_epochs=2)


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload as data: its class, its size and its sorted parameters.

    Hashable, so an experiment on it can key the run table (:func:`_run`);
    callable, so it is still a valid ``ExperimentConfig.workload_factory``.
    """

    cls: Type[Workload]
    size: int
    params: Tuple[Tuple[str, object], ...]

    def __call__(self) -> Workload:
        return self.cls(self.size, **dict(self.params))


def _spec(cls: Type[Workload], size: int, overrides: Dict, **params) -> WorkloadSpec:
    return WorkloadSpec(cls, size, tuple(sorted({**params, **overrides}.items())))


def sl_factory(num_partitions: int = 8, **overrides) -> WorkloadSpec:
    """Default Streaming Ledger configuration of §VIII-A."""
    return _spec(StreamingLedger, 512, overrides, transfer_ratio=0.5,
                 multi_partition_ratio=0.2, skew=0.6, num_partitions=num_partitions)


def gs_factory(
    num_partitions: int = 8, num_keys: int = 1024, **overrides
) -> WorkloadSpec:
    """Default Grep&Sum configuration: the most skewed workload."""
    return _spec(GrepSum, num_keys, overrides, list_len=8, skew=0.95,
                 multi_partition_ratio=0.5, abort_ratio=0.05,
                 num_partitions=num_partitions)


def tp_factory(num_partitions: int = 8, **overrides) -> WorkloadSpec:
    """Default Toll Processing configuration: aborts are common."""
    return _spec(TollProcessing, 256, overrides, skew=0.6, capacity=10.0,
                 num_partitions=num_partitions)


def ob_factory(num_partitions: int = 8, **overrides) -> WorkloadSpec:
    """Online Bidding: two interacting abort conditions per bid."""
    return _spec(OnlineBidding, 512, overrides, bid_ratio=0.8, alter_ratio=0.1,
                 skew=0.5, num_partitions=num_partitions)


WORKLOADS: Dict[str, Callable[..., WorkloadSpec]] = {
    "SL": sl_factory,
    "GS": gs_factory,
    "TP": tp_factory,
    "OB": ob_factory,
}


@functools.cache
def _run(
    scale: FigureScale, workload: WorkloadSpec, scheme: type, **scheme_kwargs
) -> ExperimentResult:
    """The run table: every figure, ablation and the Fig. 11 record read
    their runs here, so each distinct experiment runs once per process
    (Fig. 2, 12c and 12d are three views of one SL sweep)."""
    return run_experiment(ExperimentConfig(
        workload_factory=workload, scheme=scheme, scheme_kwargs=scheme_kwargs,
        **asdict(scale),
    ))


def _sweep(
    scale: FigureScale, workload: WorkloadSpec, schemes: Dict[str, type] = RECOVERY_SCHEMES
) -> Dict[str, ExperimentResult]:
    """Scheme name -> its run of ``workload`` at ``scale``."""
    return {name: _run(scale, workload, scheme) for name, scheme in schemes.items()}


def _recovery_curves(
    sweeps: Sequence[Tuple[object, Dict[str, ExperimentResult]]],
) -> Dict[str, List[Tuple[object, float]]]:
    """Per recovery scheme: (x, recovery events/s) over ``(x, sweep)`` pairs."""
    return {
        name: [(x, sweep[name].recovery.throughput_eps) for x, sweep in sweeps]
        for name in RECOVERY_SCHEMES
    }


# ---------------------------------------------------------------------------
# Fig. 2 — motivation: runtime throughput vs recovery time (SL)
# ---------------------------------------------------------------------------

def fig2_motivation(
    scale: FigureScale = DEFAULT_SCALE,
) -> Dict[str, Dict[str, float]]:
    """Per scheme: runtime throughput and recovery time on SL."""
    return {
        name: {
            "runtime_eps": outcome.runtime.throughput_eps,
            "recovery_seconds": (
                outcome.recovery.elapsed_seconds if outcome.recovery else 0.0
            ),
        }
        for name, outcome in _sweep(scale, sl_factory(), RUNTIME_SCHEMES).items()
    }


# ---------------------------------------------------------------------------
# Fig. 9 — runtime vs recovery throughput under commitment epochs
# ---------------------------------------------------------------------------

#: The four contention regimes of §VI-B (GS parameterizations).
FIG9_REGIMES: Dict[str, Dict] = {
    "LSFD": dict(skew=0.0, multi_partition_ratio=0.1, list_len=2, abort_ratio=0.0),
    "LSMD": dict(skew=0.0, multi_partition_ratio=0.8, list_len=8, abort_ratio=0.0),
    "HSFD": dict(skew=0.9, multi_partition_ratio=0.1, list_len=2, abort_ratio=0.0),
    "HSMD": dict(skew=0.9, multi_partition_ratio=0.8, list_len=8, abort_ratio=0.0),
}


def fig9_commit_epochs(
    scale: FigureScale = DEFAULT_SCALE,
    epoch_lens: Sequence[int] = (64, 128, 256, 512, 1024),
) -> Dict[str, List[Tuple[int, float, float]]]:
    """Per regime: (epoch_len, runtime_eps, recovery_eps) curve for MSR.

    The punctuation epoch equals the log-commitment epoch (transaction
    and commit markers are aligned by default, §VI-C).
    """
    curves: Dict[str, List[Tuple[int, float, float]]] = {}
    for regime, params in FIG9_REGIMES.items():
        factory = gs_factory(**params)
        points = []
        for epoch_len in epoch_lens:
            sized = replace(scale, epoch_len=epoch_len)
            outcome = _run(sized, factory, MorphStreamR)
            points.append(
                (
                    epoch_len,
                    outcome.runtime.throughput_eps,
                    outcome.recovery.throughput_eps,
                )
            )
        curves[regime] = points
    return curves


# ---------------------------------------------------------------------------
# Fig. 11(a-c) — recovery-time breakdown per scheme per application
# ---------------------------------------------------------------------------

def fig11_breakdown(
    scale: FigureScale = DEFAULT_SCALE,
    apps: Sequence[str] = ("SL", "GS", "TP"),
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per app, per scheme: per-bucket recovery seconds (Fig. 11a-c)."""
    return {
        app: {
            name: {
                bucket: outcome.recovery.buckets.get(bucket, 0.0)
                for bucket in buckets.RECOVERY_BUCKETS
            }
            for name, outcome in _sweep(scale, WORKLOADS[app]()).items()
        }
        for app in apps
    }


#: The incremental optimization stack of Fig. 11d.
FACTOR_STEPS: List[Tuple[str, MSROptions]] = [
    (
        "Simple",
        MSROptions(
            op_restructure=False, abort_pushdown=False, opt_task_assign=False
        ),
    ),
    (
        "+OpRestructure",
        MSROptions(abort_pushdown=False, opt_task_assign=False),
    ),
    ("+AbortPD", MSROptions(opt_task_assign=False)),
    ("+OptTaskAssign", MSROptions()),
]


def fig11d_factor(
    scale: FigureScale = DEFAULT_SCALE,
    apps: Sequence[str] = ("SL", "GS", "TP"),
) -> Dict[str, List[Tuple[str, float]]]:
    """Per app: recovery seconds as optimizations stack up (Fig. 11d)."""
    results: Dict[str, List[Tuple[str, float]]] = {}
    for app in apps:
        factory = WORKLOADS[app]()
        steps = []
        for label, options in FACTOR_STEPS:
            outcome = _run(scale, factory, MorphStreamR, options=options)
            steps.append((label, outcome.recovery.elapsed_seconds))
        results[app] = steps
    return results


# ---------------------------------------------------------------------------
# Fig. 12 — runtime performance, selective logging, memory, overhead
# ---------------------------------------------------------------------------

def fig12a_runtime(
    scale: FigureScale = DEFAULT_SCALE,
    apps: Sequence[str] = ("SL", "GS", "TP"),
) -> Dict[str, Dict[str, float]]:
    """Per app, per scheme: runtime throughput (Fig. 12a)."""
    return {
        app: {
            name: outcome.runtime.throughput_eps
            for name, outcome in _sweep(
                scale, WORKLOADS[app](), RUNTIME_SCHEMES
            ).items()
        }
        for app in apps
    }


def logging_efficiency(
    runtime_nat_eps: float,
    runtime_msr_eps: float,
    recovery_msr_eps: float,
    recovery_ckpt_eps: float,
) -> float:
    """The Fig. 12b metric: recovery gain per unit of runtime loss.

    Recovery improvement is measured against CKPT (the no-logging
    recovery baseline); runtime degradation against NAT (the no-logging
    runtime baseline).  Higher is better.
    """
    improvement = recovery_msr_eps / recovery_ckpt_eps
    degradation = runtime_nat_eps / runtime_msr_eps
    return improvement / degradation


def fig12b_selective(
    scale: FigureScale = DEFAULT_SCALE,
    ratios: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
) -> List[Tuple[float, float, float]]:
    """(multi-partition ratio, efficiency with, without selective logging).

    The ratio is the share of *multi-partition transactions* in the
    stream: cross-partition SL transfers (which carry parametric
    dependencies) versus single-partition deposits.  More multi-partition
    transactions mean more PDs (§VI-B1), which is what makes selective
    logging pay off.
    """
    points = []
    for ratio in ratios:
        factory = sl_factory(multi_partition_ratio=1.0, transfer_ratio=ratio)
        nat = _run(scale, factory, Native)
        ckpt = _run(scale, factory, GlobalCheckpoint)
        with_sel = _run(scale, factory, MorphStreamR)
        without_sel = _run(
            scale,
            factory,
            MorphStreamR,
            options=MSROptions(selective_logging=False),
        )
        points.append(
            (
                ratio,
                logging_efficiency(
                    nat.runtime.throughput_eps,
                    with_sel.runtime.throughput_eps,
                    with_sel.recovery.throughput_eps,
                    ckpt.recovery.throughput_eps,
                ),
                logging_efficiency(
                    nat.runtime.throughput_eps,
                    without_sel.runtime.throughput_eps,
                    without_sel.recovery.throughput_eps,
                    ckpt.recovery.throughput_eps,
                ),
            )
        )
    return points


def fig12c_memory(
    scale: FigureScale = DEFAULT_SCALE,
) -> Dict[str, int]:
    """Peak runtime memory footprint per scheme on SL (Fig. 12c)."""
    return {
        name: outcome.runtime.peak_memory_bytes
        for name, outcome in _sweep(scale, sl_factory(), RUNTIME_SCHEMES).items()
    }


def fig12d_overhead(
    scale: FigureScale = DEFAULT_SCALE,
) -> Dict[str, Dict[str, float]]:
    """Per scheme: I/O / tracking / sync seconds relative to NAT (SL)."""
    return {
        name: {
            bucket: outcome.runtime.buckets.get(bucket, 0.0)
            for bucket in buckets.RUNTIME_OVERHEAD_BUCKETS
        }
        for name, outcome in _sweep(scale, sl_factory(), RUNTIME_SCHEMES).items()
    }


# ---------------------------------------------------------------------------
# Fig. 13 — scalability: recovery throughput vs core count
# ---------------------------------------------------------------------------

def fig13_scalability(
    scale: FigureScale = DEFAULT_SCALE,
    cores: Sequence[int] = (1, 2, 4, 8, 16, 32),
    apps: Sequence[str] = ("SL", "GS", "TP"),
) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
    """Per app, per scheme: (cores, recovery events/s) curve (Fig. 13)."""
    return {
        app: _recovery_curves([
            (
                num_cores,
                _sweep(
                    replace(scale, num_workers=num_cores),
                    WORKLOADS[app](num_partitions=max(num_cores, 1)),
                ),
            )
            for num_cores in cores
        ])
        for app in apps
    }


# ---------------------------------------------------------------------------
# Fig. 14 — workload sensitivity (GS)
# ---------------------------------------------------------------------------

def fig14a_multi_partition(
    scale: FigureScale = DEFAULT_SCALE,
    ratios: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
) -> Dict[str, List[Tuple[float, float]]]:
    """Recovery throughput vs multi-partition ratio (skew 0, no aborts)."""
    return _recovery_curves([
        (ratio, _sweep(scale, gs_factory(
            skew=0.0, abort_ratio=0.0, multi_partition_ratio=ratio,
            list_len=8,
        )))
        for ratio in ratios
    ])


def fig14b_skew(
    scale: FigureScale = DEFAULT_SCALE,
    skews: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 0.99),
) -> Dict[str, List[Tuple[float, float]]]:
    """Recovery throughput vs access skew (write-only, no aborts)."""
    return _recovery_curves([
        (skew, _sweep(scale, gs_factory(
            num_keys=8192, skew=skew, abort_ratio=0.0,
            multi_partition_ratio=0.0, write_ratio=1.0,
        )))
        for skew in skews
    ])


def fig14c_aborts(
    scale: FigureScale = DEFAULT_SCALE,
    abort_ratios: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8),
) -> Dict[str, List[Tuple[float, float]]]:
    """Recovery throughput vs share of events triggering aborts."""
    return _recovery_curves([
        (ratio, _sweep(scale, gs_factory(abort_ratio=ratio, skew=0.2)))
        for ratio in abort_ratios
    ])


#: figure name -> (callable, human description); each callable's default
#: sweep is what ``repro figure``, ``scripts/regenerate_experiments.py``
#: and the claim battery run.
FIGURES: Dict[str, Tuple[Callable, str]] = {
    "fig2": (fig2_motivation, "runtime vs recovery per scheme (SL)"),
    "fig9": (fig9_commit_epochs, "commitment-epoch trade-off (GS)"),
    "fig11": (fig11_breakdown, "recovery-time breakdown per scheme"),
    "fig11d": (fig11d_factor, "factor analysis of MSR optimizations"),
    "fig12a": (fig12a_runtime, "runtime throughput per scheme"),
    "fig12b": (fig12b_selective, "selective-logging efficiency"),
    "fig12c": (fig12c_memory, "peak memory footprint per scheme"),
    "fig12d": (fig12d_overhead, "runtime overhead breakdown"),
    "fig13": (fig13_scalability, "recovery scalability vs cores"),
    "fig14a": (fig14a_multi_partition, "multi-partition sensitivity"),
    "fig14b": (fig14b_skew, "skew sensitivity (write-only)"),
    "fig14c": (fig14c_aborts, "abort-ratio sensitivity"),
}


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md §6) and the Online Bidding extension (§7)
# ---------------------------------------------------------------------------

def ablation_adaptive_commit(
    scale: FigureScale = DEFAULT_SCALE,
) -> Dict[str, Dict[str, Tuple[float, float, bool]]]:
    """Per Fig. 9 regime: MSR's (runtime eps, recovery eps, exact) with
    commitment epochs pinned at 64 events, pinned at 1024, and resized
    from 64 by the balanced adaptive controller (recovery weight 0.5);
    on HSMD also by a runtime-first one (weight 0).

    The epoch lengths are the subject, so only the worker count and the
    seed come from ``scale``: one stream of nine 1024-event epochs,
    snapshots every 5 epochs.
    """
    small, large = 64, 1024

    def cycle(params: Dict, epoch_len: int, weight: Optional[float] = None):
        workload = gs_factory(**params)()
        kwargs = {}
        if weight is not None:
            kwargs["controller"] = AdaptiveCommitController(
                small, large, recovery_weight=weight
            )
        scheme = MorphStreamR(
            workload, num_workers=scale.num_workers, epoch_len=epoch_len,
            snapshot_interval=5, **kwargs,
        )
        events = workload.generate(large * 9, seed=scale.seed)
        runtime = scheme.process_stream(events)
        scheme.crash()
        recovery = scheme.recover()
        exact = verify_exact(
            scheme.store, scheme.sink.outputs(), workload,
            events[: runtime.events_processed],
        )
        return runtime.throughput_eps, recovery.throughput_eps, bool(exact)

    results: Dict[str, Dict[str, Tuple[float, float, bool]]] = {}
    for regime, params in FIG9_REGIMES.items():
        results[regime] = {
            "fixed-small": cycle(params, small),
            "fixed-large": cycle(params, large),
            "adaptive": cycle(params, small, weight=0.5),
        }
    results["HSMD"]["adaptive-runtime-first"] = cycle(
        FIG9_REGIMES["HSMD"], small, weight=0.0
    )
    return results


def ablation_assignment(
    scale: FigureScale = DEFAULT_SCALE,
) -> Dict[str, Dict]:
    """MSR recovery seconds on GS: LPT vs round-robin bundle assignment
    per skew (``"policy"``), and per partitions-per-worker at skew 0.95
    (``"granularity"``)."""

    def seconds(skew: float, options: MSROptions) -> float:
        factory = gs_factory(skew=skew, abort_ratio=0.0)
        return _run(scale, factory, MorphStreamR, options=options).recovery.elapsed_seconds

    return {
        "policy": {
            skew: {
                "LPT": seconds(skew, MSROptions()),
                "round-robin": seconds(skew, MSROptions(opt_task_assign=False)),
            }
            for skew in (0.0, 0.6, 0.95)
        },
        "granularity": {
            ppw: seconds(0.95, MSROptions(partitions_per_worker=ppw))
            for ppw in (1, 2, 4)
        },
    }


def ablation_incremental_checkpoints(
    scale: FigureScale = DEFAULT_SCALE,
) -> Dict[str, Dict[str, float]]:
    """MSR on TP with full snapshots vs deltas anchored by a full
    snapshot every 4: runtime, checkpoint bytes and recovery reload."""
    results: Dict[str, Dict[str, float]] = {}
    for label, kwargs in (
        ("full", {}),
        ("incremental", dict(incremental_snapshots=True, full_snapshot_every=4)),
    ):
        outcome = _run(scale, tp_factory(), MorphStreamR, **kwargs)
        results[label] = {
            "runtime_eps": outcome.runtime.throughput_eps,
            "snapshot_bytes": outcome.runtime.snapshot_bytes_written,
            "reload_seconds": outcome.recovery.buckets.get(buckets.RELOAD, 0.0),
        }
    return results


def ablation_shadow(
    scale: FigureScale = DEFAULT_SCALE,
) -> Dict[str, Dict[str, float]]:
    """MSR on SL with every transaction a cross-partition transfer:
    selective logging + shadow exploration vs full view logging."""
    factory = sl_factory(transfer_ratio=1.0, multi_partition_ratio=1.0)
    results: Dict[str, Dict[str, float]] = {}
    for label, options in (
        ("selective", MSROptions()),
        ("full", MSROptions(selective_logging=False)),
    ):
        outcome = _run(scale, factory, MorphStreamR, options=options)
        results[label] = {
            "runtime_eps": outcome.runtime.throughput_eps,
            "recovery_seconds": outcome.recovery.elapsed_seconds,
            "log_bytes": outcome.runtime.bytes_logged,
        }
    return results


def extra_online_bidding(
    scale: FigureScale = DEFAULT_SCALE,
) -> Dict[str, Dict[str, float]]:
    """Per recoverable scheme on Online Bidding: recovery seconds and
    whether the state verified exact."""
    return {
        name: {
            "recovery_seconds": outcome.recovery.elapsed_seconds,
            "state_verified": outcome.recovery.state_verified,
        }
        for name, outcome in _sweep(scale, ob_factory()).items()
    }
