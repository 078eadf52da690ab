"""MorphStreamR reproduction: fast parallel recovery for transactional
stream processing on multicores (ICDE 2024).

Quickstart::

    from repro import MorphStreamR, StreamingLedger

    workload = StreamingLedger(1024)
    engine = MorphStreamR(workload, num_workers=8, epoch_len=512)
    engine.process_stream(workload.generate(10_000, seed=1))
    engine.crash()
    report = engine.recover()
    print(report.elapsed_seconds, report.buckets)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
the paper-figure reproductions under ``benchmarks/``.
"""

from repro.core import (
    AdaptiveCommitController,
    MorphStreamR,
    MSROptions,
)
from repro.engine import Event, StateRef, StateStore
from repro.ft import (
    DependencyLogging,
    FTScheme,
    GlobalCheckpoint,
    LSNVector,
    LSNVectorCompressed,
    Native,
    OutputSink,
    RecoveryReport,
    RuntimeReport,
    WALPacman,
    WriteAheadLog,
)
from repro.sim import CostModel, Machine
from repro.workloads import (
    GrepSum,
    OnlineBidding,
    StreamingLedger,
    SyntheticWorkload,
    TollProcessing,
    Workload,
    ZipfianGenerator,
)

__version__ = "1.0.0"

#: Scheme registry used by the harness and benchmarks.
SCHEMES = {
    "NAT": Native,
    "CKPT": GlobalCheckpoint,
    "WAL": WriteAheadLog,
    "PACMAN": WALPacman,
    "DL": DependencyLogging,
    "LV": LSNVector,
    "LVC": LSNVectorCompressed,
    "MSR": MorphStreamR,
}

__all__ = [
    "MorphStreamR",
    "MSROptions",
    "AdaptiveCommitController",
    "Native",
    "GlobalCheckpoint",
    "WriteAheadLog",
    "WALPacman",
    "DependencyLogging",
    "LSNVector",
    "LSNVectorCompressed",
    "FTScheme",
    "OutputSink",
    "RuntimeReport",
    "RecoveryReport",
    "Event",
    "StateRef",
    "StateStore",
    "CostModel",
    "Machine",
    "Workload",
    "StreamingLedger",
    "GrepSum",
    "TollProcessing",
    "OnlineBidding",
    "SyntheticWorkload",
    "ZipfianGenerator",
    "SCHEMES",
    "__version__",
]
