"""The benchmark's workloads, written out in full.

Every parameter is spelled here and nothing is imported from
``repro.harness.figures``, so a refactor of the harness cannot change
what the benchmark feeds the engine.  Names and sizes are fixed: later
issues cite them.  ``BENCHMARK.json`` repeats each ``why`` verbatim
(``test_bench.py`` checks that).

One *cell* is one scheme on one input: ``epoch_len × 2·snapshot_interval
× cycles`` events, a crash + recovery once per cycle placed so that each
recovery replays exactly ``recover_epochs`` epochs.  A workload is one
cell, except ``scheme_matrix`` which sums over 24.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro import GrepSum, StreamingLedger, TollProcessing

#: Simulated cores per scheme.  The engine is a synchronous library;
#: its "workers" are virtual, so this does not depend on the host.
NUM_WORKERS = 8

#: The eight registered schemes, spelled out because the per-layer
#: metric names ``scheme.<NAME>.*`` in BENCHMARK.json are fixed.
SCHEME_NAMES = ("NAT", "CKPT", "WAL", "PACMAN", "DL", "LV", "LVC", "MSR")

#: Input generators.  State size relative to the epoch, skew and abort
#: share set which layer dominates, so they are never scaled down.
INPUTS: Dict[str, Callable[[], object]] = {
    # The paper's headline ledger: 512 accounts + 512 assets.
    "SL": lambda: StreamingLedger(
        512, transfer_ratio=0.5, multi_partition_ratio=0.2, skew=0.6
    ),
    # State 256x the epoch: checkpoints dwarf everything else.
    "GS_BIG": lambda: GrepSum(
        65536, list_len=4, skew=0.2, multi_partition_ratio=0.5, abort_ratio=0.0
    ),
    # The most skewed input, with aborts.
    "GS": lambda: GrepSum(
        1024, list_len=8, skew=0.95, multi_partition_ratio=0.5, abort_ratio=0.05
    ),
    # Abort-heavy toll processing (low capacity => many rejected tolls).
    "TP": lambda: TollProcessing(256, skew=0.6, capacity=10),
}


@dataclass(frozen=True)
class Cell:
    """One scheme on one input, with its run→crash→recover shape."""

    input: str
    scheme: str
    epoch_len: int
    snapshot_interval: int
    recover_epochs: int
    cycles: int

    @property
    def period(self) -> int:
        """Epochs per cycle: two checkpoint intervals."""
        return 2 * self.snapshot_interval

    @property
    def crash_offset(self) -> int:
        """Crash after every epoch ``e`` with ``e % period`` equal to
        this: ``recover_epochs`` epochs past the cycle's first
        checkpoint (snapshots land after epochs ``k·interval − 1``)."""
        return self.snapshot_interval + self.recover_epochs - 1

    @property
    def num_epochs(self) -> int:
        return self.period * self.cycles

    @property
    def num_events(self) -> int:
        return self.epoch_len * self.num_epochs

    def shrunk(self, epoch_divisor: int = 1) -> "Cell":
        """Same shape, one cycle: the warm-up size.  The self-test also
        divides the epoch, which ruins the layer shares the full sizes
        are chosen for — never report a timing from such a cell."""
        return Cell(
            self.input, self.scheme, max(16, self.epoch_len // epoch_divisor),
            self.snapshot_interval, self.recover_epochs, 1,
        )


@dataclass(frozen=True)
class Workload:
    cells: Tuple[Cell, ...]
    #: one line, repeated in BENCHMARK.json.
    why: str
    #: measure ``real.recover_wall_ratio`` on this workload's input.
    real_backend_probe: bool = False

    def shrunk(self, epoch_divisor: int = 1) -> "Workload":
        return Workload(
            tuple(cell.shrunk(epoch_divisor) for cell in self.cells),
            self.why, self.real_backend_probe,
        )


WORKLOADS: Dict[str, Workload] = {
    "sl_msr": Workload(
        (Cell("SL", "MSR", 512, 5, 4, 6),),
        "Paper's headline cell and the only one where core runs: every "
        "layer does real work (engine .4, storage .25, core .13, ft .12, "
        "sim .1).",
        real_backend_probe=True,
    ),
    "sl_ckpt": Workload(
        (Cell("SL", "CKPT", 512, 5, 4, 6),),
        "Same events, no logging, recovery reprocesses: engine+sim ~3/4 "
        "of wall, core idle; a TPG/scheduling gain shows here, a core or "
        "view-log change must not.",
    ),
    "gs_bigstate_ckpt": Workload(
        (Cell("GS_BIG", "CKPT", 256, 3, 1, 7),),
        "State 256x the epoch: checkpoint encode/decode ~.85 of wall, "
        "engine ~.1; few huge dict payloads written and read back, the "
        "opposite codec shape to sl_msr.",
    ),
    "gs_pacman": Workload(
        (Cell("GS", "PACMAN", 512, 5, 4, 6),),
        "Strongest log-replay baseline on the most skewed input: many "
        "small command records written, read back, sorted and "
        "batch-analysed on recovery; core idle.",
    ),
    "scheme_matrix": Workload(
        tuple(
            Cell(inp, scheme, 256, 5, 4, 1)
            for scheme in SCHEME_NAMES
            for inp in ("SL", "GS", "TP")
        ),
        "All eight schemes x SL/GS/TP, the traffic figures and tests "
        "serve: guards that an MSR gain costs no baseline; only place "
        "TP aborts and DL/LV/LVC/WAL/NAT run.",
    ),
}
