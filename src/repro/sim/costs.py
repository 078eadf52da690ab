"""Calibrated cost model: seconds per simulated primitive.

Every timing number the harness reports is derived from these constants
plus the structure of the *actually executed* workload (how many state
accesses ran, how many dependency edges crossed workers, how many bytes
were flushed, ...).  The defaults are calibrated so that the default
experiment configuration lands in the same regime the paper reports
(runtime throughput in the hundreds of thousands of events/s on a
single socket; recovery times of seconds), but only relative shapes —
who wins, where crossovers fall — are claimed to reproduce.

All durations are in seconds; all "per_*" constants are per primitive
occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf

from repro.errors import ConfigError

#: 1 microsecond, the natural unit for in-memory primitives.
US = 1e-6


@dataclass(frozen=True)
class CostModel:
    """Seconds charged per primitive by the virtual-time simulator.

    The constants fall into four groups: transaction execution,
    dependency machinery, logging/tracking, and recovery-specific work.
    ``scaled()`` produces a uniformly faster/slower machine, which the
    scalability bench uses to model per-core frequency differences.
    """

    # --- transaction execution -------------------------------------------
    #: One read or write of a state record (hash probe + copy).
    state_access: float = 1.0 * US
    #: One user-defined function evaluation (the ``f`` in ``W_t(k, f(...))``).
    udf: float = 0.5 * US
    #: Evaluating one abort condition against resolved read values.
    condition_check: float = 0.4 * US
    #: Turning one input event into a state transaction (preprocessing).
    preprocess_event: float = 0.8 * US
    #: Producing one output from transaction results (postprocessing).
    postprocess_event: float = 0.5 * US

    # --- dependency machinery --------------------------------------------
    #: Cross-core handoff: a dependency edge whose endpoints run on
    #: different cores (cache-line transfer + notification).
    sync_handoff: float = 1.2 * US
    #: Inspecting one dependency edge while exploring a task graph.
    explore_dependency: float = 0.8 * US
    #: CPU burned by a consumer to resolve one *cross-worker* dependency
    #: (coherence miss + queue/notification handling).  Intra-worker
    #: dependencies are free — eliminating this cost is what selective
    #: logging and operation restructuring buy.
    remote_fetch: float = 2.0 * US
    #: Inserting one vertex while constructing a task-precedence /
    #: dependency graph.
    construct_node: float = 0.9 * US
    #: Inserting one edge while constructing a dependency graph.
    construct_edge: float = 1.2 * US
    #: Reconstructing one vertex of a dependency graph *from log
    #: records* during recovery (decode + hash probe on cold data —
    #: DistDGCC's dominant recovery cost, §III-B).
    rebuild_node: float = 2.0 * US
    #: Reconstructing one edge of a dependency graph from log records.
    rebuild_edge: float = 3.5 * US
    #: Rolling back / re-dispatching one aborted transaction.
    abort_transaction: float = 8.0 * US

    # --- logging and tracking (runtime overhead) --------------------------
    #: Appending one record to a classic log buffer at runtime (tail
    #: latch + CRC + copy) — paid per committed transaction by WAL/DL/LV.
    log_record_append: float = 2.2 * US
    #: Tracking one dependency at runtime (DL edge record, LV vector merge).
    track_dependency: float = 1.0 * US
    #: Maintaining/checking one LSN-vector entry (Taurus/LV).  Recovery
    #: checks every entry of the global recovery vector per transaction
    #: with synchronized access, hence the relatively high unit cost.
    lsn_vector_entry: float = 1.0 * US
    #: Recording one intermediate result into a MorphStreamR view.
    view_record: float = 2.0 * US
    #: Looking one intermediate result up from a view during recovery.
    view_lookup: float = 0.35 * US
    #: Bulk-loading one entry into the view index during recovery
    #: (cheaper than graph construction: append + hash insert).
    view_index_entry: float = 0.8 * US
    #: Graph-partitioning work per chain vertex (selective logging).
    partition_vertex: float = 0.25 * US
    #: Graph-partitioning work per inter-chain edge (selective logging).
    partition_edge: float = 0.1 * US
    #: Serializing one log/snapshot byte into the write buffer.
    serialize_byte: float = 0.0008 * US

    # --- recovery-specific -----------------------------------------------
    #: Per-element coefficient of the O(n log n) global sort WAL performs
    #: to re-establish a total order over group-committed command logs.
    sort_per_element: float = 2.5 * US
    #: One union-find probe (find + path compression / union) over a
    #: transaction's record access during PACMAN-style static log
    #: analysis, charged once per distinct record each transaction
    #: touches.  The charge is the paper's union-find; ``static_batches``
    #: finds the same components by merging record labels instead.
    #: Cheaper than ``construct_edge``: the probe walks interned refs
    #: already decoded and warm in cache, where DL's graph rebuild
    #: decodes edge records against cold data.
    static_analysis_access: float = 0.3 * US
    #: Passing one shadow operation (decrement a dependency counter).
    shadow_visit: float = 0.45 * US
    #: Switching a worker from one operation chain to another during
    #: shadow-based exploration.
    chain_switch: float = 1.5 * US
    #: Dispatching one task (chain / partition) to a worker queue.
    task_dispatch: float = 1.0 * US

    # --- I/O shaping -------------------------------------------------------
    #: Fraction of runtime log/snapshot I/O hidden by the non-blocking
    #: async path of §VI-C (0 = fully exposed, 1 = fully hidden).
    io_overlap: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.io_overlap <= 1.0:
            raise ConfigError(
                f"io_overlap must be within [0, 1], got {self.io_overlap}"
            )
        for name, value in self.__dict__.items():
            if name != "io_overlap" and not 0 <= value < inf:
                raise ConfigError(
                    f"cost {name} must be finite and >= 0, got {value}"
                )

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with every CPU cost multiplied by ``factor``.

        ``io_overlap`` is a ratio, not a duration, so it is preserved.
        """
        if not 0 < factor < inf:
            raise ConfigError(
                f"scale factor must be finite and > 0, got {factor}"
            )
        updates = {
            name: value * factor
            for name, value in self.__dict__.items()
            if name != "io_overlap"
        }
        return replace(self, **updates)


#: The calibration used by all paper-figure benchmarks.
DEFAULT_COSTS = CostModel()
