"""ShardedCluster: N shard-local MorphStreamR instances + failure domains.

ROADMAP item 2's regime: the key space is range-partitioned across N
shards, each an independent MorphStreamR instance (own disk, own
simulated multicore) placed on a node of a rack.  One global event
stream is routed per cluster epoch:

1. the coordinator preprocesses the batch, detects cross-shard
   transactions and runs one *frontier pass* over a federated
   (read-through, write-buffered) view of all shard stores, pinning
   every cross-shard verdict and read value into the per-epoch
   :class:`DependencyFrontier`;
2. each touched shard durably commits its frontier slice as an extra
   ``"frontier"`` log stream, then processes its localized slice of the
   epoch through the ordinary FTScheme pipeline (selective logging,
   checkpoints, GC — all unchanged);
3. at the epoch boundary a scheduled :class:`ClusterFault` may kill a
   failure domain: every shard in it loses its volatile state, and for
   node/rack kills the node-local storage dies too — recovery is then
   only possible from placement replicas.  Boundary kills are the only
   faults a cluster takes: its shards run on fault-free disks, so no
   shard ever dies mid-epoch.

Recovery first checks that every dead shard kept a copy under its
placement (failing **loudly** with :class:`ClusterDataLossError` when
the correlated kill out-ran the replication factor), then recovers each
dead shard from durable bytes alone — the frontier stream is reloaded
from disk, so cross-shard dependencies resolve without contacting any
other shard, and concurrent shard recoveries converge to the serial
ground truth.  Dead shards' recoveries are LPT-packed onto the
surviving nodes; the resulting :class:`ClusterRecoveryReport` embeds
each shard's :class:`~repro.ft.reports.RecoveryReport` and carries the
aggregate MTTR and the availability-centric RTO of Vogel et al.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.cluster.faultplan import ClusterFault
from repro.cluster.frontier import DependencyFrontier, FederatedView, FrontierEntry
from repro.cluster.placement import PlacementStrategy, get_placement
from repro.cluster.sharding import SHARD_INTERNAL, ShardMap, ShardWorkload
from repro.cluster.topology import ClusterTopology, KillTarget
from repro.core.assignment import lpt_assign
from repro.core.morphstreamr import MorphStreamR
from repro.engine.events import Event
from repro.engine.refs import StateRef
from repro.engine.execution import execute_tpg, preprocess
from repro.engine.state import StateStore
from repro.engine.tpg import build_tpg
from repro.engine.transactions import Transaction
from repro.engine.verify import Exactness, verify_exact
from repro.errors import ClusterDataLossError, ConfigError, RecoveryError
from repro.ft.base import DegradedRead, FTScheme, OutputSink, RecoveryReport
from repro.storage.codec import Encoded, encode, join_list
from repro.storage.device import StorageDevice
from repro.storage.stores import Disk

#: Log stream carrying each shard's slice of the dependency frontier.
FRONTIER_STREAM = "frontier"


@dataclass
class ClusterRuntimeReport:
    """What one runtime phase of the whole cluster measured."""

    num_shards: int
    events_processed: int
    epochs: int
    elapsed_seconds: float
    throughput_eps: float
    cross_shard_txns: int
    total_txns: int
    replication_bytes: int

    @property
    def cross_shard_ratio(self) -> float:
        return self.cross_shard_txns / self.total_txns if self.total_txns else 0.0


@dataclass
class ShardRecoveryRecord:
    """One dead shard's recovery, in cluster coordinates.

    ``mttr_seconds`` is the shard scheme's recovery time plus the I/O of
    reloading its frontier stream; ``report`` is what the scheme's own
    ``recover()`` returned.
    """

    shard: int
    node: int
    rack: int
    mttr_seconds: float
    report: RecoveryReport


@dataclass
class ClusterRecoveryReport:
    """What one correlated-failure recovery measured, over all shards.

    A report exists only for a recovery that lost nothing — data loss
    raises :class:`ClusterDataLossError` instead — so its recovery point
    is always zero acknowledged events.
    """

    placement: str
    replication: int
    kills: Tuple[str, ...]
    shards_killed: Tuple[int, ...]
    nodes_killed: Tuple[int, ...]
    #: simultaneously-dead nodes — the k of the k-correlated failure.
    correlation_width: int
    detection_seconds: float
    #: wall-clock of the parallel shard recoveries on surviving nodes.
    makespan_seconds: float
    #: Recovery Time Objective actually achieved: detection + makespan.
    rto_seconds: float
    mean_mttr_seconds: float
    max_mttr_seconds: float
    recovery_nodes: int
    per_shard: List[ShardRecoveryRecord]

    # Folds over ``per_shard``, named as RecoveryReport names the same
    # facts for one scheme, so a harness reads either report alike.
    @property
    def attempts(self) -> int:
        """recover() invocations the slowest-converging shard needed."""
        return max((r.report.attempts for r in self.per_shard), default=1)

    @property
    def resumed(self) -> bool:
        return any(r.report.resumed for r in self.per_shard)

    @property
    def events_replayed(self) -> int:
        return sum(r.report.events_replayed for r in self.per_shard)

    @property
    def watermark_degradations(self) -> int:
        return sum(r.report.watermark_degradations for r in self.per_shard)

    @property
    def ladder(self) -> Dict[str, int]:
        """Rung name -> epochs recovered via that rung, over all shards."""
        total: Counter = Counter()
        for record in self.per_shard:
            total.update(record.report.ladder)
        return dict(total)


class ShardedCluster:
    """N shard-local MSR instances under one failure-domain topology."""

    def __init__(
        self,
        workload,
        topology: ClusterTopology,
        *,
        placement: str = "checkpoint_spread",
        replication: int = 1,
        workers_per_shard: int = 2,
        epoch_len: int = 32,
        snapshot_interval: int = 4,
        gc_keep_checkpoints: int = 2,
        kills: Sequence[ClusterFault] = (),
        detection_seconds: float = 0.5,
        scheme_cls: type = MorphStreamR,
    ):
        if replication < 0:
            raise ConfigError("replication must be >= 0")
        if replication > topology.num_nodes - 1:
            raise ConfigError(
                f"replication {replication} exceeds the {topology.num_nodes - 1} "
                "other nodes available"
            )
        if epoch_len < 1:
            raise ConfigError("epoch_len must be >= 1")
        self.workload = workload
        self.topology = topology
        self.placement: PlacementStrategy = get_placement(placement)
        self.replication = replication
        self.epoch_len = epoch_len
        self.detection_seconds = detection_seconds
        for kill in kills:
            topology.validate(kill.parsed())
        self.kills: Tuple[ClusterFault, ...] = tuple(kills)
        self.shard_map = ShardMap(workload, topology.num_shards)
        self.sink = OutputSink()

        shard_kwargs: Dict[str, object] = dict(
            num_workers=workers_per_shard,
            epoch_len=epoch_len,
            snapshot_interval=snapshot_interval,
            gc_keep_checkpoints=gc_keep_checkpoints,
        )
        shard_kwargs.update(self.placement.shard_kwargs())
        self.shards: List[FTScheme] = []
        for sid in range(topology.num_shards):
            shard_workload = ShardWorkload(workload, self.shard_map, sid)
            self.shards.append(
                scheme_cls(shard_workload, disk=Disk(), **shard_kwargs)
            )

        #: bytes shipped to placement replicas (charged on shard machines).
        self.replication_bytes = 0
        self._replica_device = StorageDevice()
        self._disk_bytes = [s.disk.bytes_stored for s in self.shards]
        self._pending: List[Event] = []
        #: every event of a *completed* cluster epoch (volatile; only for
        #: ground-truth verification, mirroring the chaos harness).
        self._processed_events: List[Event] = []
        self._epochs_done = 0
        self._crashed = False
        self._dead_shards: Set[int] = set()
        self._dead_nodes: Set[int] = set()
        self._kills_applied: List[KillTarget] = []
        self._cross_txns = 0
        self._total_txns = 0

    # ------------------------------------------------------------------
    # runtime
    # ------------------------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def elapsed_seconds(self) -> float:
        """Cluster wall-clock: shards run in parallel on distinct nodes."""
        return max(s.machine.elapsed() for s in self.shards)

    def process_stream(self, events: Sequence[Event]) -> ClusterRuntimeReport:
        """Route and process ``events`` cluster-epoch by cluster-epoch."""
        if self._crashed:
            raise RecoveryError(
                "cluster has failed shards; call recover() first"
            )
        queue = self._pending + list(events)
        self._pending = []
        start_elapsed = self.elapsed_seconds()
        start_events = len(self._processed_events)
        done = 0  # an index, not a re-slice of the remainder per epoch
        while len(queue) - done >= self.epoch_len and not self._crashed:
            batch = queue[done : done + self.epoch_len]
            done += len(batch)
            self._process_cluster_epoch(batch)
        self._pending = queue[done:]
        elapsed = self.elapsed_seconds() - start_elapsed
        events_done = len(self._processed_events) - start_events
        return ClusterRuntimeReport(
            num_shards=self.topology.num_shards,
            events_processed=events_done,
            epochs=self._epochs_done,
            elapsed_seconds=elapsed,
            throughput_eps=events_done / elapsed if elapsed > 0 else 0.0,
            cross_shard_txns=self._cross_txns,
            total_txns=self._total_txns,
            replication_bytes=self.replication_bytes,
        )

    def _process_cluster_epoch(self, batch: Sequence[Event]) -> None:
        epoch_id = self._epochs_done
        routes = self._coordinate(epoch_id, batch)
        for sid, shard in enumerate(self.shards):
            self._deliver(shard.process_epoch(routes.get(sid, [])))
            self._charge_replication(sid)
        self._processed_events.extend(batch)
        self._epochs_done += 1
        for kill in self.kills:
            if kill.after_epoch == self._epochs_done:
                self._apply_kill(kill.parsed())

    def _apply_kill(self, target: KillTarget) -> None:
        """Destroy one failure domain at an epoch boundary."""
        for sid in self.topology.shards_killed(target):
            if sid not in self._dead_shards:
                self.shards[sid].crash()
                self._dead_shards.add(sid)
        self._dead_nodes.update(self.topology.nodes_killed(target))
        self._kills_applied.append(target)
        self._crashed = True

    # ------------------------------------------------------------------
    # coordination: routing + dependency frontier
    # ------------------------------------------------------------------

    def _coordinate(
        self, epoch_id: int, batch: Sequence[Event]
    ) -> Dict[int, List[Event]]:
        """Route the batch and pin the epoch's cross-shard frontier."""
        gtxns = preprocess(batch, self.workload, 0)
        self._total_txns += len(gtxns)
        routes: Dict[int, List[Event]] = {}
        cross: List[Transaction] = []
        for txn in gtxns:
            for sid in self.shard_map.op_shards(txn):
                routes.setdefault(sid, []).append(txn.event)
            if len(self.shard_map.shards_of_txn(txn)) > 1:
                cross.append(txn)
        # shard -> its frontier entries, each beside its codec bytes: an
        # entry is encoded once and spliced into every shard's slice.
        entries_by_shard: Dict[int, List[Tuple[FrontierEntry, bytes]]] = {}
        if cross:
            self._cross_txns += len(cross)
            # Frontier pass: execute the whole batch (cross-shard reads
            # may observe values written by single-shard transactions of
            # the same epoch) over a read-through view of all shard
            # stores; writes land in a discard-after buffer, so shard
            # state is untouched.
            view = FederatedView(
                self.shard_map.shard_of, [s.store for s in self.shards]
            )
            outcome = execute_tpg(view, build_tpg(gtxns))
            for txn in cross:
                aborted = txn.txn_id in outcome.aborted
                reads: Dict[int, Tuple[float, ...]] = {}
                if not aborted:
                    for index, op in enumerate(txn.ops):
                        if op.reads:
                            reads[index] = tuple(outcome.read_values[op.uid])
                entry = FrontierEntry(
                    seq=txn.event.seq,
                    home=self.shard_map.shard_of(txn.ops[0].ref),
                    aborted=aborted,
                    reads=reads,
                )
                pinned = (entry, encode(entry.encoded()))
                for sid in self.shard_map.shards_of_txn(txn):
                    entries_by_shard.setdefault(sid, []).append(pinned)
        # Every shard durably commits its slice (possibly empty, so
        # recovery can rely on one frontier segment per epoch) and
        # learns the entries before processing its localized batch.
        for sid, shard in enumerate(self.shards):
            entries = entries_by_shard.get(sid, [])
            frontier = self._frontier_of(sid)
            for entry, _blob in entries:
                frontier.record(entry)
            if entries:
                shard.charge_tracking(
                    [shard.costs.view_record] * len(entries)
                )
            payload = Encoded(join_list([blob for _entry, blob in entries]))
            io_s = shard.disk.logs.commit_epoch(FRONTIER_STREAM, epoch_id, payload)
            shard.charge_runtime_io(io_s, len(payload))
        return routes

    def _frontier_of(self, sid: int) -> DependencyFrontier:
        workload = self.shards[sid].workload
        assert isinstance(workload, ShardWorkload)
        return workload.frontier

    def _deliver(self, outputs: Sequence[Tuple[int, tuple]]) -> None:
        for seq, output in outputs:
            if output and output[0] == SHARD_INTERNAL:
                continue
            self.sink.deliver(seq, output)

    def _charge_replication(self, sid: int) -> None:
        """Ship this epoch's durable byte delta to the f replicas."""
        shard = self.shards[sid]
        delta = shard.disk.bytes_stored - self._disk_bytes[sid]
        self._disk_bytes[sid] = shard.disk.bytes_stored
        if self.replication > 0 and delta > 0:
            shipped = delta * self.replication
            io_s = self._replica_device.write(shipped)
            shard.charge_runtime_io(io_s, 0)
            self.replication_bytes += shipped

    # ------------------------------------------------------------------
    # degraded-mode serving
    # ------------------------------------------------------------------

    def degraded_read(self, ref: StateRef) -> DegradedRead:
        """Answer a read during a partial outage, stale only if needed.

        The owning shard is derived from the ref alone (range
        partitioning), so routing needs no coordinator state:

        - a *surviving* shard answers from live state — tagged
          ``stale=False`` with staleness bound 0;
        - a *dead* shard answers through its checkpoint-backed degraded
          view (:meth:`~repro.ft.base.FTScheme.degraded_read`), tagged
          with the exact epoch staleness bound.

        This is the availability argument for sharded deployments: a
        rack kill degrades only the keys it owns, everything else keeps
        serving fresh.
        """
        sid = self.shard_map.shard_of(ref)
        shard = self.shards[sid]
        if sid in self._dead_shards or shard.store is None:
            return shard.degraded_read(ref)
        value = shard.store.get(ref)
        return DegradedRead(
            table=ref.table,
            key=ref.key,
            value=value,
            checkpoint_epoch=shard.next_epoch - 1,
            staleness_epochs=0,
            stale=False,
        )

    @property
    def dead_shards(self) -> Tuple[int, ...]:
        return tuple(sorted(self._dead_shards))

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self) -> ClusterRecoveryReport:
        """Recover every dead shard in parallel on the surviving nodes.

        Fails loudly — :class:`ClusterDataLossError` — when the
        correlated kill destroyed a shard's primary *and* every
        placement replica.
        """
        if not self._crashed:
            raise RecoveryError("recover() called without a cluster failure")
        dead_shards = sorted(self._dead_shards)
        dead_nodes = sorted(self._dead_nodes)
        lost = [
            sid
            for sid in dead_shards
            if not self.placement.survives(
                sid, self.topology, self.replication, dead_nodes
            )
        ]
        if lost:
            lost_events = sum(
                self.shards[sid].events_processed for sid in lost
            )
            raise ClusterDataLossError(
                f"DATA LOSS: correlated failure of nodes {dead_nodes} "
                f"destroyed every copy of shard(s) {lost} under "
                f"placement {self.placement.name!r} — replication factor "
                f"{self.replication} < correlation width {len(dead_nodes)}; "
                f"{lost_events} acknowledged events are unrecoverable",
                lost_shards=lost,
                lost_events=lost_events,
            )

        records: List[ShardRecoveryRecord] = []
        for sid in dead_shards:
            shard = self.shards[sid]
            frontier_io = self._reload_frontier(sid)
            report = shard.recover()
            # Recovered outputs converge with the pre-crash ones; the
            # sink deduplicates re-deliveries.
            self._deliver(list(shard.sink.outputs().items()))
            records.append(
                ShardRecoveryRecord(
                    shard=sid,
                    node=self.topology.node_of_shard(sid),
                    rack=self.topology.rack_of_shard(sid),
                    mttr_seconds=report.elapsed_total_seconds + frontier_io,
                    report=report,
                )
            )

        surviving = [
            n for n in range(self.topology.num_nodes) if n not in dead_nodes
        ]
        mttrs = [r.mttr_seconds for r in records]
        makespan_s = recovery_makespan(mttrs, max(1, len(surviving)))
        cluster_report = ClusterRecoveryReport(
            placement=self.placement.name,
            replication=self.replication,
            kills=tuple(k.label() for k in self._kills_applied),
            shards_killed=tuple(dead_shards),
            nodes_killed=tuple(dead_nodes),
            correlation_width=len(dead_nodes),
            detection_seconds=self.detection_seconds,
            makespan_seconds=makespan_s,
            rto_seconds=self.detection_seconds + makespan_s,
            # A crashed cluster has at least one dead shard.
            mean_mttr_seconds=sum(mttrs) / len(mttrs),
            max_mttr_seconds=max(mttrs),
            recovery_nodes=len(surviving),
            per_shard=records,
        )
        self._dead_shards.clear()
        self._dead_nodes.clear()
        self._kills_applied = []
        self._crashed = False
        return cluster_report

    def _reload_frontier(self, sid: int) -> float:
        """Rebuild the shard's frontier purely from its durable stream.

        Proves recovery never depends on coordinator memory: everything
        a shard needs to re-localize its transactions was group-committed
        alongside its other log streams.  Returns the I/O seconds spent
        (GC may have truncated epochs at or before the restart
        checkpoint — those are never replayed, so their entries are not
        needed).
        """
        shard = self.shards[sid]
        frontier = self._frontier_of(sid)
        frontier.clear()
        crash_epoch = shard.crash_epoch
        if crash_epoch is None:
            return 0.0
        io_total = 0.0
        for epoch_id in range(crash_epoch + 1):
            if shard.disk.logs.has_epoch(FRONTIER_STREAM, epoch_id):
                payload, io_s = shard.disk.logs.read_epoch(
                    FRONTIER_STREAM, epoch_id
                )
                frontier.load_epoch(payload)
                io_total += io_s
        return io_total

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------

    def merged_store(self) -> StateStore:
        """Union of all shard slices — comparable to a global store."""
        merged: Dict[str, Dict] = {}
        for shard in self.shards:
            if shard.store is None:
                raise RecoveryError(
                    "cannot merge stores while a shard is crashed"
                )
            for table, records in shard.store.snapshot().items():
                merged.setdefault(table, {}).update(records)
        return StateStore(merged)

    def verify_exact(self) -> Exactness:
        """Bit-exact equivalence with the serial single-instance run."""
        return verify_exact(
            self.merged_store(),
            self.sink.outputs(),
            self.workload,
            self._processed_events,
        )


def recovery_makespan(mttr_seconds: Sequence[float], num_nodes: int) -> float:
    """Wall-clock of the dead shards' recoveries packed onto ``num_nodes``.

    Each surviving node is one multicore box that hosts one shard
    recovery at a time: LPT assigns the recoveries to nodes, each node
    runs its share back to back in shard order, and the cluster-level
    recovery wall-clock is the busiest node's total.
    """
    assignment, _loads = lpt_assign(mttr_seconds, num_nodes)
    node_seconds = [0.0] * num_nodes
    for seconds, node in zip(mttr_seconds, assignment):
        node_seconds[node] += seconds
    return max(node_seconds)
