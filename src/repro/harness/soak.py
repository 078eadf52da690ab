"""Sustained-traffic SLA soak: long runs, seeded crashes, degraded serving.

The figure-style experiments measure one crash; production operators
care about *trajectories*: what a service looks like after hours of
sustained traffic with failures arriving on a schedule.  This harness
drives a Zipf workload through a single-node scheme or a
:class:`~repro.cluster.cluster.ShardedCluster` for many simulated
epochs, arming a seeded crash/recover schedule, and measures the
availability-centric metrics of Vogel et al. end to end:

- **end-to-end latency** (p50/p99/p999): every event gets an *arrival
  stamp* on a deterministic ingress timeline (``seq / offered_eps``,
  the offered rate calibrated as a fraction of probe-measured engine
  capacity) and a *commit stamp* read off the engine's virtual clock,
  which :meth:`~repro.sim.clock.Machine.advance_all_to` keeps aligned
  with the arrival timeline — so latency = commit − arrival, queueing
  (admission delay, post-outage backlog) included;
- **MTTR / RTO / RPO** per outage and aggregated;
- **availability** against a declarative error budget
  (:mod:`repro.harness.slo`).

Two mechanisms make the service degrade *gracefully* instead of merely
failing fast:

- **degraded-mode serving** — while recovery is in flight, seeded reads
  are answered stale from the last durable checkpoint
  (:meth:`~repro.ft.base.FTScheme.degraded_read`), each tagged with its
  exact staleness bound; the harness bit-checks every stale answer
  against the serial ground truth at the serving checkpoint's epoch;
- **token-bucket admission** — a GCRA-shaped controller (deterministic:
  no randomness, O(1) per event) smooths ingress and, after an outage,
  backs arrivals off so the recovered node drains its backlog at a
  bounded rate instead of being starved into a second collapse.  The
  admitted rate runs ``admission_headroom`` above the offered rate, so
  the backlog always drains and the deferred count converges.

Everything is seeded: the same :class:`SoakConfig` always produces the
same crash schedule, the same degraded-read answers (bit-identical) and
the same metrics — which is what lets ``BENCH_soak.json`` act as a
committed perf trajectory that CI can gate exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import SCHEMES
from repro.cluster import (
    ClusterFault,
    ClusterFaultPlan,
    ClusterTopology,
    ShardedCluster,
)
from repro.engine.refs import StateRef
from repro.engine.state import StateStore
from repro.engine.verify import ground_truth, verify_exact
from repro.errors import ConfigError
from repro.ft.base import DegradedRead, FTScheme
from repro.harness.slo import SLOTargets, SLOVerdict, evaluate_slo
from repro.harness.stats import latency_summary
from repro.storage.faults import FaultInjector, FaultSpec
from repro.storage.stores import Disk
from repro.workloads.grep_sum import TABLE, GrepSum

#: Payload schema of ``soak_payload`` / ``repro soak --json``.
SOAK_SCHEMA = "repro.soak/v1"

SOAK_MODES = ("single", "cluster")


@dataclass(frozen=True)
class SoakConfig:
    """One soak run, fully determined by its fields (and nothing else)."""

    mode: str = "single"
    scheme: str = "MSR"
    num_keys: int = 4096
    epoch_len: int = 256
    #: total punctuation epochs driven through the engine.
    epochs: int = 48
    #: seeded crash/recover cycles armed across the run.
    crashes: int = 3
    #: workers per engine (single mode) / per shard (cluster mode).
    num_workers: int = 4
    snapshot_interval: int = 4
    skew: float = 0.6
    seed: int = 7
    #: offered rate as a fraction of probe-measured capacity (< 1 keeps
    #: the queue stable; the probe is part of the run and seeded).
    offered_load_factor: float = 0.8
    #: admitted rate / offered rate; > 1 so post-outage backlog drains.
    admission_headroom: float = 1.25
    #: token-bucket burst tolerance, in events.
    burst: int = 32
    #: stale reads served (and bit-checked) during each outage.
    degraded_reads_per_outage: int = 8
    #: failure-detection delay charged before each recovery.
    detection_seconds: float = 0.001
    #: also arm seeded torn-flush storage faults (single mode), forcing
    #: recoveries through the fallback ladder mid-soak.
    chaos: bool = False
    #: verify final state/outputs and every stale read vs ground truth.
    verify: bool = True
    # cluster-mode topology
    shards: int = 4
    racks: int = 2
    nodes_per_rack: int = 2
    replication: int = 1
    placement: str = "checkpoint_spread"
    slo: SLOTargets = field(default_factory=SLOTargets)

    def __post_init__(self) -> None:
        if self.mode not in SOAK_MODES:
            raise ConfigError(f"mode must be one of {SOAK_MODES}")
        if self.scheme not in SCHEMES or self.scheme == "NAT":
            raise ConfigError(
                f"scheme must be a recoverable scheme, not {self.scheme!r}"
            )
        if self.epochs < 2:
            raise ConfigError("epochs must be >= 2")
        if self.epochs <= self.snapshot_interval:
            raise ConfigError(
                "epochs must exceed snapshot_interval so crashes land "
                "past a checkpoint"
            )
        if self.crashes < 0:
            raise ConfigError("crashes must be >= 0")
        if self.crashes > len(self._eligible_crash_epochs()):
            raise ConfigError(
                f"{self.crashes} crashes do not fit the "
                f"{len(self._eligible_crash_epochs())} eligible epochs"
            )
        if not 0.0 < self.offered_load_factor <= 1.0:
            raise ConfigError("offered_load_factor must be in (0, 1]")
        if self.admission_headroom <= 1.0:
            raise ConfigError(
                "admission_headroom must exceed 1.0 or backlog never drains"
            )
        if self.burst < 1:
            raise ConfigError("burst must be >= 1")
        if self.degraded_reads_per_outage < 0:
            raise ConfigError("degraded_reads_per_outage must be >= 0")
        if self.detection_seconds < 0:
            raise ConfigError("detection_seconds must be >= 0")
        if self.chaos and self.mode != "single":
            raise ConfigError("chaos soak is single-node only")

    def _eligible_crash_epochs(self) -> List[int]:
        """Epochs after which a crash may fire: past the first interval
        checkpoint, so recoveries replay a realistic epoch window."""
        return list(range(self.snapshot_interval, self.epochs))

    @property
    def num_events(self) -> int:
        return self.epochs * self.epoch_len

    def cell(self) -> str:
        """Config fingerprint keying the BENCH trajectory.

        Two records gate against each other only when their cells match,
        so changing the workload shape starts a fresh baseline instead
        of producing bogus regressions.
        """
        parts = [
            self.mode,
            self.scheme,
            f"k{self.num_keys}",
            f"L{self.epoch_len}",
            f"E{self.epochs}",
            f"c{self.crashes}",
            f"w{self.num_workers}",
            f"z{self.skew}",
            f"s{self.seed}",
        ]
        if self.mode == "cluster":
            parts.append(
                f"sh{self.shards}x{self.racks}x{self.nodes_per_rack}"
                f"r{self.replication}-{self.placement}"
            )
        if self.chaos:
            parts.append("chaos")
        return "/".join(parts)

    def crash_schedule(self) -> List[int]:
        """The seeded epochs after which the node (or a domain) dies."""
        rng = random.Random(self.seed * 7919 + 13)
        return sorted(rng.sample(self._eligible_crash_epochs(), self.crashes))


class TokenBucketAdmission:
    """GCRA-shaped admission: deterministic token bucket with queueing.

    ``admit(arrival)`` returns the (possibly deferred) instant an event
    enters the engine.  The virtual-scheduling form of the generic cell
    rate algorithm is used — one theoretical-arrival-time register, no
    randomness: an event is conformant if it arrives within ``burst``
    intervals of the register, otherwise it queues until it is.  The
    ``gate`` is the recovery-backoff hook: while an outage is in
    progress the harness raises it to the recovery-completion instant,
    so queued arrivals back off and drain *after* the node is back,
    at the bounded admitted rate — recovery catch-up is never starved
    by a thundering herd.
    """

    def __init__(self, rate_eps: float, burst: int):
        if rate_eps <= 0:
            raise ConfigError("admission rate must be positive")
        self.interval = 1.0 / rate_eps
        self.tolerance = burst * self.interval
        self.gate = 0.0
        self._tat = 0.0
        self.deferred = 0
        self.max_delay_seconds = 0.0

    def admit(self, arrival: float) -> float:
        earliest = max(arrival, self._tat - self.tolerance, self.gate)
        self._tat = max(self._tat, earliest) + self.interval
        if earliest > arrival:
            self.deferred += 1
            delay = earliest - arrival
            if delay > self.max_delay_seconds:
                self.max_delay_seconds = delay
        return earliest


@dataclass
class OutageRecord:
    """One crash/recover cycle of the soak, with its serving record."""

    epoch: int
    kind: str
    mttr_seconds: float
    detection_seconds: float
    rto_seconds: float
    #: wall-clock window the (single-node) service accepted no writes —
    #: in cluster mode, the window *some* shard was down (conservative:
    #: surviving shards kept serving fresh reads throughout).
    outage_seconds: float
    rpo_events: int
    degraded_reads: int
    stale_reads: int
    fresh_reads: int
    max_staleness_epochs: int
    attempts: int
    resumed: bool
    ladder: Dict[str, int]


@dataclass
class SoakResult:
    """Everything one soak run measured (feeds payload + bench record)."""

    config: SoakConfig
    cell: str
    duration_seconds: float
    events_total: int
    capacity_eps: float
    offered_eps: float
    throughput_eps: float
    latency: Dict[str, float]
    epoch_series: List[Dict]
    outages: List[OutageRecord]
    outage_seconds: float
    availability: float
    mttr: Dict[str, float]
    rto_max_seconds: float
    rpo_events: int
    deferred_events: int
    max_admission_delay_seconds: float
    degraded_reads: int
    stale_reads: int
    fresh_reads: int
    #: flat stale-read transcript — same seed must reproduce it exactly.
    degraded_samples: List[Tuple]
    state_verified: bool
    outputs_verified: bool
    degraded_verified: bool
    verified: bool
    slo: SLOVerdict

    @property
    def ok(self) -> bool:
        """No data loss, no divergence, SLO met."""
        correctness = (
            self.state_verified
            and self.outputs_verified
            and self.degraded_verified
            if self.verified
            else True
        )
        return correctness and self.rpo_events == 0 and self.slo.passed


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _make_workload(config: SoakConfig) -> GrepSum:
    return GrepSum(
        config.num_keys,
        list_len=2,
        skew=config.skew,
        multi_partition_ratio=0.4,
        num_partitions=8,
    )


class _TruthCache:
    """Serial ground-truth states keyed by event-prefix length."""

    def __init__(self, workload: GrepSum, events: Sequence):
        self._workload = workload
        self._events = events
        self._states: Dict[int, StateStore] = {}

    def state_at(self, num_events: int) -> StateStore:
        if num_events not in self._states:
            state, _outputs = ground_truth(
                self._workload, self._events[:num_events]
            )
            self._states[num_events] = state
        return self._states[num_events]


def _check_degraded_reads(
    reads: Sequence[DegradedRead],
    crash_epoch: int,
    epoch_len: int,
    truth: Optional[_TruthCache],
    live_prefix_events: int,
) -> bool:
    """Bit-check every served read against the serial ground truth.

    A stale read must equal the serial state at its serving checkpoint's
    epoch and carry the exact staleness bound; a fresh read (cluster
    mode, surviving shard) must equal the serial state at the current
    epoch with a zero bound.
    """
    if truth is None:
        return True
    for read in reads:
        ref = StateRef(read.table, read.key)
        if read.stale:
            expected = truth.state_at((read.checkpoint_epoch + 1) * epoch_len)
            bound_ok = (
                read.staleness_epochs == crash_epoch - read.checkpoint_epoch
                and read.staleness_epochs >= 0
            )
        else:
            expected = truth.state_at(live_prefix_events)
            bound_ok = read.staleness_epochs == 0
        if not bound_ok or expected.peek(ref) != read.value:
            return False
    return True


def _degraded_keys(config: SoakConfig, outage_index: int) -> List[int]:
    """Seeded key picks served during one outage (Zipf-flavoured)."""
    rng = random.Random(config.seed * 104729 + outage_index * 31 + 7)
    return [
        rng.randrange(config.num_keys)
        for _ in range(config.degraded_reads_per_outage)
    ]


def _sample(read: DegradedRead) -> Tuple:
    return (
        read.table,
        read.key,
        read.value,
        read.checkpoint_epoch,
        read.staleness_epochs,
        read.stale,
    )


def _epoch_entry(
    epoch: int,
    batch_len: int,
    commit: float,
    lats: Sequence[float],
    outage: bool,
) -> Dict:
    digest = latency_summary(lats)
    return {
        "epoch": epoch,
        "events": batch_len,
        "commit_seconds": commit,
        "p50_seconds": digest["p50"],
        "p99_seconds": digest["p99"],
        "max_seconds": digest["max"],
        "outage_after": outage,
    }


def _chaos_injector(config: SoakConfig, stream: Optional[str]) -> Optional[FaultInjector]:
    if not config.chaos or stream is None:
        return None
    # Seeded low-probability torn flushes on the scheme's log stream:
    # some recoveries mid-soak must degrade through the replay rung,
    # and the run stays exact (events stay intact) and deterministic.
    return FaultInjector(
        [FaultSpec("torn", target="log", probability=0.05, stream=stream)],
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# single-node soak
# ---------------------------------------------------------------------------


def _probe_capacity_single(config: SoakConfig, workload, events) -> float:
    probe = SCHEMES[config.scheme](
        workload,
        num_workers=config.num_workers,
        epoch_len=config.epoch_len,
        snapshot_interval=config.snapshot_interval,
    )
    report = probe.process_stream(events[: 2 * config.epoch_len])
    return report.throughput_eps


def _run_single(config: SoakConfig) -> SoakResult:
    workload = _make_workload(config)
    events = workload.generate(config.num_events, config.seed)
    capacity = _probe_capacity_single(config, workload, events)
    offered_eps = capacity * config.offered_load_factor
    admission = TokenBucketAdmission(
        offered_eps * config.admission_headroom, config.burst
    )

    scheme_cls = SCHEMES[config.scheme]
    stream = scheme_cls.log_streams[0] if scheme_cls.log_streams else None
    injector = _chaos_injector(config, stream)
    scheme: FTScheme = scheme_cls(
        workload,
        num_workers=config.num_workers,
        epoch_len=config.epoch_len,
        snapshot_interval=config.snapshot_interval,
        disk=Disk(faults=injector) if injector else None,
        gc_keep_checkpoints=2,
    )
    truth = _TruthCache(workload, events) if config.verify else None
    crash_after = set(config.crash_schedule())
    L = config.epoch_len

    latencies: List[float] = []
    series: List[Dict] = []
    outages: List[OutageRecord] = []
    samples: List[Tuple] = []
    degraded_ok = True
    outage_total = 0.0

    for epoch in range(config.epochs):
        batch = events[epoch * L : (epoch + 1) * L]
        arrivals = [e.seq / offered_eps for e in batch]
        close = 0.0
        for arrival in arrivals:
            close = admission.admit(arrival)
        scheme.machine.advance_all_to(close)
        scheme.process_stream(batch)
        commit = scheme.machine.elapsed()
        epoch_lats = [commit - a for a in arrivals]
        latencies.extend(epoch_lats)
        is_crash = epoch in crash_after
        series.append(_epoch_entry(epoch, len(batch), commit, epoch_lats, is_crash))
        if not is_crash:
            continue

        # -- seeded outage: crash, serve stale, recover, back off ------
        t0 = scheme.machine.elapsed()
        scheme.crash()
        reads = [
            scheme.degraded_read(StateRef(TABLE, key))
            for key in _degraded_keys(config, len(outages))
        ]
        samples.extend(_sample(r) for r in reads)
        degraded_ok = degraded_ok and _check_degraded_reads(
            reads, epoch, L, truth, (epoch + 1) * L
        )
        report = scheme.recover()
        mttr = report.elapsed_total_seconds
        window = config.detection_seconds + mttr
        scheme.machine.advance_all_to(t0 + window)
        admission.gate = scheme.machine.elapsed()
        outage_total += window
        outages.append(
            OutageRecord(
                epoch=epoch,
                kind="crash",
                mttr_seconds=mttr,
                detection_seconds=config.detection_seconds,
                rto_seconds=window,
                outage_seconds=window,
                rpo_events=0,
                degraded_reads=len(reads),
                stale_reads=sum(1 for r in reads if r.stale),
                fresh_reads=sum(1 for r in reads if not r.stale),
                max_staleness_epochs=max(
                    (r.staleness_epochs for r in reads), default=0
                ),
                attempts=report.attempts,
                resumed=report.resumed,
                ladder=dict(report.ladder),
            )
        )

    state_ok = outputs_ok = True
    if config.verify:
        verdict = verify_exact(
            scheme.store, scheme.sink.outputs(), workload, events
        )
        state_ok, outputs_ok = verdict.state_exact, verdict.outputs_exact

    return _finalize(
        config,
        duration=scheme.machine.elapsed(),
        capacity=capacity,
        offered_eps=offered_eps,
        latencies=latencies,
        series=series,
        outages=outages,
        outage_total=outage_total,
        admission=admission,
        samples=samples,
        state_ok=state_ok,
        outputs_ok=outputs_ok,
        degraded_ok=degraded_ok,
    )


# ---------------------------------------------------------------------------
# cluster soak
# ---------------------------------------------------------------------------


def _cluster_kills(config: SoakConfig, topology: ClusterTopology) -> List[ClusterFault]:
    """Seeded correlated kills: one node per cycle, width 1 <= f."""
    rng = random.Random(config.seed * 6151 + 29)
    kills = []
    for after in config.crash_schedule():
        node = rng.randrange(topology.num_nodes)
        rack, node_in_rack = divmod(node, config.nodes_per_rack)
        # after_epoch counts completed epochs (1-based).
        kills.append(ClusterFault(f"node:{rack}.{node_in_rack}", after_epoch=after + 1))
    return kills


def _build_cluster(
    config: SoakConfig,
    workload,
    topology: ClusterTopology,
    plan: Optional[ClusterFaultPlan],
) -> ShardedCluster:
    return ShardedCluster(
        workload,
        topology,
        placement=config.placement,
        replication=config.replication,
        workers_per_shard=config.num_workers,
        epoch_len=config.epoch_len,
        snapshot_interval=config.snapshot_interval,
        gc_keep_checkpoints=2,
        fault_plan=plan,
        detection_seconds=config.detection_seconds,
        scheme_cls=SCHEMES[config.scheme],
    )


def _advance_cluster(cluster: ShardedCluster, target: float) -> float:
    for shard in cluster.shards:
        shard.machine.advance_all_to(target)
    return cluster.elapsed_seconds()


def _run_cluster(config: SoakConfig) -> SoakResult:
    workload = _make_workload(config)
    events = workload.generate(config.num_events, config.seed)
    topology = ClusterTopology(config.shards, config.racks, config.nodes_per_rack)

    probe = _build_cluster(config, workload, topology, None)
    capacity = probe.process_stream(events[: 2 * config.epoch_len]).throughput_eps
    offered_eps = capacity * config.offered_load_factor
    admission = TokenBucketAdmission(
        offered_eps * config.admission_headroom, config.burst
    )

    plan = ClusterFaultPlan(kills=_cluster_kills(config, topology))
    cluster = _build_cluster(config, workload, topology, plan)
    truth = _TruthCache(workload, events) if config.verify else None
    L = config.epoch_len

    latencies: List[float] = []
    series: List[Dict] = []
    outages: List[OutageRecord] = []
    samples: List[Tuple] = []
    degraded_ok = True
    outage_total = 0.0
    rpo_events = 0

    for epoch in range(config.epochs):
        batch = events[epoch * L : (epoch + 1) * L]
        arrivals = [e.seq / offered_eps for e in batch]
        close = 0.0
        for arrival in arrivals:
            close = admission.admit(arrival)
        _advance_cluster(cluster, close)
        cluster.process_stream(batch)
        commit = cluster.elapsed_seconds()
        epoch_lats = [commit - a for a in arrivals]
        latencies.extend(epoch_lats)
        series.append(
            _epoch_entry(epoch, len(batch), commit, epoch_lats, cluster.crashed)
        )
        if not cluster.crashed:
            continue

        # -- correlated kill fired at this epoch boundary --------------
        t0 = cluster.elapsed_seconds()
        kind = "kill:" + ",".join(map(str, cluster.dead_shards))
        reads = [
            cluster.degraded_read(StateRef(TABLE, key))
            for key in _degraded_keys(config, len(outages))
        ]
        samples.extend(_sample(r) for r in reads)
        degraded_ok = degraded_ok and _check_degraded_reads(
            reads, epoch, L, truth, (epoch + 1) * L
        )
        report = cluster.recover()
        rpo_events += report.rpo_events
        window = report.rto_seconds
        _advance_cluster(cluster, t0 + window)
        admission.gate = cluster.elapsed_seconds()
        outage_total += window
        outages.append(
            OutageRecord(
                epoch=epoch,
                kind=kind,
                mttr_seconds=report.max_mttr_seconds,
                detection_seconds=report.detection_seconds,
                rto_seconds=report.rto_seconds,
                outage_seconds=window,
                rpo_events=report.rpo_events,
                degraded_reads=len(reads),
                stale_reads=sum(1 for r in reads if r.stale),
                fresh_reads=sum(1 for r in reads if not r.stale),
                max_staleness_epochs=max(
                    (r.staleness_epochs for r in reads), default=0
                ),
                attempts=report.attempts,
                resumed=report.resumed,
                ladder=report.ladder,
            )
        )

    state_ok = outputs_ok = True
    if config.verify:
        verdict = cluster.verify_exact()
        state_ok, outputs_ok = verdict.state_exact, verdict.outputs_exact

    return _finalize(
        config,
        duration=cluster.elapsed_seconds(),
        capacity=capacity,
        offered_eps=offered_eps,
        latencies=latencies,
        series=series,
        outages=outages,
        outage_total=outage_total,
        admission=admission,
        samples=samples,
        state_ok=state_ok,
        outputs_ok=outputs_ok,
        degraded_ok=degraded_ok,
        rpo_events=rpo_events,
    )


# ---------------------------------------------------------------------------
# aggregation and entry points
# ---------------------------------------------------------------------------


def _finalize(
    config: SoakConfig,
    *,
    duration: float,
    capacity: float,
    offered_eps: float,
    latencies: List[float],
    series: List[Dict],
    outages: List[OutageRecord],
    outage_total: float,
    admission: TokenBucketAdmission,
    samples: List[Tuple],
    state_ok: bool,
    outputs_ok: bool,
    degraded_ok: bool,
    rpo_events: int = 0,
) -> SoakResult:
    latency = latency_summary(latencies)
    mttr = latency_summary([o.mttr_seconds for o in outages])
    rto_max = max((o.rto_seconds for o in outages), default=0.0)
    throughput = config.num_events / duration if duration > 0 else 0.0
    availability = 1.0 - outage_total / duration if duration > 0 else 1.0
    verdict = evaluate_slo(
        targets=config.slo,
        duration_seconds=duration,
        outage_seconds=outage_total,
        latency_p99_seconds=latency["p99"],
        latency_p999_seconds=latency["p999"],
        mttr_max_seconds=mttr["max"],
        rpo_events=rpo_events,
        throughput_eps=throughput,
    )
    return SoakResult(
        config=config,
        cell=config.cell(),
        duration_seconds=duration,
        events_total=config.num_events,
        capacity_eps=capacity,
        offered_eps=offered_eps,
        throughput_eps=throughput,
        latency=latency,
        epoch_series=series,
        outages=outages,
        outage_seconds=outage_total,
        availability=availability,
        mttr=mttr,
        rto_max_seconds=rto_max,
        rpo_events=rpo_events,
        deferred_events=admission.deferred,
        max_admission_delay_seconds=admission.max_delay_seconds,
        degraded_reads=sum(o.degraded_reads for o in outages),
        stale_reads=sum(o.stale_reads for o in outages),
        fresh_reads=sum(o.fresh_reads for o in outages),
        degraded_samples=samples,
        state_verified=state_ok,
        outputs_verified=outputs_ok,
        degraded_verified=degraded_ok,
        verified=config.verify,
        slo=verdict,
    )


def run_soak(config: Optional[SoakConfig] = None) -> SoakResult:
    """Run one soak end to end; deterministic for a fixed config."""
    config = config or SoakConfig()
    if config.mode == "cluster":
        return _run_cluster(config)
    return _run_single(config)


def smoke_configs(seed: int = 7) -> List[SoakConfig]:
    """The bounded pair CI soaks on every push: single + one cluster cell.

    SLO targets are set with generous (~3×) headroom over the committed
    baseline so they catch collapses, while the regression gate's
    tolerance band catches creep.
    """
    slo = SLOTargets(
        p99_latency_seconds=1.0,
        p999_latency_seconds=5.0,
        availability=0.5,
        max_mttr_seconds=2.0,
        max_rpo_events=0,
    )
    return [
        SoakConfig(
            mode="single",
            num_keys=512,
            epoch_len=64,
            epochs=14,
            crashes=2,
            num_workers=4,
            detection_seconds=0.0002,
            seed=seed,
            slo=slo,
        ),
        SoakConfig(
            mode="cluster",
            num_keys=256,
            epoch_len=32,
            epochs=10,
            crashes=2,
            num_workers=2,
            shards=4,
            racks=2,
            nodes_per_rack=2,
            replication=1,
            detection_seconds=0.0002,
            seed=seed,
            slo=slo,
        ),
    ]


def soak_payload(result: SoakResult) -> Dict:
    """The JSON document ``repro soak --json`` exports (full detail)."""
    cfg = result.config
    return {
        "schema": SOAK_SCHEMA,
        "cell": result.cell,
        "config": _config_payload(cfg),
        "metrics": _metrics_payload(result),
        "slo": {
            "passed": result.slo.passed,
            "breaches": [
                {"objective": b.objective, "limit": b.limit, "actual": b.actual}
                for b in result.slo.breaches
            ],
            "error_budget": {
                "allowed_outage_seconds": result.slo.budget.allowed_outage_seconds,
                "spent_outage_seconds": result.slo.budget.spent_outage_seconds,
                "burn_fraction": result.slo.budget.burn_fraction,
            },
        },
        "verification": {
            "ran": result.verified,
            "state": result.state_verified,
            "outputs": result.outputs_verified,
            "degraded_reads": result.degraded_verified,
        },
        "admission": {
            "deferred_events": result.deferred_events,
            "max_delay_seconds": result.max_admission_delay_seconds,
        },
        "outages": [
            {
                "epoch": o.epoch,
                "kind": o.kind,
                "mttr_seconds": o.mttr_seconds,
                "detection_seconds": o.detection_seconds,
                "rto_seconds": o.rto_seconds,
                "rpo_events": o.rpo_events,
                "degraded_reads": o.degraded_reads,
                "stale_reads": o.stale_reads,
                "fresh_reads": o.fresh_reads,
                "max_staleness_epochs": o.max_staleness_epochs,
                "attempts": o.attempts,
                "resumed": o.resumed,
                "ladder": dict(o.ladder),
            }
            for o in result.outages
        ],
        "epoch_series": list(result.epoch_series),
        "ok": result.ok,
    }


def _config_payload(cfg: SoakConfig) -> Dict:
    payload = {
        "mode": cfg.mode,
        "scheme": cfg.scheme,
        "num_keys": cfg.num_keys,
        "epoch_len": cfg.epoch_len,
        "epochs": cfg.epochs,
        "crashes": cfg.crashes,
        "num_workers": cfg.num_workers,
        "snapshot_interval": cfg.snapshot_interval,
        "skew": cfg.skew,
        "seed": cfg.seed,
        "offered_load_factor": cfg.offered_load_factor,
        "admission_headroom": cfg.admission_headroom,
        "burst": cfg.burst,
        "chaos": cfg.chaos,
    }
    if cfg.mode == "cluster":
        payload.update(
            shards=cfg.shards,
            racks=cfg.racks,
            nodes_per_rack=cfg.nodes_per_rack,
            replication=cfg.replication,
            placement=cfg.placement,
        )
    return payload


def _metrics_payload(result: SoakResult) -> Dict:
    return {
        "throughput_eps": result.throughput_eps,
        "capacity_eps": result.capacity_eps,
        "offered_eps": result.offered_eps,
        "latency_p50_seconds": result.latency["p50"],
        "latency_p99_seconds": result.latency["p99"],
        "latency_p999_seconds": result.latency["p999"],
        "latency_max_seconds": result.latency["max"],
        "mttr_mean_seconds": result.mttr["mean"],
        "mttr_max_seconds": result.mttr["max"],
        "rto_max_seconds": result.rto_max_seconds,
        "rpo_events": result.rpo_events,
        "availability": result.availability,
        "outage_seconds": result.outage_seconds,
        "duration_seconds": result.duration_seconds,
        "degraded_reads": result.degraded_reads,
        "stale_reads": result.stale_reads,
        "deferred_events": result.deferred_events,
    }


def bench_record(result: SoakResult, label: str = "") -> Dict:
    """One stable-schema trajectory record (appended across PRs).

    Deliberately free of wall-clock timestamps: the simulator is pure
    virtual time, so the same commit always reproduces the same record
    bit for bit and the CI gate can compare exactly.
    """
    record = {
        "cell": result.cell,
        "config": _config_payload(result.config),
        "metrics": _metrics_payload(result),
        "slo_passed": result.slo.passed,
        "ok": result.ok,
    }
    if label:
        record["label"] = label
    return record
