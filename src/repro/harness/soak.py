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
- **MTTR / RTO** per outage and aggregated (the soak has no RPO: a
  run that would lose data raises instead);
- **availability** against a declarative error budget
  (:mod:`repro.harness.slo`).

Two mechanisms make the service degrade *gracefully* instead of merely
failing fast:

- **degraded-mode serving** — while recovery is in flight, seeded reads
  are answered stale from the last durable checkpoint
  (:meth:`~repro.ft.base.FTScheme.degraded_read`), each tagged with its
  exact staleness bound; the harness bit-checks every answer against
  the serial ground truth (:func:`~repro.engine.verify.stale_read_error`);
- **token-bucket admission** — a GCRA-shaped controller (deterministic:
  no randomness, O(1) per event) smooths ingress and, after an outage,
  backs arrivals off so the recovered node drains its backlog at a
  bounded rate instead of being starved into a second collapse.  The
  admitted rate is :data:`ADMISSION_HEADROOM` (1.25) times the offered
  rate, so the backlog always drains and the deferred count converges.

Everything is seeded: the same :class:`SoakConfig` always produces the
same crash schedule, the same degraded-read answers (bit-identical) and
the same metrics — which is what lets ``BENCH_soak.json`` act as a
committed perf trajectory that CI can gate exactly.
"""

from __future__ import annotations

import random
from dataclasses import asdict, astuple, dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro import SCHEMES
from repro.cluster import (
    ClusterFault,
    ClusterRecoveryReport,
    ClusterTopology,
    ShardedCluster,
)
from repro.engine.refs import StateRef
from repro.engine.state import StateStore
from repro.engine.verify import ground_truth, stale_read_error, verify_exact
from repro.errors import ConfigError
from repro.ft.base import FTScheme, RecoveryReport
from repro.harness.export import without
from repro.harness.slo import SLOTargets, SLOVerdict, evaluate_slo, slo_payload
from repro.harness.stats import latency_summary
from repro.storage.faults import FaultInjector, FaultSpec
from repro.storage.stores import Disk
from repro.workloads.grep_sum import TABLE, GrepSum

#: Payload schema of ``soak_payload`` / ``repro soak --json``.
SOAK_SCHEMA = "repro.soak/v3"

SOAK_MODES = ("single", "cluster")

#: Offered rate as a fraction of probe-measured capacity (< 1 keeps the
#: queue stable; the probe is part of the run and seeded).
OFFERED_LOAD_FACTOR = 0.8
#: Admitted rate / offered rate; > 1 so post-outage backlog drains.
ADMISSION_HEADROOM = 1.25
#: Token-bucket burst tolerance, in events.
ADMISSION_BURST = 32
#: Stale reads served (and bit-checked) during each outage.
DEGRADED_READS_PER_OUTAGE = 8


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
    """One crash/recover cycle of the soak, with its serving record.

    The fields are the keys of one ``outages`` entry of the export.
    ``rto_seconds`` is also the window the service accepted no writes —
    in cluster mode, the window *some* shard was down (conservative:
    surviving shards kept serving fresh reads throughout).
    """

    epoch: int
    kind: str
    mttr_seconds: float
    detection_seconds: float
    rto_seconds: float
    degraded_reads: int
    stale_reads: int
    fresh_reads: int
    max_staleness_epochs: int
    attempts: int
    resumed: bool
    ladder: Dict[str, int]


@dataclass
class SoakMetrics:
    """The run's aggregate metrics; the fields *are* the ``metrics``
    keys of the export and of a ``BENCH_soak.json`` record."""

    throughput_eps: float
    capacity_eps: float
    offered_eps: float
    latency_p50_seconds: float
    latency_p99_seconds: float
    latency_p999_seconds: float
    latency_max_seconds: float
    mttr_mean_seconds: float
    mttr_max_seconds: float
    rto_max_seconds: float
    availability: float
    outage_seconds: float
    duration_seconds: float
    degraded_reads: int
    stale_reads: int
    deferred_events: int


@dataclass
class SoakVerification:
    """Ground-truth checks; the fields *are* the ``verification`` keys."""

    #: False under ``verify=False``: the three verdicts are then vacuous.
    ran: bool
    state: bool = True
    outputs: bool = True
    degraded_reads: bool = True

    @property
    def passed(self) -> bool:
        return self.state and self.outputs and self.degraded_reads


@dataclass
class SoakResult:
    """Everything one soak run measured (feeds payload + bench record)."""

    config: SoakConfig
    metrics: SoakMetrics
    verification: SoakVerification
    slo: SLOVerdict
    outages: List[OutageRecord]
    epoch_series: List[Dict]
    max_admission_delay_seconds: float
    #: flat stale-read transcript — same seed must reproduce it exactly.
    degraded_samples: List[Tuple]

    @property
    def cell(self) -> str:
        return self.config.cell()

    @property
    def ok(self) -> bool:
        """No divergence, SLO met (data loss raises before a result)."""
        return self.verification.passed and self.slo.passed


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


def _degraded_keys(config: SoakConfig, outage_index: int) -> List[int]:
    """Seeded key picks served during one outage (Zipf-flavoured)."""
    rng = random.Random(config.seed * 104729 + outage_index * 31 + 7)
    return [
        rng.randrange(config.num_keys)
        for _ in range(DEGRADED_READS_PER_OUTAGE)
    ]


# ---------------------------------------------------------------------------
# per-mode drivers: what truly differs between a scheme and a cluster
# ---------------------------------------------------------------------------
#
# ``process_stream`` / ``degraded_read`` / ``recover`` mean the same thing
# on an :class:`FTScheme` and a :class:`ShardedCluster`, so the loop in
# :func:`run_soak` calls them on ``driver.node`` directly.  A driver owns
# the four things that do differ: building the node (``armed=False`` is
# the fault-free capacity probe), its clock, what starts an outage, and
# what the converged report calls MTTR / detection / RTO.


class _SingleNode:
    """One scheme instance, crashed by the harness on the seeded schedule."""

    def __init__(self, config: SoakConfig, workload: GrepSum, armed: bool = True):
        scheme_cls = SCHEMES[config.scheme]
        disk = None
        if armed and config.chaos and scheme_cls.log_streams:
            # Seeded low-probability torn flushes on the scheme's log
            # stream: some recoveries mid-soak must degrade through the
            # replay rung, and the run stays exact (events stay intact)
            # and deterministic.
            stream = scheme_cls.log_streams[0]
            torn = FaultSpec("torn", target="log", probability=0.05, stream=stream)
            disk = Disk(faults=FaultInjector([torn], seed=config.seed))
        self.node: FTScheme = scheme_cls(
            workload,
            num_workers=config.num_workers,
            epoch_len=config.epoch_len,
            snapshot_interval=config.snapshot_interval,
            disk=disk,
            gc_keep_checkpoints=2,
        )
        self._crash_after = set(config.crash_schedule()) if armed else set()
        self._detection_seconds = config.detection_seconds

    def now(self) -> float:
        return self.node.machine.elapsed()

    def advance_to(self, target: float) -> None:
        self.node.machine.advance_all_to(target)

    def outage_after(self, epoch: int) -> Optional[str]:
        """Crash the node if the schedule says so; the outage's kind."""
        if epoch not in self._crash_after:
            return None
        self.node.crash()
        return "crash"

    def sla_fields(self, report: RecoveryReport) -> Dict:
        # A lone node is down from the crash until detection + every
        # recover() attempt is over.
        mttr = report.elapsed_total_seconds
        return dict(
            mttr_seconds=mttr,
            detection_seconds=self._detection_seconds,
            rto_seconds=self._detection_seconds + mttr,
        )

    def store(self) -> StateStore:
        return self.node.store


class _ClusterNode:
    """A sharded cluster whose scheduled kills take one node per crash cycle."""

    def __init__(self, config: SoakConfig, workload: GrepSum, armed: bool = True):
        topology = ClusterTopology(config.shards, config.racks, config.nodes_per_rack)
        kills: List[ClusterFault] = []
        if armed:
            # Seeded correlated kills: one node per cycle, width 1 <= f.
            rng = random.Random(config.seed * 6151 + 29)
            for after in config.crash_schedule():
                rack, node_in_rack = divmod(
                    rng.randrange(topology.num_nodes), config.nodes_per_rack
                )
                # after_epoch counts completed epochs (1-based).
                kills.append(
                    ClusterFault(f"node:{rack}.{node_in_rack}", after_epoch=after + 1)
                )
        self.node = ShardedCluster(
            workload,
            topology,
            placement=config.placement,
            replication=config.replication,
            workers_per_shard=config.num_workers,
            epoch_len=config.epoch_len,
            snapshot_interval=config.snapshot_interval,
            gc_keep_checkpoints=2,
            kills=kills,
            detection_seconds=config.detection_seconds,
            scheme_cls=SCHEMES[config.scheme],
        )

    def now(self) -> float:
        return self.node.elapsed_seconds()

    def advance_to(self, target: float) -> None:
        for shard in self.node.shards:
            shard.machine.advance_all_to(target)

    def outage_after(self, epoch: int) -> Optional[str]:
        """The kills fire inside ``process_stream``; name their victims."""
        if not self.node.crashed:
            return None
        return "kill:" + ",".join(map(str, self.node.dead_shards))

    def sla_fields(self, report: ClusterRecoveryReport) -> Dict:
        # The cluster report already speaks SLA: MTTR is the slowest
        # shard's (a chaos cluster cell's is the RTO), RTO is detection
        # + the parallel makespan.
        return dict(
            mttr_seconds=report.max_mttr_seconds,
            detection_seconds=report.detection_seconds,
            rto_seconds=report.rto_seconds,
        )

    def store(self) -> StateStore:
        return self.node.merged_store()


_DRIVERS = {"single": _SingleNode, "cluster": _ClusterNode}


# ---------------------------------------------------------------------------
# the soak loop and its exports
# ---------------------------------------------------------------------------


def run_soak(config: Optional[SoakConfig] = None) -> SoakResult:
    """Run one soak end to end; deterministic for a fixed config."""
    config = config or SoakConfig()
    workload = _make_workload(config)
    events = workload.generate(config.num_events, config.seed)
    L = config.epoch_len

    make_driver = _DRIVERS[config.mode]
    probe = make_driver(config, workload, armed=False)
    capacity = probe.node.process_stream(events[: 2 * L]).throughput_eps
    offered_eps = capacity * OFFERED_LOAD_FACTOR
    admission = TokenBucketAdmission(
        offered_eps * ADMISSION_HEADROOM, ADMISSION_BURST
    )
    driver = make_driver(config, workload)
    node = driver.node
    verification = SoakVerification(ran=config.verify)

    latencies: List[float] = []
    series: List[Dict] = []
    outages: List[OutageRecord] = []
    samples: List[Tuple] = []

    @lru_cache(maxsize=None)
    def truth_after(epoch: int) -> StateStore:
        return ground_truth(workload, events[: (epoch + 1) * L])[0]

    for epoch in range(config.epochs):
        batch = events[epoch * L : (epoch + 1) * L]
        arrivals = [e.seq / offered_eps for e in batch]
        close = 0.0
        for arrival in arrivals:
            close = admission.admit(arrival)
        driver.advance_to(close)
        node.process_stream(batch)
        commit = driver.now()
        epoch_lats = [commit - a for a in arrivals]
        latencies.extend(epoch_lats)
        kind = driver.outage_after(epoch)
        digest = latency_summary(epoch_lats)
        series.append(
            {
                "epoch": epoch,
                "events": len(batch),
                "commit_seconds": commit,
                "p50_seconds": digest["p50"],
                "p99_seconds": digest["p99"],
                "max_seconds": digest["max"],
                "outage_after": kind is not None,
            }
        )
        if kind is None:
            continue

        # -- outage: serve stale, recover, back admission off ----------
        reads = [
            node.degraded_read(StateRef(TABLE, key))
            for key in _degraded_keys(config, len(outages))
        ]
        samples.extend(astuple(r) for r in reads)
        if config.verify and any(
            stale_read_error(r, epoch, truth_after) for r in reads
        ):
            verification.degraded_reads = False
        report = node.recover()
        sla = driver.sla_fields(report)
        driver.advance_to(commit + sla["rto_seconds"])
        admission.gate = driver.now()
        outages.append(
            OutageRecord(
                epoch=epoch,
                kind=kind,
                degraded_reads=len(reads),
                stale_reads=sum(1 for r in reads if r.stale),
                fresh_reads=sum(1 for r in reads if not r.stale),
                max_staleness_epochs=max(
                    (r.staleness_epochs for r in reads), default=0
                ),
                # Named alike on both report types (the cluster's fold).
                attempts=report.attempts,
                resumed=report.resumed,
                ladder=dict(report.ladder),
                **sla,
            )
        )

    if config.verify:
        verdict = verify_exact(
            driver.store(), node.sink.outputs(), workload, events
        )
        verification.state = verdict.state_exact
        verification.outputs = verdict.outputs_exact

    duration = driver.now()
    outage_total = sum(o.rto_seconds for o in outages)
    latency = latency_summary(latencies)
    mttr = latency_summary([o.mttr_seconds for o in outages])
    metrics = SoakMetrics(
        throughput_eps=config.num_events / duration if duration > 0 else 0.0,
        capacity_eps=capacity,
        offered_eps=offered_eps,
        latency_p50_seconds=latency["p50"],
        latency_p99_seconds=latency["p99"],
        latency_p999_seconds=latency["p999"],
        latency_max_seconds=latency["max"],
        mttr_mean_seconds=mttr["mean"],
        mttr_max_seconds=mttr["max"],
        rto_max_seconds=max((o.rto_seconds for o in outages), default=0.0),
        availability=1.0 - outage_total / duration if duration > 0 else 1.0,
        outage_seconds=outage_total,
        duration_seconds=duration,
        degraded_reads=sum(o.degraded_reads for o in outages),
        stale_reads=sum(o.stale_reads for o in outages),
        deferred_events=admission.deferred,
    )
    return SoakResult(
        config=config,
        metrics=metrics,
        verification=verification,
        slo=evaluate_slo(
            targets=config.slo,
            duration_seconds=duration,
            outage_seconds=outage_total,
            latency_p99_seconds=metrics.latency_p99_seconds,
            latency_p999_seconds=metrics.latency_p999_seconds,
            mttr_max_seconds=metrics.mttr_max_seconds,
        ),
        outages=outages,
        epoch_series=series,
        max_admission_delay_seconds=admission.max_delay_seconds,
        degraded_samples=samples,
    )


def smoke_configs(seed: int = 7) -> List[SoakConfig]:
    """The bounded pair CI soaks on every push: single + one cluster cell.

    SLO targets are set with generous (~3×) headroom over the committed
    baseline so they catch collapses, while ``repro gate soak`` fails on
    any number that moves from the committed record.
    """
    slo = SLOTargets(
        p99_latency_seconds=1.0,
        p999_latency_seconds=5.0,
        availability=0.5,
        max_mttr_seconds=2.0,
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


#: ``SoakConfig`` fields the exports leave out: knobs of how the run is
#: graded and checked, not of the cell it measures.
_CONFIG_OMIT = ("detection_seconds", "verify", "slo")
_TOPOLOGY_FIELDS = ("shards", "racks", "nodes_per_rack", "replication", "placement")


def _config_payload(cfg: SoakConfig) -> Dict:
    omit = _CONFIG_OMIT + (() if cfg.mode == "cluster" else _TOPOLOGY_FIELDS)
    return without(asdict(cfg), *omit)


def soak_payload(result: SoakResult) -> Dict:
    """The JSON document ``repro soak --json`` exports (full detail)."""
    return {
        "schema": SOAK_SCHEMA,
        "cell": result.cell,
        "config": _config_payload(result.config),
        "metrics": asdict(result.metrics),
        "slo": slo_payload(result.slo),
        "verification": asdict(result.verification),
        "admission": {"max_delay_seconds": result.max_admission_delay_seconds},
        "outages": [asdict(o) for o in result.outages],
        "epoch_series": list(result.epoch_series),
        "ok": result.ok,
    }


def bench_record(result: SoakResult) -> Dict:
    """One stable-schema trajectory record (appended across PRs).

    Deliberately free of wall-clock timestamps: the simulator is pure
    virtual time, so the same commit always reproduces the same record
    bit for bit and the CI gate can compare exactly.
    """
    return {
        "cell": result.cell,
        "config": _config_payload(result.config),
        "metrics": asdict(result.metrics),
        "slo_passed": result.slo.passed,
        "ok": result.ok,
    }
