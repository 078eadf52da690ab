"""Deterministic injection of correlated cluster failures.

A :class:`ClusterFaultPlan` schedules kills of whole failure domains at
cluster-epoch boundaries — the k-correlated regime of Su & Zhou, where
one event (rack power, ToR switch) takes out every shard in the domain
simultaneously.  The plan composes with the existing single-instance
fault machinery: per-shard storage :class:`FaultSpec` lists become the
shard disk's :class:`FaultInjector`, and per-shard
:class:`~repro.sim.executor.WorkerFault` lists feed the shard's
``recovery_faults`` — so node kills, torn shard segments and recovery
worker deaths can all be exercised in one deterministic run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.topology import ClusterTopology, KillTarget, parse_kill
from repro.errors import ConfigError
from repro.sim.executor import WorkerFault
from repro.storage.faults import FaultInjector, FaultSpec


@dataclass(frozen=True)
class ClusterFault:
    """Kill one failure domain after the cluster finishes an epoch.

    ``after_epoch`` counts *completed* cluster epochs and must be >= 1:
    a shard that never processed an epoch has nothing to recover (and
    the per-shard schemes reject crashing at epoch 0).
    """

    target: str
    after_epoch: int = 1

    def __post_init__(self) -> None:
        parse_kill(self.target)  # syntax check; range check needs a topology
        if self.after_epoch < 1:
            raise ConfigError("after_epoch must be >= 1")

    def parsed(self) -> KillTarget:
        return parse_kill(self.target)


@dataclass
class ClusterFaultPlan:
    """Everything that goes wrong during one cluster run."""

    kills: Sequence[ClusterFault] = ()
    #: shard id -> storage fault specs for that shard's disk.
    storage_faults: Dict[int, Sequence[FaultSpec]] = field(default_factory=dict)
    #: shard id -> worker faults injected into that shard's recovery.
    recovery_faults: Dict[int, Sequence[WorkerFault]] = field(default_factory=dict)
    seed: int = 0

    def validate(self, topology: ClusterTopology) -> None:
        for kill in self.kills:
            topology.validate(kill.parsed())
        for shard in list(self.storage_faults) + list(self.recovery_faults):
            if not 0 <= shard < topology.num_shards:
                raise ConfigError(f"fault plan names unknown shard {shard}")

    def kills_after(self, epoch: int) -> List[KillTarget]:
        """Targets destroyed once cluster epoch ``epoch`` has completed."""
        return [
            k.parsed() for k in self.kills if k.after_epoch == epoch + 1
        ]

    def correlation_width(self, topology: ClusterTopology) -> int:
        """Distinct nodes whose storage the plan's kills destroy.

        This is the width the "no data loss while correlation width ≤
        replication" invariant compares against the replication factor.
        A shard-process kill contributes no node (its durable storage
        survives, width 0), and overlapping kills (a rack plus one of
        its nodes) count each node once.
        """
        nodes = set()
        for kill in self.kills:
            target = kill.parsed()
            topology.validate(target)
            nodes.update(topology.nodes_killed(target))
        return len(nodes)

    def injector_for(self, shard: int) -> Optional[FaultInjector]:
        specs = self.storage_faults.get(shard)
        if not specs:
            return None
        return FaultInjector(list(specs), seed=self.seed * 1000 + shard)

    def recovery_faults_for(self, shard: int) -> Tuple[WorkerFault, ...]:
        return tuple(self.recovery_faults.get(shard, ()))
