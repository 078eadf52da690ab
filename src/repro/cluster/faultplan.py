"""Deterministic injection of correlated cluster failures.

A :class:`ClusterFault` schedules the kill of one whole failure domain
at a cluster-epoch boundary — the k-correlated regime of Su & Zhou,
where one event (rack power, ToR switch) takes out every shard in the
domain simultaneously.  A :class:`~repro.cluster.cluster.ShardedCluster`
takes a list of them; this boundary kill is the cluster's whole fault
model (its shards run on fault-free disks).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import KillTarget, parse_kill
from repro.errors import ConfigError


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
