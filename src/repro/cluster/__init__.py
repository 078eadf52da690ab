"""Sharded-cluster layer: failure domains, correlated faults, placement.

Public surface of the subsystem built for ROADMAP item 2 — N
shard-local MorphStreamR instances behind one topology, with
deterministic correlated fault injection and pluggable replica
placement.
"""

from repro.cluster.cluster import (
    ClusterRecoveryReport,
    ClusterRuntimeReport,
    FRONTIER_STREAM,
    ShardRecoveryRecord,
    ShardedCluster,
)
from repro.cluster.faultplan import ClusterFault
from repro.cluster.frontier import DependencyFrontier, FederatedView, FrontierEntry
from repro.cluster.placement import (
    PLACEMENT_NAMES,
    CheckpointSpread,
    PlacementStrategy,
    StandbyReplay,
    get_placement,
)
from repro.cluster.sharding import SHARD_INTERNAL, ShardMap, ShardWorkload
from repro.cluster.topology import ClusterTopology, KillTarget, parse_kill

__all__ = [
    "FRONTIER_STREAM",
    "PLACEMENT_NAMES",
    "SHARD_INTERNAL",
    "CheckpointSpread",
    "ClusterFault",
    "ClusterRecoveryReport",
    "ClusterRuntimeReport",
    "ClusterTopology",
    "DependencyFrontier",
    "FederatedView",
    "FrontierEntry",
    "KillTarget",
    "PlacementStrategy",
    "ShardMap",
    "ShardRecoveryRecord",
    "ShardWorkload",
    "ShardedCluster",
    "StandbyReplay",
    "get_placement",
    "parse_kill",
]
