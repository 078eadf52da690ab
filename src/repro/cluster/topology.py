"""Failure-domain topology: process → node → rack.

A :class:`ClusterTopology` places N shard processes onto nodes and nodes
onto racks, following the correlated-failure model of Su & Zhou
(PAPERS.md): failures are not independent — a power feed or top-of-rack
switch takes out *every* process in its failure domain at once.  The
topology is the coordinate system for both fault injection (kill
targets name a domain) and replica placement (replicas must land in
*other* domains to survive a correlated kill).

Kill targets are written as ``shard:S`` (one process dies; its node's
storage survives), ``node:R.N`` (node N of rack R dies with its local
storage) or ``rack:R`` (every node of rack R dies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.errors import ConfigError

#: Kill-target kinds, from narrowest to widest failure domain.
KILL_KINDS = ("shard", "node", "rack")


@dataclass(frozen=True)
class KillTarget:
    """One failure domain to destroy, parsed from a ``kind:where`` spec."""

    kind: str
    rack: int = -1
    node: int = -1
    shard: int = -1

    def label(self) -> str:
        if self.kind == "shard":
            return f"shard:{self.shard}"
        if self.kind == "node":
            return f"node:{self.rack}.{self.node}"
        return f"rack:{self.rack}"


def parse_kill(spec: str) -> KillTarget:
    """Parse ``shard:S`` / ``node:R.N`` / ``rack:R`` into a target."""
    kind, _, where = spec.partition(":")
    if kind not in KILL_KINDS or not where:
        raise ConfigError(
            f"kill target {spec!r} must be shard:S, node:R.N or rack:R"
        )
    try:
        if kind == "shard":
            return KillTarget("shard", shard=int(where))
        if kind == "rack":
            return KillTarget("rack", rack=int(where))
        rack_part, _, node_part = where.partition(".")
        if not node_part:
            raise ValueError(where)
        return KillTarget("node", rack=int(rack_part), node=int(node_part))
    except ValueError:
        raise ConfigError(f"malformed kill target {spec!r}") from None


class ClusterTopology:
    """Shards spread over ``num_racks × nodes_per_rack`` nodes.

    Shards map to nodes by the same range arithmetic the workloads use
    for key partitioning (``shard * num_nodes // num_shards``), so the
    spread is even and deterministic.  Nodes are numbered globally
    (``rack * nodes_per_rack + node_in_rack``).
    """

    def __init__(self, num_shards: int, num_racks: int = 2, nodes_per_rack: int = 2):
        if num_shards < 1:
            raise ConfigError("num_shards must be >= 1")
        if num_racks < 1 or nodes_per_rack < 1:
            raise ConfigError("num_racks and nodes_per_rack must be >= 1")
        if num_shards < num_racks * nodes_per_rack:
            raise ConfigError(
                f"{num_shards} shard(s) cannot populate "
                f"{num_racks * nodes_per_rack} node(s); every node needs "
                "at least one shard"
            )
        self.num_shards = num_shards
        self.num_racks = num_racks
        self.nodes_per_rack = nodes_per_rack

    @property
    def num_nodes(self) -> int:
        return self.num_racks * self.nodes_per_rack

    def node_of_shard(self, shard: int) -> int:
        self._check_shard(shard)
        return shard * self.num_nodes // self.num_shards

    def rack_of_node(self, node: int) -> int:
        self._check_node(node)
        return node // self.nodes_per_rack

    def rack_of_shard(self, shard: int) -> int:
        return self.rack_of_node(self.node_of_shard(shard))

    def shards_of_node(self, node: int) -> Tuple[int, ...]:
        self._check_node(node)
        return tuple(
            s for s in range(self.num_shards) if self.node_of_shard(s) == node
        )

    def nodes_of_rack(self, rack: int) -> Tuple[int, ...]:
        if not 0 <= rack < self.num_racks:
            raise ConfigError(f"rack {rack} out of range")
        base = rack * self.nodes_per_rack
        return tuple(range(base, base + self.nodes_per_rack))

    def nodes_killed(self, target: KillTarget) -> Tuple[int, ...]:
        """Nodes whose *storage* dies with the target (empty for shard kills)."""
        if target.kind == "shard":
            return ()
        if target.kind == "node":
            node = target.rack * self.nodes_per_rack + target.node
            self._check_node(node)
            if not 0 <= target.node < self.nodes_per_rack:
                raise ConfigError(
                    f"node {target.node} out of range for rack {target.rack}"
                )
            return (node,)
        return self.nodes_of_rack(target.rack)

    def shards_killed(self, target: KillTarget) -> Tuple[int, ...]:
        """Shard processes destroyed by the target."""
        if target.kind == "shard":
            self._check_shard(target.shard)
            return (target.shard,)
        return tuple(
            shard
            for node in self.nodes_killed(target)
            for shard in self.shards_of_node(node)
        )

    def validate(self, target: KillTarget) -> None:
        """Raise :class:`ConfigError` if the target is out of range."""
        self.shards_killed(target)

    def correlation_width(self, targets: Iterable[KillTarget]) -> int:
        """Distinct nodes whose storage the targets destroy.

        This is the width the "no data loss while correlation width ≤
        replication" invariant compares against the replication factor.
        A shard-process kill contributes no node (its durable storage
        survives, width 0), and overlapping kills (a rack plus one of
        its nodes) count each node once.
        """
        nodes = set()
        for target in targets:
            self.validate(target)
            nodes.update(self.nodes_killed(target))
        return len(nodes)

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.num_shards:
            raise ConfigError(f"shard {shard} out of range")

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ConfigError(f"node {node} out of range")
