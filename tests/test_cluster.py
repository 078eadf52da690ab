"""Sharded-cluster recovery: failure domains, correlated kills, placement."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import buckets
from repro.cluster import (
    ClusterFault,
    ClusterTopology,
    DependencyFrontier,
    FrontierEntry,
    PLACEMENT_NAMES,
    ShardMap,
    ShardedCluster,
    get_placement,
    parse_kill,
)
from repro.cluster.cluster import recovery_makespan
from repro.core.assignment import lpt_assign
from repro.core.morphstreamr import MorphStreamR
from repro.engine.execution import preprocess
from repro.errors import (
    ClusterDataLossError,
    ConfigError,
    ReassignmentError,
    WorkloadError,
)
from repro.sim.clock import Machine
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.executor import ParallelExecutor, SimTask
from repro.storage.codec import decode, encode, join_list
from repro.storage.device import StorageDevice
from repro.storage.filedisk import FileProgressStore
from repro.workloads.streaming_ledger import StreamingLedger

RUN = dict(workers_per_shard=2, epoch_len=32, snapshot_interval=2)


def small_workload(accounts: int = 64) -> StreamingLedger:
    return StreamingLedger(
        accounts,
        transfer_ratio=0.6,
        multi_partition_ratio=0.4,
        skew=0.4,
        forced_abort_ratio=0.05,
        num_partitions=4,
    )


def make_cluster(
    num_shards: int = 4,
    kills=("rack:0",),
    kill_epoch: int = 2,
    placement: str = "checkpoint_spread",
    replication: int = 1,
    racks: int = 2,
    nodes_per_rack: int = 2,
    **kwargs,
):
    workload = small_workload()
    topology = ClusterTopology(num_shards, racks, nodes_per_rack)
    options = dict(RUN)
    options.update(kwargs)
    cluster = ShardedCluster(
        workload,
        topology,
        placement=placement,
        replication=replication,
        kills=[ClusterFault(k, after_epoch=kill_epoch) for k in kills],
        **options,
    )
    return workload, cluster


class TestTopology:
    def test_shard_to_node_spread_is_even_and_covers_all_nodes(self):
        topo = ClusterTopology(8, num_racks=2, nodes_per_rack=2)
        assert topo.num_nodes == 4
        nodes = [topo.node_of_shard(s) for s in range(8)]
        assert nodes == [0, 0, 1, 1, 2, 2, 3, 3]
        for node in range(topo.num_nodes):
            assert topo.shards_of_node(node) == tuple(
                s for s in range(8) if nodes[s] == node
            )

    def test_rack_arithmetic(self):
        topo = ClusterTopology(6, num_racks=3, nodes_per_rack=2)
        assert topo.nodes_of_rack(1) == (2, 3)
        assert topo.rack_of_node(5) == 2
        assert topo.rack_of_shard(0) == 0

    def test_kill_domains(self):
        topo = ClusterTopology(8, num_racks=2, nodes_per_rack=2)
        assert topo.nodes_killed(parse_kill("shard:3")) == ()
        assert topo.shards_killed(parse_kill("shard:3")) == (3,)
        assert topo.nodes_killed(parse_kill("node:1.0")) == (2,)
        assert topo.shards_killed(parse_kill("node:1.0")) == (4, 5)
        assert topo.nodes_killed(parse_kill("rack:0")) == (0, 1)
        assert topo.shards_killed(parse_kill("rack:0")) == (0, 1, 2, 3)

    def test_out_of_range_targets_rejected(self):
        topo = ClusterTopology(4)
        for spec in ("shard:9", "node:0.5", "node:7.0", "rack:2"):
            with pytest.raises(ConfigError):
                topo.validate(parse_kill(spec))

    def test_malformed_specs_rejected(self):
        for spec in ("", "rack", "rack:", "disk:0", "node:1", "shard:x"):
            with pytest.raises(ConfigError):
                parse_kill(spec)

    def test_parse_round_trip_labels(self):
        for spec in ("shard:2", "node:1.1", "rack:0"):
            assert parse_kill(spec).label() == spec

    def test_underpopulated_cluster_rejected(self):
        with pytest.raises(ConfigError):
            ClusterTopology(3, num_racks=2, nodes_per_rack=2)


class TestPlacement:
    def test_replicas_land_in_other_racks_first(self):
        topo = ClusterTopology(8, num_racks=2, nodes_per_rack=2)
        strategy = get_placement("checkpoint_spread")
        # Shard 0's primary is node 0 (rack 0); the first replica must
        # land in rack 1.
        replicas = strategy.replica_nodes(0, topo, 2)
        assert len(replicas) == 2
        assert 0 not in replicas
        assert topo.rack_of_node(replicas[0]) == 1

    def test_replication_zero_has_no_replicas(self):
        topo = ClusterTopology(4)
        assert get_placement("standby_replay").replica_nodes(0, topo, 0) == ()

    def test_survival_rules(self):
        topo = ClusterTopology(8, num_racks=2, nodes_per_rack=2)
        strategy = get_placement("checkpoint_spread")
        # Primary alive: always survives.
        assert strategy.survives(0, topo, 0, dead_nodes=(1, 2, 3))
        # Primary dead, replica alive: survives.
        assert strategy.survives(0, topo, 1, dead_nodes=(0,))
        # Primary dead, no replicas: lost.
        assert not strategy.survives(0, topo, 0, dead_nodes=(0,))
        # One replica in rack 1 (node 2): killing both loses the shard.
        assert not strategy.survives(0, topo, 1, dead_nodes=(0, 2))

    def test_rack_tolerance_scales_with_replication(self):
        topo = ClusterTopology(8, num_racks=2, nodes_per_rack=2)
        strategy = get_placement("checkpoint_spread")
        rack0 = topo.nodes_of_rack(0)
        for shard in range(8):
            assert strategy.survives(shard, topo, 1, dead_nodes=rack0)

    def test_unknown_placement_rejected(self):
        with pytest.raises(ConfigError):
            get_placement("scatter")
        assert set(PLACEMENT_NAMES) == {"checkpoint_spread", "standby_replay"}


class TestShardingAndFrontier:
    def test_shard_map_partitions_every_key_exactly_once(self):
        from repro.engine.refs import StateRef

        workload = small_workload()
        smap = ShardMap(workload, 4)
        snapshot = workload.initial_state().snapshot()
        owners = {}
        total = 0
        for table, records in snapshot.items():
            for key in records:
                shard = smap.shard_of(StateRef(table, key))
                assert 0 <= shard < 4
                owners.setdefault(shard, []).append((table, key))
                total += 1
        assert sum(len(v) for v in owners.values()) == total
        assert set(owners) == set(range(4))

    def test_cross_shard_detection_matches_op_spread(self):
        workload = small_workload()
        smap = ShardMap(workload, 4)
        events = workload.generate(64, seed=3)
        txns = preprocess(events, workload, 0)
        crossings = [t for t in txns if smap.is_cross(t)]
        assert crossings, "workload must produce cross-shard transactions"
        for txn in crossings:
            assert len(smap.shards_of_txn(txn)) > 1

    def test_shard_workloads_refuse_to_generate(self):
        workload, cluster = make_cluster()
        with pytest.raises(WorkloadError):
            cluster.shards[0].workload.generate(10, seed=0)

    def test_frontier_entry_codec_round_trip(self):
        entry = FrontierEntry(
            seq=17, home=2, aborted=False, reads={0: (1.5, -2.0), 3: (0.0,)}
        )
        assert FrontierEntry.decode(entry.encoded()) == entry

    def test_frontier_epoch_round_trip(self):
        frontier = DependencyFrontier()
        entry = FrontierEntry(seq=5, home=1, aborted=True, reads={})
        frontier.record(entry)
        assert frontier.is_cross(5)
        assert not frontier.is_cross(6)
        assert frontier.aborted(5)
        # What a shard commits and reloads: the entries' codec bytes
        # joined into one list.
        payload = decode(join_list([encode(entry.encoded())]))
        fresh = DependencyFrontier()
        fresh.load_epoch(payload)
        assert fresh.entry(5) == entry


class TestClusterRecovery:
    def test_node_kill_recovers_exactly_and_keeps_processing(self):
        workload, cluster = make_cluster(kills=("node:0.0",))
        events = workload.generate(4 * 32, seed=7)
        cluster.process_stream(events)
        assert cluster.crashed
        report = cluster.recover()
        assert [r.shard for r in report.per_shard] == [0]
        cluster.process_stream([])
        assert cluster.verify_exact()

    def test_rack_kill_recovers_all_shards_in_parallel(self):
        workload, cluster = make_cluster(num_shards=8, kills=("rack:0",))
        events = workload.generate(4 * 32, seed=11)
        cluster.process_stream(events)
        report = cluster.recover()
        assert report.shards_killed == (0, 1, 2, 3)
        assert report.correlation_width == 2  # both rack-0 nodes died
        assert report.recovery_nodes == 2  # only rack 1 survives
        assert report.rto_seconds >= report.detection_seconds
        assert report.rto_seconds == pytest.approx(
            report.detection_seconds + report.makespan_seconds
        )
        cluster.process_stream([])
        assert cluster.verify_exact()

    def test_standby_replay_replays_full_history(self):
        workload, cluster = make_cluster(
            kills=("node:0.1",), kill_epoch=3, placement="standby_replay"
        )
        events = workload.generate(5 * 32, seed=5)
        cluster.process_stream(events)
        report = cluster.recover()
        for record in report.per_shard:
            # No periodic checkpoints: recovery starts from the initial
            # epoch -1 snapshot and replays every epoch since.
            assert record.report.checkpoint_epoch == -1
            assert record.report.epochs_replayed == 3
        cluster.process_stream([])
        assert cluster.verify_exact()

    def test_checkpoint_spread_restarts_from_newest_checkpoint(self):
        workload, cluster = make_cluster(
            kills=("node:0.1",), kill_epoch=4, snapshot_interval=2
        )
        events = workload.generate(6 * 32, seed=5)
        cluster.process_stream(events)
        report = cluster.recover()
        assert all(r.report.checkpoint_epoch >= 0 for r in report.per_shard)
        cluster.process_stream([])
        assert cluster.verify_exact()

    def test_shard_kill_leaves_storage_and_recovers(self):
        workload, cluster = make_cluster(kills=("shard:2",), replication=0)
        events = workload.generate(4 * 32, seed=2)
        cluster.process_stream(events)
        report = cluster.recover()  # storage survived: r0 is enough
        assert report.correlation_width == 0
        assert [r.shard for r in report.per_shard] == [2]
        cluster.process_stream([])
        assert cluster.verify_exact()

    def test_under_replication_is_loud_data_loss(self):
        workload, cluster = make_cluster(kills=("node:0.0",), replication=0)
        events = workload.generate(4 * 32, seed=9)
        cluster.process_stream(events)
        with pytest.raises(ClusterDataLossError) as exc_info:
            cluster.recover()
        assert exc_info.value.lost_shards == (0,)
        assert exc_info.value.lost_events > 0

    def test_correlated_kill_wider_than_replication_is_loud(self):
        workload, cluster = make_cluster(
            num_shards=8, kills=("node:0.0", "node:1.0"), replication=1
        )
        events = workload.generate(4 * 32, seed=4)
        cluster.process_stream(events)
        with pytest.raises(ClusterDataLossError):
            cluster.recover()

    def test_replication_two_survives_the_same_correlated_kill(self):
        workload, cluster = make_cluster(
            num_shards=8, kills=("node:0.0", "node:1.0"), replication=2
        )
        events = workload.generate(4 * 32, seed=4)
        cluster.process_stream(events)
        report = cluster.recover()
        assert report.correlation_width == 2
        cluster.process_stream([])
        assert cluster.verify_exact()

    def test_recovery_is_no_op_without_dead_shards(self):
        workload, cluster = make_cluster(kills=())
        events = workload.generate(2 * 32, seed=1)
        cluster.process_stream(events)
        assert not cluster.crashed


def reference_makespan(weights, num_nodes):
    """The makespan as the cluster first computed it: one independent
    task per recovery, pinned by LPT and simulated on ``num_nodes``."""
    assignment, _loads = lpt_assign(weights, num_nodes)
    machine = Machine(num_nodes)
    executor = ParallelExecutor(
        machine, DEFAULT_COSTS.sync_handoff, DEFAULT_COSTS.remote_fetch
    )
    executor.run(
        [
            SimTask(
                uid=i,
                worker=assignment[i],
                cost=weight,
                bucket=buckets.EXECUTE,
                group=i,
            )
            for i, weight in enumerate(weights)
        ]
    )
    return machine.elapsed()


@given(
    weights=st.lists(
        st.floats(min_value=1e-6, max_value=2.0), min_size=1, max_size=12
    ),
    num_nodes=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=200, deadline=None)
def test_property_recovery_makespan_matches_the_simulated_schedule(
    weights, num_nodes
):
    """Per-node sums in shard order equal the executor's makespan bit
    for bit: without deps or faults a node's clock is exactly that sum."""
    assert recovery_makespan(weights, num_nodes) == reference_makespan(
        weights, num_nodes
    )


class TestReassignmentError:
    def test_empty_survivor_set_is_typed(self):
        from repro.sim.clock import Machine
        from repro.sim.executor import (
            ResilientExecutor,
            SimTask,
            WorkerFault,
            WorkerFaultPlan,
        )

        plan = WorkerFaultPlan(
            [WorkerFault(0, "die"), WorkerFault(1, "die")], num_workers=2
        )
        executor = ResilientExecutor(Machine(2), sync_cost=0.0, fault_plan=plan)
        with pytest.raises(ReassignmentError):
            executor.run([SimTask(uid=0, worker=0, cost=1.0)])
        # ReassignmentError is a recovery error, not a config error.
        from repro.errors import RecoveryError

        assert issubclass(ReassignmentError, RecoveryError)


class TestAtomicWatermark:
    def test_save_leaves_no_temp_file(self, tmp_path):
        store = FileProgressStore(StorageDevice(), tmp_path)
        store.save({"scheme": "MSR", "crash_epoch": 3})
        assert (tmp_path / "progress.bin").exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_stale_temp_debris_is_swept_on_open(self, tmp_path):
        store = FileProgressStore(StorageDevice(), tmp_path)
        store.save({"scheme": "MSR", "crash_epoch": 1})
        published = (tmp_path / "progress.bin").read_bytes()
        # A crash between temp-write and rename leaves garbage beside a
        # still-consistent published slot.
        (tmp_path / "progress.bin.tmp").write_bytes(b"torn half-write")
        reopened = FileProgressStore(StorageDevice(), tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []
        assert (tmp_path / "progress.bin").read_bytes() == published
        record, _io = reopened.load()
        assert record == {"scheme": "MSR", "crash_epoch": 1}

    def test_chain_mark_write_is_atomic_too(self, tmp_path):
        store = FileProgressStore(StorageDevice(), tmp_path)
        store.save({"scheme": "MSR", "crash_epoch": 1})
        store.save_chain_mark(5)
        assert (tmp_path / "chain_mark.bin").exists()
        assert list(tmp_path.glob("*.tmp")) == []


class TestWatermarkDegradationCounter:
    def test_torn_watermark_is_counted_not_fatal(self, sl):
        scheme = MorphStreamR(
            sl, num_workers=2, epoch_len=32, snapshot_interval=2
        )
        events = sl.generate(4 * 32, seed=3)
        scheme.process_stream(events)
        scheme.crash()
        # Fake a torn watermark flush from a previous dead recovery
        # attempt: the slot exists but fails framing verification.
        scheme.disk.progress._slots["progress"] = b"\x00torn watermark bytes"
        report = scheme.recover()
        assert report.watermark_degradations == 1
        from tests.conftest import serial_ground_truth

        expected, _txns, _outcome = serial_ground_truth(sl, events[: 4 * 32])
        assert scheme.store.equals(expected)

    def test_clean_recovery_counts_zero(self, sl):
        scheme = MorphStreamR(
            sl, num_workers=2, epoch_len=32, snapshot_interval=2
        )
        scheme.process_stream(sl.generate(3 * 32, seed=3))
        scheme.crash()
        assert scheme.recover().watermark_degradations == 0


#: Kills that stay within a replication budget of 1 on a 2×2 topology.
WITHIN_BUDGET_KILLS = ("shard:0", "node:0.0", "node:1.1", "rack:0", "rack:1")


@given(
    num_shards=st.sampled_from([4, 6, 8]),
    placement=st.sampled_from(PLACEMENT_NAMES),
    kill=st.sampled_from(WITHIN_BUDGET_KILLS),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=12, deadline=None)
def test_property_within_budget_kills_recover_bit_identically(
    num_shards, placement, kill, seed
):
    """Any single-domain kill within the replication budget recovers the
    cluster to a state bit-identical to the serial single-instance run,
    for every shard count × placement combination."""
    workload, cluster = make_cluster(
        num_shards=num_shards,
        kills=(kill,),
        kill_epoch=2,
        placement=placement,
        replication=1,
    )
    events = workload.generate(3 * 32, seed=seed)
    cluster.process_stream(events)
    assert cluster.crashed
    cluster.recover()  # a kill beyond replication would raise data loss
    cluster.process_stream([])
    assert cluster.verify_exact()
