"""The cyclic collector is paused inside each epoch and each recovery.

``FTScheme`` turns the collector off for one ``_process_epoch`` and one
recovery attempt, because refcounting already frees everything either
allocates: a collection inside one walks the live graph and finds
nothing.  These tests pin the premise (the healthy path and the
checkpoint rung of the ladder make no reference cycles), that a node
dropped while crashed is freed by refcounting too (its ``Recovery``
never holds the scheme), and the scope of the pause (off inside the
scheme hooks, back at the caller's setting afterwards, whichever way
the call ends).
"""

from __future__ import annotations

import gc

import pytest

from repro import SCHEMES
from repro.cluster import ClusterFault, ClusterTopology, ShardedCluster
from repro.errors import InjectedCrash, StorageError
from repro.ft.checkpoint import GlobalCheckpoint
from repro.harness.soak import run_soak, smoke_configs
from repro.storage.faults import FaultInjector, FaultSpec
from repro.storage.stores import Disk

RUN = dict(num_workers=4, epoch_len=40, snapshot_interval=2)
N_EVENTS = 200


@pytest.fixture
def collector_off():
    """Collector off for the test body, with nothing left to collect
    from before it; yields a callable counting what only a collection
    would free."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield gc.collect
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture(params=[True, False], ids=["caller-on", "caller-off"])
def caller_setting(request):
    """The collector setting a caller holds around a scheme call."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    try:
        yield request.param
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


class _Probe(GlobalCheckpoint):
    """CKPT that records the collector setting inside both hooks."""

    def __init__(self, *args, **kwargs):
        self.seen = {"epoch": [], "recover": []}
        super().__init__(*args, **kwargs)

    def _on_epoch(self, ctx):
        self.seen["epoch"].append(gc.isenabled())
        super()._on_epoch(ctx)

    def _recover_epoch(self, machine, executor, store, epoch_id, events):
        self.seen["recover"].append(gc.isenabled())
        return super()._recover_epoch(machine, executor, store, epoch_id, events)


class TestNoCycles:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_process_crash_recover_leaves_nothing_to_collect(
        self, collector_off, workload, name
    ):
        events = workload.generate(N_EVENTS + 40, seed=3)
        scheme = SCHEMES[name](workload, **RUN)
        scheme.process_stream(events[:N_EVENTS])
        scheme.crash()
        if name != "NAT":  # NAT cannot recover
            scheme.recover()
            scheme.process_stream(events[N_EVENTS:])
        assert collector_off() == 0

    def test_smoke_soaks_leave_nothing_to_collect(self, collector_off):
        for config in smoke_configs():
            assert run_soak(config).ok
        assert collector_off() == 0

    def test_checkpoint_fallback_leaves_nothing_to_collect(
        self, collector_off, sl
    ):
        """A torn newest checkpoint: the ladder catches its storage
        error and loads the older one, dropping the error (whose
        traceback holds the frame that held it) on the way."""
        injector = FaultInjector([FaultSpec("torn", target="snapshot", nth=2)])
        scheme = GlobalCheckpoint(
            sl,
            disk=Disk(faults=injector),
            **{**RUN, "snapshot_interval": 4, "gc_keep_checkpoints": 2},
        )
        scheme.process_stream(sl.generate(N_EVENTS, seed=3))
        scheme.crash()
        assert scheme.recover().checkpoint_fallbacks == 1
        assert collector_off() == 0

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_scheme_dropped_while_crashed_leaves_nothing_to_collect(
        self, collector_off, sl, name
    ):
        """Chaos and cluster cells drop a node that is still down."""
        scheme = SCHEMES[name](sl, **RUN)
        scheme.process_stream(sl.generate(N_EVENTS, seed=3))
        scheme.crash()
        del scheme
        assert collector_off() == 0

    def test_cluster_dropped_with_a_crashed_shard_leaves_nothing_to_collect(
        self, collector_off, sl
    ):
        cluster = ShardedCluster(
            sl,
            ClusterTopology(4, num_racks=2, nodes_per_rack=1),
            kills=[ClusterFault("node:0.0", after_epoch=2)],
            epoch_len=40,
            snapshot_interval=2,
        )
        cluster.process_stream(sl.generate(N_EVENTS, seed=3))
        assert cluster.crashed and cluster.dead_shards
        del cluster
        assert collector_off() == 0


class TestPauseScope:
    def test_off_inside_both_hooks(self, sl, caller_setting):
        scheme = _Probe(sl, **RUN)
        scheme.process_stream(sl.generate(N_EVENTS, seed=3))
        scheme.crash()
        scheme.recover()
        assert scheme.seen["epoch"] and not any(scheme.seen["epoch"])
        assert scheme.seen["recover"] and not any(scheme.seen["recover"])

    def test_each_entry_point_restores_the_callers_setting(
        self, sl, caller_setting
    ):
        events = sl.generate(N_EVENTS, seed=3)
        scheme = GlobalCheckpoint(sl, **RUN)
        scheme.process_stream(events[:120])
        assert gc.isenabled() is caller_setting
        scheme.process_epoch(events[120:160])
        assert gc.isenabled() is caller_setting
        scheme.crash()
        scheme.recover()
        assert gc.isenabled() is caller_setting

    def test_restored_when_a_crash_escapes_an_epoch(self, sl, caller_setting):
        """The second checkpoint flush kills the process mid-epoch."""
        injector = FaultInjector([FaultSpec("crash", target="snapshot", nth=2)])
        scheme = GlobalCheckpoint(sl, disk=Disk(faults=injector), **RUN)
        with pytest.raises(InjectedCrash):
            scheme.process_stream(sl.generate(N_EVENTS, seed=3))
        assert gc.isenabled() is caller_setting
        scheme.recover()
        assert gc.isenabled() is caller_setting

    def test_restored_when_a_crash_escapes_recovery(self, sl, caller_setting):
        injector = FaultInjector(
            [FaultSpec("crash_point", target="any", nth=1, point="recovery.epoch-replayed")]
        )
        scheme = GlobalCheckpoint(sl, disk=Disk(faults=injector), **RUN)
        scheme.process_stream(sl.generate(N_EVENTS, seed=3))
        scheme.crash()
        with pytest.raises(InjectedCrash):
            scheme.recover()
        assert gc.isenabled() is caller_setting
        scheme.recover()
        assert gc.isenabled() is caller_setting

    def test_restored_when_recovery_raises_a_storage_error(
        self, sl, caller_setting
    ):
        """No checkpoint reads back, so recovery fails loudly."""
        injector = FaultInjector(
            [FaultSpec("read_error", target="snapshot", probability=1.0)]
        )
        scheme = GlobalCheckpoint(sl, disk=Disk(faults=injector), **RUN)
        scheme.process_stream(sl.generate(N_EVENTS, seed=3))
        scheme.crash()
        with pytest.raises(StorageError):
            scheme.recover()
        assert gc.isenabled() is caller_setting
