"""LV: Taurus-style LSN-vector logging [24].

Runtime: each worker owns one log stream; every committed transaction
appends a record carrying its command and an *LSN vector* — one entry
per log stream holding the position of the latest dependency in that
stream.  Maintaining the vector costs per-entry work on every
transaction, the "significant computation overhead at runtime" of
§III-B.

Recovery: transactions replay on their original stream's worker; before
a transaction executes it checks the global recovery-LSN vector against
its *logged* vector (per-entry Explore cost), which preserves the
partial order among dependent transactions.  The logged vectors are
first verified against the partial order recomputed from the rebuilt
committed-only TPG — a mismatch means the vector payload is stale or
corrupted, and recovery degrades to event replay (rung 2) rather than
trusting it.  Parallelism is again bounded by the workload's inherent
dependencies, and the frequent vector checks show up as LV's large
Explore time on dependency-heavy workloads (SL).

:class:`LSNVectorCompressed` (LVC) is the compressed-vector variant of
the Taurus paper: instead of a dense ``num_workers``-wide vector it
logs only the sparse ``(stream, position)`` pairs of streams that
actually hold a dependency, so runtime vector maintenance is paid per
*set* entry rather than per stream.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro import buckets
from repro.engine.events import Event
from repro.engine.execution import execute_tpg, preprocess
from repro.engine.state import StateStore
from repro.engine.tpg import build_tpg
from repro.engine.transactions import Transaction
from repro.errors import VectorMismatchError
from repro.ft.base import EpochContext, FTScheme
from repro.ft.common import build_txn_tasks, txn_level_deps
from repro.sim.clock import Machine
from repro.sim.executor import ParallelExecutor

#: Log-store stream name for LSN-vector records.
STREAM = "lv"


class LSNVector(FTScheme):
    """Per-stream logging with LSN vectors preserving partial order."""

    name = "LV"
    replays_from_events = False
    log_streams = (STREAM,)

    # --- vector representation (LVC overrides) --------------------------

    def _encode_vector(self, vector: Sequence[int]) -> tuple:
        """Wire form of one vector: dense, one entry per stream."""
        return tuple(vector)

    def _decode_vector(self, encoded: Sequence[int]) -> Tuple[int, ...]:
        """Dense vector back from its wire form (``()`` if malformed)."""
        return tuple(encoded) if len(encoded) == self.num_workers else ()

    def _vector_track_cost(self, encoded: tuple, dep_count: int) -> float:
        """Runtime cost of logging one record and maintaining its vector.

        ``encoded`` is the record :meth:`_encode_vector` made.  The dense
        representation pays per-entry maintenance on every stream, set
        or not — Taurus's runtime overhead at §III-B.
        """
        return (
            self.costs.log_record_append
            + self.costs.lsn_vector_entry * self.num_workers
            + self.costs.track_dependency * dep_count
        )

    def _vector_verify_cost(self, entries: int) -> float:
        """Recovery cost of checking one logged vector, with ``entries``
        set entries, against the one recomputed from the rebuilt TPG.

        This is a *local* compare of two warm vectors during the log
        scan — unlike replay's vector checks there is no synchronized
        access to the contended global recovery vector, so the per-entry
        unit is a fraction of ``lsn_vector_entry``, and only set entries
        matter (equal set-entry lists plus equal counts imply the dense
        forms match).
        """
        return 0.25 * self.costs.lsn_vector_entry * (1 + entries)

    # --- vector computation ----------------------------------------------

    def _vectors_for(
        self, txns, deps: Dict[int, Tuple[int, ...]], aborted
    ) -> Dict[int, List[int]]:
        """Compute each committed transaction's LSN vector.

        Stream positions are assigned in timestamp order per stream;
        entry ``i`` of a vector is the largest position among the
        transaction's dependencies living in stream ``i`` (-1 if none).

        Epoch-local contract: transaction ids restart at zero every
        epoch (``preprocess`` renumbers), so a dependency source is
        always a *same-epoch* transaction — never one from an earlier
        epoch.  ``deps`` must therefore come from a committed-only TPG
        (:meth:`_committed_deps`): every source is then a committed
        transaction that already holds a log position.  A source without
        a position is a dependency that would be silently encoded as -1
        ("no dependency") — historically this swallowed dependencies
        routed through aborted transactions — so it fails loudly here.
        """
        position: Dict[int, int] = {}
        stream_of: Dict[int, int] = {}
        next_pos = [0] * self.num_workers
        vectors: Dict[int, List[int]] = {}
        for txn in txns:
            if txn.txn_id in aborted:
                continue
            # Each worker logs what it executes: the stream is the
            # transaction's worker.
            stream = self.worker_of_txn(txn)
            stream_of[txn.txn_id] = stream
            position[txn.txn_id] = next_pos[stream]
            next_pos[stream] += 1
            vector = [-1] * self.num_workers
            for src in deps[txn.txn_id]:
                if src not in position:
                    raise AssertionError(
                        f"txn {txn.txn_id} depends on txn {src} which "
                        "holds no log position: dependencies must be "
                        "computed over the committed-only TPG (a source "
                        "that is aborted or later-timestamp would be "
                        "silently encoded as 'no dependency')"
                    )
                src_stream = stream_of[src]
                vector[src_stream] = max(vector[src_stream], position[src])
            vectors[txn.txn_id] = vector
        return vectors

    def _committed_deps(
        self, txns: Sequence[Transaction], tpg, aborted
    ) -> Dict[int, Tuple[int, ...]]:
        """Transaction-level dependencies over the committed-only TPG.

        The full-batch TPG routes edges *through* aborted transactions:
        a committed transaction reading a record last written by an
        aborted one depends, in the full graph, on the aborted writer —
        which logs nothing and holds no position.  Since aborted
        operations are pass-throughs (they surface their TD-chain
        predecessor's value), the true ordering constraint is on the
        nearest *committed* writer, which is exactly the edge the TPG
        rebuilt from committed transactions alone produces.  This also
        makes runtime vectors bit-identical to the vectors recovery
        recomputes from its committed-only rebuild.
        """
        if not aborted:
            return txn_level_deps(tpg)
        committed = [t for t in txns if t.txn_id not in aborted]
        return txn_level_deps(build_tpg(committed))

    def _on_epoch(self, ctx: EpochContext) -> None:
        aborted = ctx.outcome.aborted
        deps = self._committed_deps(ctx.txns, ctx.tpg, aborted)
        vectors = self._vectors_for(ctx.txns, deps, aborted)
        records = []
        tracked = []
        for txn in ctx.txns:
            if txn.txn_id in aborted:
                continue
            record = self._encode_vector(vectors[txn.txn_id])
            records.append(record)
            tracked.append(self._vector_track_cost(record, len(deps[txn.txn_id])))
        self.charge_tracking(tracked)
        # Per-stream logs flush synchronously before the epoch commits:
        # each command's row, and its vector in the tail.
        self._commit_commands(ctx, self._committed_commands(ctx), tuple(records))

    def _recover_epoch(
        self,
        machine: Machine,
        executor: ParallelExecutor,
        store: StateStore,
        epoch_id: int,
        events: Sequence[Event],
    ) -> List[Tuple[int, tuple]]:
        costs = self.costs
        commands, vectors = self._read_commands(machine, epoch_id)
        logged = [self._decode_vector(vec) for vec in vectors]
        if () in logged:
            index = logged.index(())
            raise VectorMismatchError(
                f"log stream {STREAM!r} epoch {epoch_id} record {index} is no LSN vector",
                epoch_id=epoch_id, record_index=index,
            )

        txns = preprocess(commands, self.workload, 0)
        machine.spend_parallel(
            buckets.EXECUTE, [costs.preprocess_event] * len(commands)
        )
        tpg = build_tpg(txns)

        # Fidelity check before any state mutation: the logged vectors
        # must agree, entry for entry, with the partial order recomputed
        # from the rebuilt committed-only TPG.  Records are logged in
        # commit (timestamp) order, and positions are renumbering-
        # invariant, so the comparison is positional.  A mismatch means
        # the vector payload is stale or corrupted even though its CRC
        # passed; raising here (a degradable error) quarantines the LV
        # stream and replays the epoch from the event store instead.
        deps = txn_level_deps(tpg)
        recomputed = self._vectors_for(txns, deps, aborted=())
        # Set entries (positions >= 0) per logged vector, counted once
        # for both the verify cost and replay's vector check.
        set_entries = [sum(map((-1).__lt__, vec)) for vec in logged]
        machine.spend_parallel(
            buckets.EXPLORE, map(self._vector_verify_cost, set_entries)
        )
        for index, (txn, logged_vec) in enumerate(zip(txns, logged)):
            if tuple(logged_vec) != tuple(recomputed[txn.txn_id]):
                raise VectorMismatchError(
                    f"epoch {epoch_id} record {index}: logged LSN vector "
                    f"{tuple(logged_vec)} disagrees with recomputed "
                    f"partial order {tuple(recomputed[txn.txn_id])}",
                    epoch_id=epoch_id,
                    record_index=index,
                )

        outcome = execute_tpg(store, tpg)

        entries_by_txn = {
            txn.txn_id: entries for txn, entries in zip(txns, set_entries)
        }

        def vector_check(txn_id, txn_deps):
            # A transaction whose logged vector is empty passes the
            # global recovery-LSN-vector check immediately — Taurus is
            # genuinely lightweight there (this is why LV leads the
            # uniform write-only sweep of Fig. 14b).  Each *set* entry
            # adds repeated polls of the contended global vector until
            # that stream's recovery LSN reaches the logged position;
            # dependencies on the same stream collapse into one entry.
            entries = entries_by_txn[txn_id]
            if not entries:
                return (("explore", 0.5 * costs.lsn_vector_entry),)
            polls = 2 + 8 * entries
            return (("explore", costs.lsn_vector_entry * polls),)

        tasks = build_txn_tasks(
            tpg,
            deps,
            outcome,
            costs,
            worker_of_txn=self.worker_of_txn,
            explore_per_dep=costs.explore_dependency,
            extra_fn=vector_check,
        )
        executor.run(tasks)
        machine.spend_parallel(
            buckets.EXECUTE, [costs.postprocess_event] * len(txns)
        )
        return self._make_outputs(txns, outcome)


class LSNVectorCompressed(LSNVector):
    """Taurus compressed vectors: sparse (stream, position) pairs.

    The dense scheme pays ``lsn_vector_entry`` maintenance on all
    ``num_workers`` entries of every committed transaction's vector —
    most of which are -1 on real workloads.  Taurus §6 compresses the
    vector to only its set entries; we log sorted ``(stream, pos)``
    pairs, flattened to ``(s0, p0, s1, p1, ...)``, and re-derive the
    runtime tracking cost as one base update plus one per set entry.
    Recovery decodes back to the dense form, so verification and replay
    share the LV path, but per-record verify/check work also scales with
    set entries rather than stream count.
    """

    name = "LVC"

    def _encode_vector(self, vector: Sequence[int]) -> tuple:
        return tuple(
            item for stream, pos in enumerate(vector) if pos >= 0 for item in (stream, pos)
        )

    def _decode_vector(self, encoded: Sequence[int]) -> Tuple[int, ...]:
        streams, width = encoded[::2], self.num_workers
        if len(encoded) % 2 or not 0 <= min(streams, default=0) <= max(streams, default=0) < width:
            return ()
        vector = [-1] * width
        for stream, pos in zip(streams, encoded[1::2]):
            vector[stream] = pos
        return tuple(vector)

    def _vector_track_cost(self, encoded: tuple, dep_count: int) -> float:
        # One (stream, position) pair per set entry.
        return (
            self.costs.log_record_append
            + self.costs.lsn_vector_entry * (1 + len(encoded) // 2)
            + self.costs.track_dependency * dep_count
        )
