"""Shared execution machinery: value-passing parallel execution of a TPG
plus the translation of executed operations into costed simulator tasks.

Two layers live here:

1. :func:`execute_tpg` — the *semantic* layer.  It computes the result
   of a batch using only edge-local information (each operation's
   inputs come from its TD predecessor, its PD sources and the base
   state — never from a global cursor).  This is exactly the
   information a parallel worker has, so equality with
   :func:`repro.engine.serial.execute_serial` (enforced by tests)
   certifies that any dependency-respecting parallel schedule is
   conflict-equivalent to timestamp order.

2. :func:`build_op_tasks` / :func:`txn_op_costs` — the *timing* layer.
   It converts the executed operations into :class:`~repro.sim.SimTask`
   DAGs for the list-scheduling simulator, charging the calibrated cost
   model per primitive actually performed.

Both run once per epoch over every operation, for every scheme, so
they look each fact up at the granularity it lives at (per chain, per
transaction, per operation) and bind what a loop reads to locals.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import Callable, Dict, List, Sequence
from zlib import crc32

from repro import buckets
from repro.engine.events import Event
from repro.engine.functions import condition_function, state_function
from repro.engine.operations import Operation
from repro.engine.refs import RefTable, StateRef
from repro.engine.serial import SerialOutcome
from repro.engine.state import StateStore
from repro.engine.tpg import TaskPrecedenceGraph
from repro.engine.transactions import Transaction
from repro.sim.costs import CostModel
from repro.storage.codec import encode
from repro.sim.executor import SimTask

WorkerOf = Callable[[StateRef], int]


def execute_tpg(store: StateStore, tpg: TaskPrecedenceGraph) -> SerialOutcome:
    """Execute a batch through its TPG, mutating ``store``.

    Each operation's inputs are resolved strictly through graph edges;
    the final value of every record is the value after the last
    operation of its chain.  Returns the same outcome structure as the
    serial executor.
    """
    outcome = SerialOutcome()
    cond_values = outcome.cond_values
    read_values = outcome.read_values
    op_values = outcome.op_values
    cond_sources = tpg.cond_sources
    pd_sources = tpg.pd_sources
    td_prev = tpg.td_prev.get
    base = store.reads()
    value_after: Dict[int, float] = {}

    for txn in tpg.txns:
        txn_id = txn.txn_id
        cond_vals = cond_values[txn_id] = {}
        for ref, src in cond_sources.get(txn_id, ()):
            cond_vals[ref] = value_after[src] if src is not None else base[ref]
        committed = True
        for cond in txn.conditions:
            values = list(map(cond_vals.__getitem__, cond.refs))
            if not condition_function(cond.func)(values, cond.params):
                committed = False
                break
        for op in txn.ops:
            uid = op.uid
            sources = pd_sources[uid]
            if sources:
                resolved = []
                for ref, src in zip(op.reads, sources):
                    resolved.append(
                        value_after[src] if src is not None else base[ref]
                    )
                reads = tuple(resolved)
            else:
                reads = ()
            read_values[uid] = reads
            prev = td_prev(uid)
            own = value_after[prev] if prev is not None else base[op.ref]
            if committed:
                value = state_function(op.func)(own, reads, op.params)
                op_values[uid] = value
            else:
                value = own  # aborted operations leave the record unchanged
            value_after[uid] = value
        if not committed:
            outcome.aborted.add(txn_id)
        outcome.decisions.append((txn.event.seq, committed))

    for ref, chain in tpg.chains.items():
        store.set(ref, value_after[chain[-1].uid])
    return outcome


def preprocess(
    events: Sequence[Event], workload, uid_base: int = 0
) -> List[Transaction]:
    """Deterministically turn events into transactions (step ① of §II-B).

    ``workload`` must expose ``build_transaction(event, uid_base, refs)``
    returning a :class:`Transaction` whose operation uids start at
    ``uid_base`` and are contiguous.  Events are processed in sequence
    order so uids are globally timestamp-ordered.  One :class:`RefTable`
    serves the whole call: a ref per record, not per mention.
    """
    txns: List[Transaction] = []
    next_uid = uid_base
    refs = RefTable()
    for event in sorted(events, key=attrgetter("seq")):
        txn = workload.build_transaction(event, next_uid, refs)
        next_uid += len(txn.ops)
        txns.append(txn)
    return txns


@lru_cache(maxsize=1 << 16)
def stable_hash(ref: StateRef) -> int:
    """Process-independent hash of a state ref.

    Python's built-in ``hash`` of strings is salted per process
    (PYTHONHASHSEED), which would make experiments non-reproducible;
    use CRC32 over the codec encoding instead.  Placement asks once per
    operation, so the pure result is memoized per ref (bounded: a few
    MiB at most).
    """
    return crc32(encode(ref.encoded()))


def hash_worker_of(num_workers: int) -> WorkerOf:
    """MorphStream's default placement: records hash to workers.

    All operations of one chain land on one worker (chains are the unit
    of data locality); different chains spread by a deterministic,
    process-independent hash of the ref.
    """

    def worker_of(ref: StateRef) -> int:
        return stable_hash(ref) % num_workers

    return worker_of


def txn_op_costs(
    txn: Transaction,
    tpg: TaskPrecedenceGraph,
    outcome: SerialOutcome,
    costs: CostModel,
) -> List[float]:
    """CPU seconds each operation of ``txn`` costs during (re-)execution.

    In ``txn.ops`` order.  Own write + each cross-key read are state
    accesses; committed operations additionally run the UDF; the
    validator (first operation) resolves and checks every condition of
    its transaction.  Whether the transaction committed and what its
    conditions cost are decided here once, not per operation.
    """
    state_access = costs.state_access
    if txn.txn_id not in outcome.aborted:
        udf = costs.udf
        seconds = []
        for op in txn.ops:
            seconds.append(state_access * (1 + len(op.reads)) + udf)
    else:
        # An aborted transaction's operations are visited but never
        # resolve their reads or run the UDF — only the no-op pass over
        # the record (the rollback itself is charged separately).
        seconds = [state_access] * len(txn.ops)
    if txn.conditions:
        # Two separate additions: the float operation order is part of
        # the virtual-time contract.
        seconds[0] += state_access * len(tpg.cond_sources.get(txn.txn_id, ()))
        seconds[0] += costs.condition_check * len(txn.conditions)
    return seconds


def op_cost(
    op: Operation,
    tpg: TaskPrecedenceGraph,
    outcome: SerialOutcome,
    costs: CostModel,
) -> float:
    """CPU seconds one operation costs: its entry of :func:`txn_op_costs`."""
    txn = tpg.txn_by_id[op.txn_id]
    return txn_op_costs(txn, tpg, outcome, costs)[txn.ops.index(op)]


def build_op_tasks(
    tpg: TaskPrecedenceGraph,
    outcome: SerialOutcome,
    costs: CostModel,
    worker_of: WorkerOf,
    charge_aborts: bool = True,
    explore_per_dep: float = 0.0,
) -> List[SimTask]:
    """Build the costed task DAG for dependency-respecting execution.

    One :class:`SimTask` per operation in the ``execute`` bucket, pinned
    to ``worker_of(op.ref)`` (chain locality), plus an ``explore``
    component of ``explore_per_dep`` per distinct dependency.  Aborted
    transactions charge ``abort_transaction`` on their validator's
    worker (rollback handling) unless ``charge_aborts`` is off (abort
    pushdown).

    Every fact is looked up at the granularity it lives at: placement
    once per chain, commit verdict / validator / costs once per
    transaction, and only the edges per operation.
    """
    aborted = outcome.aborted
    dependencies = tpg.dependencies
    validator_uid = tpg.validator_uid
    worker_of_chain = {ref: worker_of(ref) for ref in tpg.chains}
    execute, explore = buckets.EXECUTE, buckets.EXPLORE
    tasks: List[SimTask] = []
    append = tasks.append
    for txn in tpg.txns:
        # Aborted transactions never resolve their reads, so their
        # operations impose no parametric waits — higher abort ratios
        # genuinely thin the dependency graph.  Condition reads are
        # always resolved (they decide the abort).
        committed = txn.txn_id not in aborted
        seconds = txn_op_costs(txn, tpg, outcome, costs)
        for op, cost in zip(txn.ops, seconds):
            deps = dependencies(op, True, True, committed)
            if explore_per_dep and deps:
                extra = ((explore, explore_per_dep * len(deps)),)
            else:
                extra = ()
            append(
                SimTask(
                    op.uid, worker_of_chain[op.ref], cost, tuple(deps), execute, extra
                )
            )
    if charge_aborts and aborted:
        # Rollback handling runs where the validator ran; model it as a
        # synthetic follow-up task in the abort bucket so the recovery
        # breakdown (Fig. 11) can report it separately.  Synthetic uids
        # are negative, which never collides with operation uids.
        op_by_uid = tpg.op_by_uid
        for txn_id in sorted(aborted):
            validator = validator_uid[txn_id]
            append(
                SimTask(
                    -(txn_id + 1),
                    worker_of_chain[op_by_uid[validator].ref],
                    costs.abort_transaction,
                    (validator,),
                    buckets.ABORT,
                )
            )
    return tasks
