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

2. :func:`build_op_tasks` / :func:`op_cost` — the *timing* layer.  It
   converts the executed operations into :class:`~repro.sim.SimTask`
   DAGs for the list-scheduling simulator, charging the calibrated cost
   model per primitive actually performed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from zlib import crc32

from repro.engine.events import Event
from repro.engine.functions import apply_state_function, evaluate_condition
from repro.engine.operations import Operation
from repro.engine.refs import StateRef
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
    base: Dict[StateRef, float] = {}
    value_after: Dict[int, float] = {}

    def base_value(ref: StateRef) -> float:
        if ref not in base:
            base[ref] = store.get(ref)
        return base[ref]

    def resolve(ref: StateRef, source: Optional[int]) -> float:
        return value_after[source] if source is not None else base_value(ref)

    for txn in tpg.txns:
        cond_vals = {
            ref: resolve(ref, src)
            for ref, src in tpg.cond_sources.get(txn.txn_id, ())
        }
        outcome.cond_values[txn.txn_id] = cond_vals
        committed = all(
            evaluate_condition(
                cond.func, [cond_vals[r] for r in cond.refs], cond.params
            )
            for cond in txn.conditions
        )
        for op in txn.ops:
            reads = tuple(
                resolve(ref, src) for ref, src in tpg.pd_sources[op.uid]
            )
            outcome.read_values[op.uid] = reads
            prev = tpg.td_prev.get(op.uid)
            own = value_after[prev] if prev is not None else base_value(op.ref)
            if committed:
                value = apply_state_function(op.func, own, reads, op.params)
                outcome.op_values[op.uid] = value
            else:
                value = own  # aborted operations leave the record unchanged
            value_after[op.uid] = value
        if not committed:
            outcome.aborted.add(txn.txn_id)
        outcome.decisions.append((txn.event.seq, committed))

    for ref, chain in tpg.chains.items():
        store.set(ref, value_after[chain[-1].uid])
    return outcome


def preprocess(
    events: Sequence[Event], workload, uid_base: int = 0
) -> List[Transaction]:
    """Deterministically turn events into transactions (step ① of §II-B).

    ``workload`` must expose ``build_transaction(event, uid_base)``
    returning a :class:`Transaction` whose operation uids start at
    ``uid_base`` and are contiguous.  Events are processed in sequence
    order so uids are globally timestamp-ordered.
    """
    txns: List[Transaction] = []
    next_uid = uid_base
    for event in sorted(events, key=lambda e: e.seq):
        txn = workload.build_transaction(event, next_uid)
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


def op_cost(
    op: Operation,
    tpg: TaskPrecedenceGraph,
    outcome: SerialOutcome,
    costs: CostModel,
    charge_conditions: bool = True,
) -> float:
    """CPU seconds one operation costs during (re-)execution.

    Own write + each cross-key read are state accesses; committed
    operations additionally run the UDF; the validator resolves and
    checks every condition of its transaction.
    """
    txn = tpg.txn_by_id[op.txn_id]
    committed = txn.txn_id not in outcome.aborted
    if committed:
        seconds = costs.state_access * (1 + len(op.reads)) + costs.udf
    else:
        # An aborted transaction's operations are visited but never
        # resolve their reads or run the UDF — only the no-op pass over
        # the record (the rollback itself is charged separately).
        seconds = costs.state_access
    if charge_conditions and op.uid == tpg.validator_uid[op.txn_id]:
        num_cond_refs = len(tpg.cond_sources.get(op.txn_id, ()))
        seconds += costs.state_access * num_cond_refs
        seconds += costs.condition_check * len(txn.conditions)
    return seconds


def build_op_tasks(
    tpg: TaskPrecedenceGraph,
    outcome: SerialOutcome,
    costs: CostModel,
    worker_of: WorkerOf,
    bucket: str = "execute",
    include_pd: bool = True,
    include_ld: bool = True,
    charge_aborts: bool = True,
    abort_bucket: str = "abort",
    extra_cost_per_op: float = 0.0,
    explore_per_dep: float = 0.0,
    explore_bucket: str = "explore",
    extra_per_op: Tuple[Tuple[str, float], ...] = (),
) -> List[SimTask]:
    """Build the costed task DAG for dependency-respecting execution.

    One :class:`SimTask` per operation, pinned to ``worker_of(op.ref)``
    (chain locality).  ``include_pd`` / ``include_ld`` let recovery
    schemes that have eliminated those dependency classes drop the
    corresponding edges — that is the whole point of MorphStreamR.
    Aborted transactions charge ``abort_transaction`` on their
    validator's worker (rollback handling) unless ``charge_aborts`` is
    off (abort pushdown).
    """
    tasks: List[SimTask] = []
    for op in tpg.ops:
        deps: List[int] = []
        prev = tpg.td_prev.get(op.uid)
        if prev is not None:
            deps.append(prev)
        validator = tpg.validator_uid[op.txn_id]
        committed = op.txn_id not in outcome.aborted
        if include_pd and committed:
            # Aborted transactions never resolve their reads, so their
            # operations impose no parametric waits — higher abort
            # ratios genuinely thin the dependency graph.
            for _ref, src in tpg.pd_sources.get(op.uid, ()):
                if src is not None:
                    deps.append(src)
        if include_pd and op.uid == validator:
            # Condition reads are always resolved (they decide the abort).
            for _ref, src in tpg.cond_sources.get(op.txn_id, ()):
                if src is not None:
                    deps.append(src)
        if include_ld and op.uid != validator:
            deps.append(validator)
        seconds = op_cost(op, tpg, outcome, costs, charge_conditions=include_ld)
        seconds += extra_cost_per_op
        unique_deps = tuple(dict.fromkeys(d for d in deps if d != op.uid))
        extra = list(extra_per_op)
        if explore_per_dep and unique_deps:
            extra.append((explore_bucket, explore_per_dep * len(unique_deps)))
        tasks.append(
            SimTask(
                uid=op.uid,
                worker=worker_of(op.ref),
                cost=seconds,
                deps=unique_deps,
                bucket=bucket,
                extra=tuple(extra),
            )
        )
    if charge_aborts and outcome.aborted:
        # Rollback handling runs where the validator ran; model it as a
        # synthetic follow-up task in the abort bucket so the recovery
        # breakdown (Fig. 11) can report it separately.  Synthetic uids
        # are negative, which never collides with operation uids.
        worker_by_uid = {t.uid: t.worker for t in tasks}
        for txn_id in sorted(outcome.aborted):
            validator = tpg.validator_uid[txn_id]
            tasks.append(
                SimTask(
                    uid=-(txn_id + 1),
                    worker=worker_by_uid[validator],
                    cost=costs.abort_transaction,
                    deps=(validator,),
                    bucket=abort_bucket,
                )
            )
    return tasks
