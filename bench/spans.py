"""Outside-in tracing: spans around the public entry points of each layer.

Nothing inside ``src/`` knows about this file.  :class:`Tracer` replaces
a fixed table of public functions and methods with timing wrappers,
records one span per call in memory while a repetition runs, and puts
the originals back.  Functions are replaced in every ``repro.*`` module
namespace that holds them (``from x import f`` copies the binding),
methods on their class.

A span is recorded only under one of the two roots, ``ft.process_stream``
and ``ft.recover`` — the same two calls the end-to-end metrics time — so
the self times of all spans add up to the traced wall time.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: ``(metric name, module, attribute)``.  The metric name's first
#: component is the layer.  ``Class.method`` attributes are patched on
#: the class; plain names in every ``repro.*`` namespace.  Two entries
#: may share a name (both executors report as ``sim.executor.run``).
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("engine.preprocess", "repro.engine.execution", "preprocess"),
    ("engine.build_tpg", "repro.engine.tpg", "build_tpg"),
    ("engine.execute_tpg", "repro.engine.execution", "execute_tpg"),
    ("engine.build_op_tasks", "repro.engine.execution", "build_op_tasks"),
    ("engine.state.snapshot", "repro.engine.state", "StateStore.snapshot"),
    ("engine.state.restore", "repro.engine.state", "StateStore.restore"),
    ("sim.executor.run", "repro.sim.executor", "ParallelExecutor.run"),
    ("sim.executor.run", "repro.sim.executor", "ResilientExecutor.run"),
    ("sim.clock.spend_parallel", "repro.sim.clock", "Machine.spend_parallel"),
    ("sim.clock.barrier", "repro.sim.clock", "Machine.barrier"),
    ("storage.codec.encode", "repro.storage.codec", "encode"),
    ("storage.codec.decode", "repro.storage.codec", "decode"),
    ("storage.integrity.protect", "repro.storage.integrity", "protect"),
    ("storage.integrity.verify", "repro.storage.integrity", "verify"),
    ("storage.events.append_events", "repro.storage.stores", "EventStore.append_events"),
    ("storage.events.read_epochs", "repro.storage.stores", "EventStore.read_epochs"),
    ("storage.events.truncate_before", "repro.storage.stores", "EventStore.truncate_before"),
    ("storage.logs.commit_epoch", "repro.storage.stores", "LogStore.commit_epoch"),
    ("storage.logs.read_epoch", "repro.storage.stores", "LogStore.read_epoch"),
    ("storage.snapshots.put", "repro.storage.stores", "SnapshotStore.put"),
    ("storage.snapshots.load", "repro.storage.stores", "SnapshotStore.load"),
    ("storage.progress.save", "repro.storage.stores", "ProgressStore.save"),
    ("core.build_chain_graph", "repro.core.partition", "build_chain_graph"),
    ("core.greedy_partition", "repro.core.partition", "greedy_partition"),
    ("core.logmanager.stage", "repro.core.logmanager", "LoggingManager.stage"),
    ("core.logmanager.commit", "repro.core.logmanager", "LoggingManager.commit"),
    ("core.logmanager.load_epoch", "repro.core.logmanager", "LoggingManager.load_epoch"),
    ("core.push_down_aborts", "repro.core.abortpushdown", "push_down_aborts"),
    ("core.restructure_operations", "repro.core.restructure", "restructure_operations"),
    ("core.chains_by_partition", "repro.core.restructure", "chains_by_partition"),
    ("core.lpt_assign", "repro.core.assignment", "lpt_assign"),
    ("core.explore_chains", "repro.core.shadow", "explore_chains"),
    ("ft.process_stream", "repro.ft.base", "FTScheme.process_stream"),
    ("ft.recover", "repro.ft.base", "FTScheme.recover"),
    ("ft.static_batches", "repro.ft.pacman", "static_batches"),
)

#: Spans are recorded only inside these.
ROOTS = ("ft.process_stream", "ft.recover")

LAYERS = ("engine", "sim", "storage", "core", "ft")

#: Work counted at the same boundary as the span, so ratios such as
#: ``storage.encode_amplification`` are measured where the work happens.
#: ``counter name -> (entry point, fn(args, kwargs, result) -> int)``.
COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "storage.codec.encode.bytes": (
        "storage.codec.encode", lambda a, k, r: len(r)),
    "storage.codec.decode.bytes": (
        "storage.codec.decode", lambda a, k, r: len(a[0] if a else k["data"])),
    "engine.tpg.ops": (
        "engine.build_tpg", lambda a, k, r: len(r.ops)),
    "engine.tpg.edges": (
        "engine.build_tpg", lambda a, k, r: sum(r.edge_counts().values())),
    "sim.tasks": (
        "sim.executor.run", lambda a, k, r: len(a[1] if len(a) > 1 else k["tasks"])),
}

NAMES = tuple(dict.fromkeys(name for name, _m, _a in ENTRY_POINTS))


def resolve(module_name: str, attr: str):
    """``(owner, attribute name, original)`` for one table entry.

    Raises when the entry no longer exists: a renamed function must
    fail loudly instead of silently losing its span.
    """
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[leaf] if path else getattr(owner, leaf)
    if not callable(original):
        raise TypeError(f"{module_name}.{attr} is not callable")
    return owner, leaf, original


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        # One row per span, in start order; columns kept as parallel
        # lists because a wrapper appends to them on every call.
        self.name: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.cell: List[int] = []
        self.epoch: List[int] = []
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._stack: List[int] = []
        self._at = (0, 0)
        #: (namespace or class, attribute, original) for every binding
        #: replaced, so remove() restores exactly what install() changed.
        self._patched: List[Tuple[object, str, object]] = []

    def at(self, cell: int, epoch: int) -> None:
        """Tag the spans that follow with their cell and epoch: the
        identifier all spans of one engine call share."""
        self._at = (cell, epoch)

    # ------------------------------------------------------------------
    # install / remove
    # ------------------------------------------------------------------

    def _wrap(self, name: str, original: Callable) -> Callable:
        index = NAMES.index(name)
        is_root = name in ROOTS
        counters = [
            (counter, fn)
            for counter, (entry, fn) in COUNTERS.items()
            if entry == name
        ]
        stack = self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, cells, epochs = self.parent, self.cell, self.epoch
        totals = self.counters

        def wrapper(*args, **kwargs):
            if not stack and not is_root:
                return original(*args, **kwargs)
            span = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            cell, epoch = self._at
            cells.append(cell)
            epochs.append(epoch)
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
            for counter, fn in counters:
                totals[counter] += fn(args, kwargs, result)
            return result

        wrapper.span_name = name  # how test_bench.py spots a leftover
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, module_name, attr in ENTRY_POINTS:
            owner, leaf, original = resolve(module_name, attr)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, leaf, wrapper)
                self._patched.append((owner, leaf, original))
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (
                    mod_name == "repro" or mod_name.startswith("repro.")
                ):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def remove(self) -> None:
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # ------------------------------------------------------------------
    # reading the spans
    # ------------------------------------------------------------------

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (self seconds, calls)`` over every recorded span."""
        covered = [0.0] * len(self.name)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[span] - self.start[span]
        totals = {name: [0.0, 0] for name in NAMES}
        for span, index in enumerate(self.name):
            entry = totals[NAMES[index]]
            entry[0] += self.end[span] - self.start[span] - covered[span]
            entry[1] += 1
        return {name: (t, n) for name, (t, n) in totals.items()}

    def rows(self) -> List[list]:
        """Spans as ``[id, name index, start, end, parent, cell,
        epoch]``; times in seconds from the first span's start."""
        origin = self.start[0] if self.start else 0.0
        return [
            [
                span, self.name[span],
                round(self.start[span] - origin, 7),
                round(self.end[span] - origin, 7),
                self.parent[span], self.cell[span], self.epoch[span],
            ]
            for span in range(len(self.name))
        ]
