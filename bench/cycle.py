"""The closed-loop run→crash→recover driver and its correctness check.

One thread, one process: epoch-sized slices go to ``process_stream``
back to back (the ``harness/soak.py`` call pattern), a crash + recovery
lands once per cycle, and at the end the state and the delivered
outputs are compared with a serial run of the same events.

The engine is driven only through the README quickstart surface —
``SCHEMES[name](workload, num_workers=, epoch_len=, snapshot_interval=)``,
``process_stream``, ``crash``, ``recover``, ``.store``,
``.sink.outputs()``, ``.disk.device.stats``, ``.persists_events`` — plus
``preprocess`` + ``execute_serial`` for the reference, so a refactor
under that surface cannot move a metric by moving the benchmark's feet.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro import SCHEMES
from repro.engine.execution import preprocess
from repro.engine.serial import execute_serial

from cases import INPUTS, NUM_WORKERS, Cell

#: Wall seconds :func:`kernel` takes on the reference box (2-core Xeon
#: 2.1 GHz VM, CPython 3.11) while its neighbours are quiet: there, one
#: reference second is one wall second.  Only a scale: changing it
#: rescales every timing of every commit alike.
KERNEL_REFERENCE_S = 0.0009


def kernel() -> float:
    """Time a fixed pure-Python loop with the engine's instruction mix
    (dict, tuple and int work): the host's speed right now."""
    start = perf_counter()
    table: Dict[Tuple[int, int], int] = {}
    acc = 0
    for i in range(4000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc += len(table) + i * i % 7
    return perf_counter() - start


class HostClock:
    """Times engine calls, and the host's speed around each of them.

    The code under test is deterministic and CPU bound; what varies is
    the host.  On the shared 2-core reference box :func:`kernel` takes
    0.9 ms or 1.4 ms depending on what the neighbours do, in phases that
    last from seconds to minutes, and raw wall-clock throughput swings
    with it, whatever statistic summarises a run: ten-seed spreads of
    0.04–0.08 in quiet phases and 0.3 in loud ones.  The clock therefore
    runs the kernel right after every timed call and converts the
    call's wall seconds into *reference seconds*: wall ×
    ``KERNEL_REFERENCE_S`` ÷ the mean of the kernel's times just before
    and just after the call.  With that, ten-seed spreads are 0.01–0.04
    (``bench/results/``), and eight runs of ``sl_msr`` during which the
    kernel's median moved between 1.02 and 1.47 ms reported
    ``runtime_eps`` between 13 245 and 13 767.  Raw wall seconds are kept
    next to the reference seconds and reported as ``raw.*``.
    """

    def __init__(self) -> None:
        self.kernel_s: List[float] = [kernel()]

    def timed(self, fn, *args):
        """``(result, wall seconds, reference seconds)`` of ``fn(*args)``."""
        start = perf_counter()
        result = fn(*args)
        wall = perf_counter() - start
        before = self.kernel_s[-1]
        self.kernel_s.append(kernel())
        speed = KERNEL_REFERENCE_S / ((before + self.kernel_s[-1]) / 2)
        return result, wall, wall * speed


@dataclass
class Reference:
    """Serial ground truth for one (input, event count, seed)."""

    state: Dict[str, Dict[object, float]]
    outputs: Dict[int, tuple]
    events: int
    #: reference seconds (see :class:`HostClock`) the serial run took.
    serial_s: float


def reference(input_name: str, num_events: int, seed: int) -> Reference:
    """Single-threaded ``execute_serial`` run: the expected state and
    per-event outputs, timed as the baseline the pipeline's overhead is
    read against (``engine.serial_eps``)."""
    workload = INPUTS[input_name]()
    events = workload.generate(num_events, seed)
    store = workload.initial_state()
    outputs: Dict[int, tuple] = {}

    def serial(batch) -> None:
        txns = preprocess(batch, workload, 0)
        outcome = execute_serial(store, txns)
        for txn in txns:
            outputs[txn.event.seq] = workload.output_for(
                txn, txn.txn_id not in outcome.aborted, outcome.op_values
            )

    # In slices, only so that the host clock samples the host's speed
    # often enough; timestamp order makes the result the same.
    clock = HostClock()
    serial_s = sum(
        clock.timed(serial, events[i : i + 512])[2]
        for i in range(0, len(events), 512)
    )
    return Reference(store.snapshot(), outputs, num_events, serial_s)


def verify(scheme, ref: Reference) -> int:
    """Events whose delivered output is missing, extra or different,
    plus state records that differ from the serial run."""
    failures = 0
    delivered = scheme.sink.outputs()
    if delivered != ref.outputs:
        for seq in delivered.keys() | ref.outputs.keys():
            if seq not in delivered or seq not in ref.outputs:
                failures += 1
            elif delivered[seq] != ref.outputs[seq]:
                failures += 1
    state = scheme.store.snapshot()
    if state != ref.state:
        for table in state.keys() | ref.state.keys():
            mine, theirs = state.get(table, {}), ref.state.get(table, {})
            failures += sum(
                1
                for key in mine.keys() | theirs.keys()
                if key not in mine or key not in theirs or mine[key] != theirs[key]
            )
    return failures


@dataclass
class CellRun:
    """What one repetition of one cell measured."""

    scheme: str
    #: ``*_s`` are reference seconds (see :class:`HostClock`), ``raw_*``
    #: the wall seconds they were converted from.
    setup_s: float = 0.0
    raw_setup_s: float = 0.0
    #: one entry per epoch-sized ``process_stream`` call.
    epoch_s: List[float] = field(default_factory=list)
    raw_epoch_s: List[float] = field(default_factory=list)
    #: one entry per ``recover`` call.
    recovery_each_s: List[float] = field(default_factory=list)
    raw_recovery_each_s: List[float] = field(default_factory=list)
    #: every sample of the host-speed kernel taken during this cell.
    kernel_s: List[float] = field(default_factory=list)
    events: int = 0
    events_replayed: int = 0
    #: summed off the engine's own reports — the behaviour oracle.
    virtual_runtime_s: float = 0.0
    virtual_recovery_s: float = 0.0
    device_bytes_written: int = 0
    #: device counters when set-up ended (the epoch −1 snapshot is
    #: set-up; the traced run subtracts it).
    setup_bytes_written: int = 0
    device_write_ops: int = 0
    setup_write_ops: int = 0
    ops_attempted: int = 0
    verify_failures: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def runtime_s(self) -> float:
        return sum(self.epoch_s)

    @property
    def recovery_s(self) -> float:
        return sum(self.recovery_each_s)

    @property
    def raw_wall_s(self) -> float:
        return sum(self.raw_epoch_s) + sum(self.raw_recovery_each_s)


def run_cell(
    cell: Cell, seed: int, ref: Reference, tracer=None, cell_index: int = 0
) -> CellRun:
    """One repetition of one cell on a fresh scheme, verified.

    ``tracer`` (a :class:`spans.Tracer`) only needs to be told which
    cell and epoch the next engine call belongs to; the spans
    themselves come from the wrappers it installed.
    """
    run = CellRun(cell.scheme)
    clock = HostClock()

    def set_up():
        workload = INPUTS[cell.input]()
        events = workload.generate(cell.num_events, seed)
        scheme = SCHEMES[cell.scheme](
            workload,
            num_workers=NUM_WORKERS,
            epoch_len=cell.epoch_len,
            snapshot_interval=cell.snapshot_interval,
        )
        batches = [
            events[i : i + cell.epoch_len]
            for i in range(0, len(events), cell.epoch_len)
        ]
        return scheme, batches

    (scheme, batches), run.raw_setup_s, run.setup_s = clock.timed(set_up)
    stats = scheme.disk.device.stats
    run.setup_bytes_written = stats.bytes_written
    run.setup_write_ops = stats.write_ops

    records = sum(len(table) for table in ref.state.values())
    run.ops_attempted = cell.num_events + records
    try:
        for epoch, batch in enumerate(batches):
            if tracer is not None:
                tracer.at(cell_index, epoch)
            report, wall, reference_s = clock.timed(scheme.process_stream, batch)
            run.raw_epoch_s.append(wall)
            run.epoch_s.append(reference_s)
            run.events += report.events_processed
            run.virtual_runtime_s += report.elapsed_seconds
            if not scheme.persists_events:
                continue  # NAT cannot recover: runtime only.
            if epoch % cell.period != cell.crash_offset:
                continue
            run.ops_attempted += 1
            scheme.crash()
            recovery, wall, reference_s = clock.timed(scheme.recover)
            run.raw_recovery_each_s.append(wall)
            run.recovery_each_s.append(reference_s)
            run.events_replayed += recovery.events_replayed
            run.virtual_recovery_s += recovery.elapsed_seconds
            if (
                recovery.epochs_replayed != cell.recover_epochs
                or set(recovery.ladder) != {"fast"}
            ):
                run.verify_failures += 1
                run.errors.append(
                    f"{cell.scheme}/{cell.input} epoch {epoch}: replayed "
                    f"{recovery.epochs_replayed} epochs (want "
                    f"{cell.recover_epochs}) on rungs {recovery.ladder}"
                )
        run.verify_failures += verify(scheme, ref)
    except Exception:
        # Boundary that must keep running: a cell that raised verified
        # nothing, so everything it attempted counts as failed.
        run.verify_failures = run.ops_attempted
        run.errors.append(
            f"{cell.scheme}/{cell.input} raised:\n{traceback.format_exc()}"
        )
    stats = scheme.disk.device.stats
    run.device_bytes_written = stats.bytes_written
    run.device_write_ops = stats.write_ops
    run.kernel_s = clock.kernel_s
    return run


@dataclass
class Repetition:
    """One repetition of a whole workload: its cells, summed."""

    cells: List[CellRun]

    def total(self, attr: str) -> float:
        return sum(getattr(cell, attr) for cell in self.cells)

    def each(self, attr: str) -> List[float]:
        """A per-call list attribute, concatenated over the cells."""
        return [s for cell in self.cells for s in getattr(cell, attr)]

    @property
    def wall_s(self) -> float:
        """Reference seconds inside ``process_stream`` + ``recover``."""
        return self.total("runtime_s") + self.total("recovery_s")

    def exact(self) -> Tuple[int, int, float, float]:
        """Metrics that must be identical on every repetition of one
        seed; a difference is a failure, not noise."""
        return (
            self.total("device_bytes_written"),
            self.total("events_replayed"),
            self.total("virtual_runtime_s"),
            self.total("virtual_recovery_s"),
        )


def run_repetition(
    cells, seed: int, refs: Dict[Tuple[str, int], Reference], tracer=None
) -> Repetition:
    return Repetition(
        [
            run_cell(cell, seed, refs[cell.input, cell.num_events], tracer, i)
            for i, cell in enumerate(cells)
        ]
    )


def references(cells, seed: int) -> Dict[Tuple[str, int], Reference]:
    """One serial run per distinct (input, size) among ``cells``."""
    refs: Dict[Tuple[str, int], Reference] = {}
    for cell in cells:
        key = (cell.input, cell.num_events)
        if key not in refs:
            refs[key] = reference(cell.input, cell.num_events, seed)
    return refs


def real_recover_wall_ratio(cell: Cell, seed: int, workers: int) -> Optional[float]:
    """``recover()`` wall on the real backend ÷ on the simulator.

    One cycle of ``cell``'s input, ``num_workers`` = host cores, CPU
    bound (``real_time_scale=0.0``: no modelled sleeps), median of 3.
    ``None`` when the backend cannot run here or ``repro.real`` is gone,
    so deleting the backend never breaks the benchmark.
    """
    try:
        from repro.real import real_backend_unavailable_reason
    except ImportError:
        return None
    if real_backend_unavailable_reason() is not None:
        return None
    crash_after = cell.crash_offset + 1
    events = INPUTS[cell.input]().generate(cell.epoch_len * crash_after, seed)
    walls: Dict[str, List[float]] = {"sim": [], "real": []}
    for _ in range(3):
        for backend, samples in walls.items():
            scheme = SCHEMES[cell.scheme](
                INPUTS[cell.input](),
                num_workers=workers,
                epoch_len=cell.epoch_len,
                snapshot_interval=cell.snapshot_interval,
                backend=backend,
                real_time_scale=0.0,
            )
            scheme.process_stream(events)
            scheme.crash()
            start = perf_counter()
            scheme.recover()
            samples.append(perf_counter() - start)
    return sorted(walls["real"])[1] / sorted(walls["sim"])[1]
