"""One workload, measured: warm-up, timed repetitions, traced repetitions.

End-to-end metrics come from repetitions with tracing off.  With
``trace`` on, repetitions alternate between tracing off and under the
:class:`spans.Tracer`, so that host drift hits both kinds alike;
per-layer times are per-repetition means over the traced repetitions,
and the ratio of the two walls is the tracing overhead.

**How a timing becomes a value.**  Every timed call is converted from
wall seconds into *reference seconds* by the host-speed kernel run
around it (:class:`cycle.HostClock` says why and what it buys).  A
value is then computed from, per epoch position (and per recovery
position), the median over repetitions of that call's reference
seconds: an interference burst hits one position of one repetition
and is voted out, while costs the program causes itself — a snapshot
epoch, a collector pause — recur at the same position on every
repetition and stay in.  Next to each value goes the noise record: the
same metric computed on each repetition alone, as quartiles and sample
count (:class:`Sample`).  The uncompensated wall-clock figures are
reported as ``raw.*``.

Metrics the engine computes deterministically (device bytes,
virtual-clock throughput, span call counts) must be identical on every
repetition of one seed: a difference is counted as a failure, not noise.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

import cases
import cycle
import spans

#: Least repetitions behind an end-to-end value, whatever ``--seconds``.
MIN_TIMED_REPS = 3
#: Least (untraced, traced) pairs of repetitions in a traced run.
MIN_TRACED_ROUNDS = 2


def positions(reps: Sequence[cycle.Repetition], attr: str) -> List[float]:
    """Per call position, the median over repetitions of ``attr``."""
    return [
        statistics.median(position)
        for position in zip(*(rep.each(attr) for rep in reps))
    ]


def percentile(values: List[float], p: int) -> float:
    """The ``p``-th percentile (``p`` a multiple of 5), interpolated."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[p // 5 - 1]


@dataclass
class Sample:
    """A metric's value and the noise record behind it."""

    value: float
    #: the same metric computed on each repetition alone.
    per_rep: List[float] = field(default_factory=list)
    #: what the value is, where it has no per-repetition record.
    note: str = ""

    @property
    def n(self) -> int:
        return len(self.per_rep)

    def quartiles(self) -> Optional[List[float]]:
        if self.n < 2:
            return None
        q1, _q2, q3 = statistics.quantiles(self.per_rep, n=4)
        return [q1, q3]

    def spread(self) -> Optional[float]:
        """Interquartile range ÷ median of the per-repetition values."""
        quartiles = self.quartiles()
        median = statistics.median(self.per_rep) if self.per_rep else 0.0
        if quartiles is None or not median:
            return None
        return (quartiles[1] - quartiles[0]) / median

    def payload(self) -> dict:
        out: dict = {"value": self.value}
        if self.per_rep:
            out.update(
                n=self.n,
                median=statistics.median(self.per_rep),
                quartiles=self.quartiles(),
                spread=self.spread(),
            )
        return out


@dataclass
class Measurement:
    workload: str
    seed: int
    end_to_end: Dict[str, Sample] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    timed_reps: int = 0
    traced_reps: int = 0
    #: every host-speed kernel sample of the run, in order.
    kernel_s: List[float] = field(default_factory=list)
    trace_file: Optional[str] = None

    def account(self, rep: cycle.Repetition) -> None:
        self.attempted += rep.total("ops_attempted")
        self.failed += rep.total("verify_failures")
        for cell in rep.cells:
            self.errors.extend(cell.errors)
            self.kernel_s.extend(cell.kernel_s)

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)


def _timings(reps: List[cycle.Repetition], raw: str = "") -> Dict[str, Sample]:
    """The six timings, from reference seconds (``raw=""``) or from
    the wall seconds they were converted from (``raw="raw_"``)."""
    first = reps[0]
    events = first.total("events")
    replayed = first.total("events_replayed")
    epoch_s = positions(reps, raw + "epoch_s")
    runtime_s = sum(epoch_s)
    recovery_s = sum(positions(reps, raw + "recovery_each_s"))

    def sample(value: float, one: Callable[[cycle.Repetition], float]) -> Sample:
        return Sample(value, [one(rep) for rep in reps])

    def epoch_ms(p: int) -> Sample:
        return sample(
            percentile(epoch_s, p) * 1e3,
            lambda r: percentile(r.each(raw + "epoch_s"), p) * 1e3,
        )

    def seconds(rep: cycle.Repetition, attr: str) -> float:
        return sum(rep.each(raw + attr))

    setup = [rep.total(raw + "setup_s") for rep in reps]
    return {
        "setup_s": Sample(statistics.median(setup), setup),
        "runtime_eps": sample(
            events / runtime_s, lambda r: events / seconds(r, "epoch_s")
        ),
        "recovery_eps": sample(
            replayed / recovery_s,
            lambda r: replayed / seconds(r, "recovery_each_s"),
        ),
        "cycle_eps": sample(
            events / (runtime_s + recovery_s),
            lambda r: events
            / (seconds(r, "epoch_s") + seconds(r, "recovery_each_s")),
        ),
        "epoch_ms_p50": epoch_ms(50),
        "epoch_ms_p95": epoch_ms(95),
    }


def _end_to_end(reps: List[cycle.Repetition], rss_mb: float) -> Dict[str, Sample]:
    first = reps[0]
    events = first.total("events")
    return {
        **_timings(reps),
        "peak_rss_mb": Sample(rss_mb, note="after the last repetition"),
        # Exact: identical on every repetition (measure() checks that).
        "device_bytes_per_event": Sample(
            first.total("device_bytes_written") / events, note="exact"
        ),
        "virtual_runtime_eps": Sample(
            events / first.total("virtual_runtime_s"), note="exact"
        ),
        "virtual_recovery_eps": Sample(
            first.total("events_replayed") / first.total("virtual_recovery_s"),
            note="exact",
        ),
    }


def _per_scheme(reps: List[cycle.Repetition]) -> Dict[str, float]:
    """``scheme.<NAME>.*``: throughput of the cells of one scheme, 0
    where this workload has no such cell (and NAT never recovers)."""
    out: Dict[str, float] = {}
    for scheme in cases.SCHEME_NAMES:
        mine = [
            cycle.Repetition([c for c in rep.cells if c.scheme == scheme])
            for rep in reps
        ]
        runtime_s = sum(positions(mine, "epoch_s"))
        recovery_s = sum(positions(mine, "recovery_each_s"))
        out[f"scheme.{scheme}.runtime_eps"] = (
            mine[0].total("events") / runtime_s if runtime_s else 0.0
        )
        out[f"scheme.{scheme}.recovery_eps"] = (
            mine[0].total("events_replayed") / recovery_s if recovery_s else 0.0
        )
    return out


def _per_layer(
    traced: List[cycle.Repetition],
    tables: List[Dict[str, tuple]],
    counters: Dict[str, int],
) -> Dict[str, float]:
    """Self times and shares: per-repetition means over the traced
    repetitions, so that the shares of the five layers add up to 1.

    Spans are wall seconds; each repetition's are scaled to reference
    seconds by that repetition's own reference ÷ wall ratio."""
    n = len(traced)
    wall = sum(rep.wall_s for rep in traced) / n
    out: Dict[str, float] = {}
    layer_self = dict.fromkeys(spans.LAYERS, 0.0)
    speed = [rep.wall_s / rep.total("raw_wall_s") for rep in traced]
    for name in spans.NAMES:
        self_s = sum(t[name][0] * f for t, f in zip(tables, speed)) / n
        out[f"{name}.self_s"] = self_s
        out[f"{name}.calls"] = tables[0][name][1]
        layer_self[name.split(".", 1)[0]] += self_s
    for layer, self_s in layer_self.items():
        out[f"share.{layer}"] = self_s / wall
    out.update(counters)
    first = traced[0]
    written = first.total("device_bytes_written") - first.total("setup_bytes_written")
    out["storage.encode_amplification"] = (
        out["storage.codec.encode.bytes"] / written if written else 0.0
    )
    out["storage.device.write_ops"] = (
        first.total("device_write_ops") - first.total("setup_write_ops")
    )
    return out


def _write_trace(
    path: Path, name: str, seed: int, workload: cases.Workload,
    tracers: List[spans.Tracer],
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "workload": name,
        "seed": seed,
        "names": list(spans.NAMES),
        "cells": [f"{cell.scheme}/{cell.input}" for cell in workload.cells],
        "columns": ["id", "name", "start_s", "end_s", "parent", "cell", "epoch"],
        "repetitions": [tracer.rows() for tracer in tracers],
    }
    path.write_text(json.dumps(payload, separators=(",", ":")))


def measure(
    name: str,
    workload: cases.Workload,
    seed: int,
    seconds: float,
    trace: bool,
    reps: Optional[int] = None,
    out_dir: Optional[Path] = None,
) -> Measurement:
    """Run one workload; see the module docstring for the schedule.

    ``reps`` fixes the number of timed (and of traced) repetitions
    instead of running for ``seconds``.
    """
    result = Measurement(name, seed)
    cells = workload.cells
    warm_cells = workload.shrunk().cells
    refs = cycle.references(cells + warm_cells, seed)

    # Untimed warm-up: lazy imports, caches and allocator pools fill.
    result.account(cycle.run_repetition(warm_cells, seed, refs))

    timed: List[cycle.Repetition] = []
    traced: List[cycle.Repetition] = []
    tracers: List[spans.Tracer] = []

    def repetition(tracing: bool) -> None:
        gc.collect()
        if tracing:
            with spans.Tracer() as tracer:
                traced.append(cycle.run_repetition(cells, seed, refs, tracer))
            tracers.append(tracer)
        else:
            timed.append(cycle.run_repetition(cells, seed, refs))
        result.account((traced if tracing else timed)[-1])

    begin = perf_counter()
    least = MIN_TRACED_ROUNDS if trace else MIN_TIMED_REPS
    while (
        len(timed) < reps
        if reps is not None
        else len(timed) < least or perf_counter() - begin < seconds
    ):
        repetition(tracing=False)
        if trace:
            repetition(tracing=True)
    result.timed_reps, result.traced_reps = len(timed), len(traced)
    # Linux reports ru_maxrss in KiB.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.end_to_end = _end_to_end(timed, rss_mb)

    if trace:
        tables = [tracer.self_times() for tracer in tracers]
        layer = _per_layer(traced, tables, tracers[0].counters)
        layer.update(_per_scheme(timed))
        full = [refs[key] for key in {(c.input, c.num_events) for c in cells}]
        layer["engine.serial_eps"] = sum(r.events for r in full) / sum(
            r.serial_s for r in full
        )
        layer["trace.overhead_ratio"] = sum(
            positions(traced, "epoch_s") + positions(traced, "recovery_each_s")
        ) / sum(positions(timed, "epoch_s") + positions(timed, "recovery_each_s"))
        layer.update(
            (f"raw.{key}", sample.value)
            for key, sample in _timings(timed, raw="raw_").items()
        )
        calls = [{n: v[1] for n, v in table.items()} for table in tables]
        if any(c != calls[0] for c in calls[1:]):
            result.fail("span call counts differ between traced repetitions")
        ratio = None
        if workload.real_backend_probe:
            ratio = cycle.real_recover_wall_ratio(
                cells[0], seed, os.cpu_count() or 1
            )
        # 0 = not measured on this workload, or the backend cannot run.
        layer["real.recover_wall_ratio"] = ratio or 0.0
        result.per_layer = layer
        if out_dir is not None:
            path = out_dir / f"trace-{name}.json"
            _write_trace(path, name, seed, workload, tracers)
            result.trace_file = str(path)

    exact = {rep.exact() for rep in timed + traced}
    if len(exact) != 1:
        result.fail(
            "exact metrics (device bytes, events replayed, virtual seconds) "
            f"differ between repetitions of seed {seed}: {sorted(exact)}"
        )
    if trace:
        result.per_layer["host.spin_s"] = statistics.median(result.kernel_s)
    return result
