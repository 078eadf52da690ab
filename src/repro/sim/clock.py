"""Per-core virtual clocks with bucketed time accounting.

A :class:`Machine` owns ``num_cores`` :class:`Core` objects.  Each core
carries a monotonically increasing virtual clock (seconds) and an
accounting dictionary mapping a *bucket* name (``"execute"``,
``"construct"``, ``"wait"``, ...) to the seconds spent in it.  The paper's
recovery-breakdown figure (Fig. 11) is produced directly from these
buckets.

The model is intentionally simple and fully deterministic:

- ``core.spend(bucket, seconds)`` advances one core's clock.
- ``machine.barrier(bucket)`` aligns every core to the maximum clock,
  charging the idle gap of each core to ``bucket`` (``"wait"`` by
  default) — this is how synchronization/straggler time appears.
- ``machine.elapsed()`` is the makespan so far.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.errors import ConfigError

#: Bucket used for time a core spends blocked on other cores.
WAIT = "wait"


def invalid_duration(core_id: int, bucket: str, seconds: float) -> ConfigError:
    """The error for a duration that fails ``seconds >= 0.0``.

    Written that way round so NaN fails too: virtual time never flows
    backwards, and a NaN clock compares false against everything, so
    ``elapsed()`` and every dependency wait after it would silently be
    wrong.  Shared by everything that advances a clock.
    """
    return ConfigError(
        f"core {core_id}: invalid duration {seconds!r} for bucket {bucket!r} "
        "(must be a number >= 0)"
    )


class Core:
    """One simulated CPU core: a clock plus per-bucket accounting."""

    __slots__ = ("core_id", "clock", "buckets")

    def __init__(self, core_id: int):
        self.core_id = core_id
        self.clock = 0.0
        self.buckets: Dict[str, float] = {}

    def spend(self, bucket: str, seconds: float) -> float:
        """Advance this core's clock by ``seconds``, charged to ``bucket``.

        Returns the clock value after the advance.  Negative and NaN
        durations are rejected (see :func:`invalid_duration`).

        Two hot loops perform this charge (guard, clock add, bucket
        add) inline on local variables: :meth:`Machine.spend_parallel`
        and ``ParallelExecutor._run_tasks``.  A change here must be
        repeated in both; ``tests/test_timing_oracle.py`` holds all
        three equal to the frozen ``tests/reference_timing.py``.
        """
        if not seconds >= 0.0:
            raise invalid_duration(self.core_id, bucket, seconds)
        self.clock += seconds
        self.buckets[bucket] = self.buckets.get(bucket, 0.0) + seconds
        return self.clock

    def advance_to(self, target: float, bucket: str = WAIT) -> float:
        """Move the clock forward to ``target`` (no-op if already past).

        The idle gap is charged to ``bucket``.  Returns the new clock.
        """
        gap = target - self.clock
        if gap > 0:
            self.spend(bucket, gap)
        return self.clock

    def spent(self, bucket: str) -> float:
        """Seconds this core has spent in ``bucket`` so far."""
        return self.buckets.get(bucket, 0.0)


class Machine:
    """A bank of virtual cores advancing independently between barriers."""

    def __init__(self, num_cores: int):
        if num_cores < 1:
            raise ConfigError(f"num_cores must be >= 1, got {num_cores}")
        self.cores: List[Core] = [Core(i) for i in range(num_cores)]

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def elapsed(self) -> float:
        """Makespan: the furthest-ahead core's clock."""
        return max(core.clock for core in self.cores)

    def barrier(self, bucket: str = WAIT, extra: float = 0.0) -> float:
        """Synchronize all cores at ``max(clock) + extra`` seconds.

        Each lagging core's gap is charged to ``bucket``; the ``extra``
        cost (e.g. a group-commit handshake) is charged to the same bucket
        on every core.  Returns the aligned clock value.
        """
        target = self.elapsed()
        for core in self.cores:
            core.advance_to(target, bucket)
            if extra:
                core.spend(bucket, extra)
        return self.elapsed()

    def advance_all_to(self, target: float, bucket: str = WAIT) -> float:
        """Advance every core's clock to at least ``target`` seconds.

        Cores already past ``target`` are untouched; lagging cores
        charge the idle gap to ``bucket``.  This is the latency-stamping
        primitive of the soak harness: the engine's virtual clock is
        kept aligned with the ingress arrival timeline (waiting for an
        epoch's events to arrive, or sitting through a failure-detection
        + recovery outage), so epoch-commit stamps — and therefore
        end-to-end latencies — read directly off :meth:`elapsed`.
        Returns the new makespan.
        """
        for core in self.cores:
            core.advance_to(target, bucket)
        return self.elapsed()

    def spend_all(self, bucket: str, seconds: float) -> None:
        """Charge ``seconds`` in ``bucket`` on every core simultaneously."""
        for core in self.cores:
            core.spend(bucket, seconds)

    def spend_parallel(self, bucket: str, work_items: Iterable[float]) -> None:
        """Distribute independent work items round-robin across cores.

        ``work_items`` is an iterable of per-item durations.  Items are
        dealt to cores in round-robin order, modelling an embarrassingly
        parallel loop with static scheduling.  No barrier is taken.

        Item *i* goes to core *i mod k*, so core *c* receives
        ``items[c::k]`` in order, and each core is charged its stride in
        one pass.  The contract is that this performs **the same
        additions, on the same operands, in the same order, per core**
        as one :meth:`Core.spend` call per item would — which is why it
        must stay a running sum and never become ``count * seconds``:
        that rounds differently and would move every virtual-time
        number in the repository.
        """
        items = list(work_items)
        stride = len(self.cores)
        for first, core in enumerate(self.cores[: len(items)]):
            clock = core.clock
            total = core.buckets.get(bucket, 0.0)
            for seconds in items[first::stride]:
                if not seconds >= 0.0:
                    raise invalid_duration(core.core_id, bucket, seconds)
                clock += seconds
                total += seconds
            core.clock = clock
            core.buckets[bucket] = total

    def bucket_totals(self) -> Dict[str, float]:
        """Sum of every bucket across all cores (CPU-seconds)."""
        totals: Dict[str, float] = {}
        for core in self.cores:
            for bucket, seconds in core.buckets.items():
                totals[bucket] = totals.get(bucket, 0.0) + seconds
        return totals

    def bucket_breakdown(self) -> Dict[str, float]:
        """Average per-core seconds for every bucket.

        This is the quantity plotted in the paper's Fig. 11: per-bucket
        contribution to the (wall-clock) recovery time, so the values of
        all buckets sum to approximately ``elapsed()``.
        """
        totals = self.bucket_totals()
        return {b: s / self.num_cores for b, s in totals.items()}

    def reset(self) -> None:
        """Zero all clocks and accounting (reuse between phases)."""
        for core in self.cores:
            core.clock = 0.0
            core.buckets = {}
