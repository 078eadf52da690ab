"""Sweep analysis: speedups, crossovers, scaling efficiency, percentiles.

Helpers the experiment layer uses to turn raw sweep series into the
derived quantities EXPERIMENTS.md reports — "MSR is N× the sub-optimal
scheme", "the crossover falls at ratio r", "scaling efficiency at 32
cores".  Pure functions over ``(x, y)`` point lists; deterministic and
unit-tested, so the derived claims are as reproducible as the raw data.

The percentile helpers (:func:`percentile`, :func:`latency_summary`)
are the single implementation every latency/MTTR summary in the repo
uses — the soak harness, the chaos report and the SLO gate all quote
the same interpolated quantiles.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigError

Points = Sequence[Tuple[float, float]]


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile of ``values`` with linear interpolation.

    ``p`` is in ``[0, 100]``.  Uses the standard "linear" (inclusive)
    definition: the rank ``p/100 * (n - 1)`` is interpolated between
    its two neighbouring order statistics, so ``percentile(v, 50)`` of
    an even-sized sample is the midpoint of the middle pair.
    """
    if not values:
        raise ConfigError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ConfigError(f"percentile must be in [0, 100], got {p!r}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def p50(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def p99(values: Sequence[float]) -> float:
    return percentile(values, 99.0)


def p999(values: Sequence[float]) -> float:
    return percentile(values, 99.9)


def latency_summary(values: Sequence[float]) -> Dict[str, float]:
    """The canonical latency digest: p50/p99/p999 plus mean and max.

    Every place the repo summarizes a latency (or MTTR) sample exports
    exactly these keys, so trajectories and reports stay comparable.
    """
    if not values:
        return {
            "count": 0,
            "p50": 0.0,
            "p99": 0.0,
            "p999": 0.0,
            "mean": 0.0,
            "max": 0.0,
        }
    return {
        "count": len(values),
        "p50": percentile(values, 50.0),
        "p99": percentile(values, 99.0),
        "p999": percentile(values, 99.9),
        "mean": sum(values) / len(values),
        "max": max(values),
    }


def speedup_vs_suboptimal(totals: Dict[str, float], best: str) -> float:
    """``best``'s advantage over the best of the others.

    ``totals`` maps scheme -> a *lower-is-better* metric (e.g. recovery
    seconds).  Returns ``suboptimal / best`` — the paper's "reduces the
    recovery time by N× compared with sub-optimal approaches".
    """
    if best not in totals:
        raise ConfigError(f"unknown scheme {best!r}")
    others = [v for name, v in totals.items() if name != best]
    if not others:
        raise ConfigError("need at least two schemes to compare")
    if totals[best] <= 0:
        raise ConfigError("metric must be positive")
    return min(others) / totals[best]


def crossover(a: Points, b: Points) -> Optional[float]:
    """The x where series ``a`` overtakes series ``b`` (or vice versa).

    Both series must share the same x grid.  Returns the linearly
    interpolated x of the first sign change of ``a - b``, or ``None``
    if one series dominates throughout.
    """
    if [x for x, _ in a] != [x for x, _ in b]:
        raise ConfigError("series must share the same x grid")
    if not a:
        return None
    diffs = [(x, ya - yb) for (x, ya), (_x, yb) in zip(a, b)]
    for (x0, d0), (x1, d1) in zip(diffs, diffs[1:]):
        if d0 == 0:
            return x0
        if (d0 < 0) != (d1 < 0):
            # Linear interpolation of the zero crossing.
            return x0 + (x1 - x0) * (abs(d0) / (abs(d0) + abs(d1)))
    if diffs[-1][1] == 0:
        return diffs[-1][0]
    return None


def scaling_efficiency(points: Points) -> float:
    """Parallel efficiency at the largest core count.

    ``points`` are (cores, throughput); efficiency is the achieved
    speedup over the 1-point divided by the ideal (core ratio).
    """
    if len(points) < 2:
        raise ConfigError("need at least two core counts")
    ordered = sorted(points)
    c0, t0 = ordered[0]
    c1, t1 = ordered[-1]
    if t0 <= 0 or c0 <= 0:
        raise ConfigError("cores and throughput must be positive")
    return (t1 / t0) / (c1 / c0)
