"""Seedable Zipfian key generator (Gray et al. / YCSB construction).

The paper models state-access skewness with a Zipfian distribution
(§VI-B1).  This is the standard O(1)-per-sample generator: item ``i``
(0-based) is drawn with probability proportional to ``1 / (i+1)^theta``.
``theta = 0`` degenerates to uniform; ``theta`` is clamped below 1
(the closed form diverges at 1).
"""

from __future__ import annotations

import random

from repro.errors import WorkloadError

_MAX_THETA = 0.9999


class ZipfianGenerator:
    """Draw ints in ``[0, num_items)`` with Zipfian skew ``theta``."""

    def __init__(self, num_items: int, theta: float, rng: random.Random):
        if num_items < 1:
            raise WorkloadError("num_items must be >= 1")
        if theta < 0:
            raise WorkloadError("theta must be >= 0")
        self._n = num_items
        self._theta = min(theta, _MAX_THETA)
        self._rng = rng
        self._cumulative = None
        if self._theta == 0.0:
            self._uniform = True
            return
        self._uniform = False
        self._zetan = self._zeta(num_items, self._theta)
        if num_items <= 2:
            # The closed-form construction degenerates for tiny spaces
            # (its eta denominator vanishes at n = 2); sample the exact
            # distribution directly instead.
            total = 0.0
            cumulative = []
            for i in range(num_items):
                total += (1.0 / ((i + 1) ** self._theta)) / self._zetan
                cumulative.append(total)
            self._cumulative = cumulative
            return
        zeta2 = self._zeta(2, self._theta)
        self._alpha = 1.0 / (1.0 - self._theta)
        self._eta = (1.0 - (2.0 / num_items) ** (1.0 - self._theta)) / (
            1.0 - zeta2 / self._zetan
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self) -> int:
        if self._uniform or self._n == 1:
            return self._rng.randrange(self._n)
        if self._cumulative is not None:
            u = self._rng.random()
            for index, threshold in enumerate(self._cumulative):
                if u < threshold:
                    return index
            return self._n - 1
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self._theta:
            return 1
        return int(self._n * (self._eta * u - self._eta + 1.0) ** self._alpha)
