"""Zipfian generator: bounds, determinism, skew behaviour."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.zipf import ZipfianGenerator


def _draw(n, theta, count, seed=0):
    gen = ZipfianGenerator(n, theta, random.Random(seed))
    return [gen.next() for _ in range(count)]


class TestBasics:
    def test_samples_within_range(self):
        for value in _draw(100, 0.9, 2000):
            assert 0 <= value < 100

    def test_deterministic_for_same_seed(self):
        assert _draw(50, 0.7, 500, seed=3) == _draw(50, 0.7, 500, seed=3)

    def test_different_seeds_differ(self):
        assert _draw(50, 0.7, 500, seed=1) != _draw(50, 0.7, 500, seed=2)

    def test_single_item_space(self):
        assert set(_draw(1, 0.9, 50)) == {0}

    def test_invalid_parameters_rejected(self):
        rng = random.Random(0)
        with pytest.raises(WorkloadError):
            ZipfianGenerator(0, 0.5, rng)
        with pytest.raises(WorkloadError):
            ZipfianGenerator(10, -0.1, rng)


class TestSkew:
    def test_zero_theta_is_roughly_uniform(self):
        counts = Counter(_draw(10, 0.0, 20_000))
        for key in range(10):
            assert counts[key] == pytest.approx(2000, rel=0.25)

    def test_higher_theta_concentrates_on_hot_keys(self):
        def hottest_share(theta):
            counts = Counter(_draw(100, theta, 20_000))
            return counts.most_common(1)[0][1] / 20_000

        assert hottest_share(0.0) < hottest_share(0.5) < hottest_share(0.99)

    def test_hot_key_is_item_zero_under_high_skew(self):
        counts = Counter(_draw(100, 0.99, 20_000))
        assert counts.most_common(1)[0][0] == 0

    def test_theta_clamped_below_one(self):
        # theta >= 1 must not blow up; it behaves like extreme skew.
        values = _draw(50, 1.5, 1000)
        assert all(0 <= v < 50 for v in values)


@given(
    n=st.integers(min_value=1, max_value=500),
    theta=st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=100, deadline=None)
def test_property_samples_always_in_range(n, theta, seed):
    gen = ZipfianGenerator(n, theta, random.Random(seed))
    for _ in range(50):
        assert 0 <= gen.next() < n
