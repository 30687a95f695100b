import math

import numpy as np
import pytest

from conftest import random_window
from nblgc import (
    FuzzifierRef,
    GrayImage,
    block_values,
    center_memberships,
    fuzzifiers,
    reference_values,
)

REFS = list(FuzzifierRef)


def window(center, ring):
    return np.array([[center, *ring]])


def spread(w, ref=FuzzifierRef.AVERAGE):
    return fuzzifiers(w, ref)[0]


def membership(w, ref=FuzzifierRef.AVERAGE):
    return center_memberships(w, ref)[0]


class TestWindow:
    def test_values_order_center_first(self):
        grid = np.array([[0.1, 0.2, 0.3], [0.9, 0.5, 0.4], [0.8, 0.7, 0.6]])
        assert block_values(GrayImage(grid)).tolist() == [[0.5, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]]


class TestReference:
    def test_statistics(self):
        w = window(0.9, (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7))
        assert reference_values(w, FuzzifierRef.MAXIMUM)[0] == 0.9
        assert reference_values(w, FuzzifierRef.MINIMUM)[0] == 0.0
        assert reference_values(w, FuzzifierRef.AVERAGE)[0] == pytest.approx(3.7 / 9, rel=1e-15)

    def test_from_string(self):
        assert FuzzifierRef.from_string(" AVG ") is FuzzifierRef.AVERAGE
        assert FuzzifierRef.from_string("max") is FuzzifierRef.MAXIMUM
        with pytest.raises(ValueError, match="unknown reference"):
            FuzzifierRef.from_string("mean")


class TestFuzzifier:
    def test_constant_window_degenerates(self):
        w = window(0.4, (0.4,) * 8)
        for ref in REFS:
            assert spread(w, ref) == 0.0
            assert membership(w, ref) == 0.0

    def test_symmetric_window_hand_value(self):
        # four values 0.1 below the mean, four 0.1 above, center on it:
        # spread collapses to exactly 0.1 and the center weight to 3.0
        w = window(0.3, (0.2, 0.4, 0.2, 0.4, 0.2, 0.4, 0.2, 0.4))
        assert spread(w) == pytest.approx(0.1, rel=1e-12)
        assert membership(w) == pytest.approx(3.0, rel=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            w = random_window(rng)
            vals = w[0]
            for ref in REFS:
                r = {
                    FuzzifierRef.AVERAGE: vals.mean(),
                    FuzzifierRef.MAXIMUM: vals.max(),
                    FuzzifierRef.MINIMUM: vals.min(),
                }[ref]
                d = r - vals
                expected = math.sqrt((d**4).sum() / (d**2).sum()) if (d**2).sum() else 0.0
                assert spread(w, ref) == pytest.approx(expected, rel=1e-12)

    def test_bounded_by_max_deviation(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            w = random_window(rng)
            for ref in REFS:
                r = reference_values(w, ref)[0]
                max_dev = max(abs(v - r) for v in w[0])
                assert spread(w, ref) <= max_dev + 1e-15

    def test_shift_invariance_average_ref(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            w = random_window(rng, hi=0.5)
            c = float(rng.uniform(0.0, 0.5))
            assert spread(w + c) == pytest.approx(spread(w), rel=1e-11, abs=1e-14)

    def test_scales_linearly(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            w = random_window(rng)
            s = float(rng.uniform(0.1, 1.0))
            for ref in REFS:
                assert spread(w * s, ref) == pytest.approx(s * spread(w, ref), rel=1e-12)


class TestCenterMembership:
    def test_zero_when_center_zero(self):
        w = window(0.0, (0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6))
        assert membership(w) == 0.0

    def test_matches_ratio(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            w = random_window(rng)
            for ref in REFS:
                fh = spread(w, ref)
                expected = w[0, 0] / fh if fh else 0.0
                assert membership(w, ref) == pytest.approx(expected, rel=1e-15)

    def test_scale_invariant_average_ref(self):
        rng = np.random.default_rng(60)
        for _ in range(300):
            w = random_window(rng, hi=0.1)
            s = float(rng.uniform(0.1, 10.0))
            base = membership(w)
            if base == 0.0:
                continue
            assert membership(w * s) == pytest.approx(base, rel=1e-10)
