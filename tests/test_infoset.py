import math

import numpy as np
import pytest

from conftest import random_window
from nblgc import (
    FuzzifierRef,
    Window3x3,
    fuzzifier,
    membership_center,
    reference_value,
)

REFS = list(FuzzifierRef)


def scaled(window, s):
    return Window3x3(window.center * s, tuple(v * s for v in window.ring))


def shifted(window, c):
    return Window3x3(window.center + c, tuple(v + c for v in window.ring))


class TestWindow:
    def test_values_order_center_first(self):
        w = Window3x3(0.5, (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9))
        assert w.values == (0.5, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9)

    def test_ring_must_have_eight(self):
        with pytest.raises(ValueError, match="exactly 8"):
            Window3x3(0.5, (0.1,) * 7)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_values_must_be_unit_range(self, bad):
        with pytest.raises(ValueError, match="outside"):
            Window3x3(bad, (0.5,) * 8)


class TestReference:
    def test_statistics(self):
        w = Window3x3(0.9, (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7))
        assert reference_value(w, FuzzifierRef.MAXIMUM) == 0.9
        assert reference_value(w, FuzzifierRef.MINIMUM) == 0.0
        assert reference_value(w, FuzzifierRef.AVERAGE) == pytest.approx(3.7 / 9, rel=1e-15)

    def test_from_string(self):
        assert FuzzifierRef.from_string(" AVG ") is FuzzifierRef.AVERAGE
        assert FuzzifierRef.from_string("max") is FuzzifierRef.MAXIMUM
        with pytest.raises(ValueError, match="unknown reference"):
            FuzzifierRef.from_string("mean")


class TestFuzzifier:
    def test_constant_window_degenerates(self):
        w = Window3x3(0.4, (0.4,) * 8)
        for ref in REFS:
            assert fuzzifier(w, ref) == 0.0
            assert membership_center(w, ref) == 0.0

    def test_symmetric_window_hand_value(self):
        # four values 0.1 below the mean, four 0.1 above, center on it:
        # spread collapses to exactly 0.1 and the center weight to 3.0
        w = Window3x3(0.3, (0.2, 0.4, 0.2, 0.4, 0.2, 0.4, 0.2, 0.4))
        assert fuzzifier(w) == pytest.approx(0.1, rel=1e-12)
        assert membership_center(w) == pytest.approx(3.0, rel=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            w = random_window(rng)
            vals = np.array(w.values)
            for ref in REFS:
                r = {
                    FuzzifierRef.AVERAGE: vals.mean(),
                    FuzzifierRef.MAXIMUM: vals.max(),
                    FuzzifierRef.MINIMUM: vals.min(),
                }[ref]
                d = r - vals
                expected = math.sqrt((d**4).sum() / (d**2).sum()) if (d**2).sum() else 0.0
                assert fuzzifier(w, ref) == pytest.approx(expected, rel=1e-12)

    def test_bounded_by_max_deviation(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            w = random_window(rng)
            for ref in REFS:
                r = reference_value(w, ref)
                max_dev = max(abs(v - r) for v in w.values)
                assert fuzzifier(w, ref) <= max_dev + 1e-15

    def test_shift_invariance_average_ref(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            w = random_window(rng, hi=0.5)
            c = float(rng.uniform(0.0, 0.5))
            assert fuzzifier(shifted(w, c)) == pytest.approx(fuzzifier(w), rel=1e-11, abs=1e-14)

    def test_scales_linearly(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            w = random_window(rng)
            s = float(rng.uniform(0.1, 1.0))
            for ref in REFS:
                assert fuzzifier(scaled(w, s), ref) == pytest.approx(
                    s * fuzzifier(w, ref), rel=1e-12
                )


class TestCenterMembership:
    def test_zero_when_center_zero(self):
        w = Window3x3(0.0, (0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6))
        assert membership_center(w) == 0.0

    def test_matches_ratio(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            w = random_window(rng)
            for ref in REFS:
                fh = fuzzifier(w, ref)
                expected = w.center / fh if fh else 0.0
                assert membership_center(w, ref) == pytest.approx(expected, rel=1e-15)

    def test_scale_invariant_average_ref(self):
        rng = np.random.default_rng(60)
        for _ in range(300):
            w = random_window(rng, hi=0.1)
            s = float(rng.uniform(0.1, 10.0))
            base = membership_center(w)
            if base == 0.0:
                continue
            assert membership_center(scaled(w, s)) == pytest.approx(base, rel=1e-10)
