import numpy as np
import pytest

from conftest import random_window
from nblgc import (
    ContourVariant,
    Window3x3,
    contour_g1,
    contour_g2,
    contour_g3,
    contour_value,
)
from oracles import naive_contour


def ring_window(ring, center=0.5):
    return Window3x3(center, tuple(ring))


STAIR = ring_window([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])


class TestHandValues:
    def test_single_loop(self):
        assert contour_g1(STAIR) == pytest.approx(1.4, rel=1e-12)

    def test_double_loop(self):
        g20, g21, g2 = contour_g2(STAIR)
        assert g20 == pytest.approx(1.2, rel=1e-12)
        assert g21 == pytest.approx(1.2, rel=1e-12)
        assert g2 == pytest.approx(2.4, rel=1e-12)
        assert g2 == g20 + g21

    def test_triple_loop(self):
        assert contour_g3(STAIR) == pytest.approx(3.0, rel=1e-12)

    def test_constant_ring_is_zero(self):
        w = ring_window([0.3] * 8)
        assert contour_g1(w) == 0.0
        assert contour_g2(w) == (0.0, 0.0, 0.0)
        assert contour_g3(w) == 0.0

    def test_alternating_ring_extremes(self):
        w = ring_window([0.0, 1.0] * 4)
        assert contour_g1(w) == 8.0
        # both stride-2 sub-loops see constant values
        assert contour_g2(w) == (0.0, 0.0, 0.0)
        assert contour_g3(w) == 8.0


class TestAgainstOracle:
    def test_matches_loop_definitions(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            w = random_window(rng)
            ring = list(w.ring)
            assert contour_g1(w) == pytest.approx(naive_contour(ring, "g1"), rel=1e-12, abs=1e-15)
            assert contour_g2(w)[2] == pytest.approx(naive_contour(ring, "g2"), rel=1e-12, abs=1e-15)
            assert contour_g3(w) == pytest.approx(naive_contour(ring, "g3"), rel=1e-12, abs=1e-15)


class TestProperties:
    def test_invariants_on_random_windows(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            w = random_window(rng, hi=0.5)
            g1 = contour_g1(w)
            g20, g21, g2 = contour_g2(w)
            g3 = contour_g3(w)
            for g in (g1, g20, g21, g2, g3):
                assert 0.0 <= g <= 8.0
            assert g2 == g20 + g21
            # each stride-2 difference is bounded by two adjacent ones
            assert g20 <= g1 + 1e-12
            assert g21 <= g1 + 1e-12
            # shift every pixel: differences unchanged
            c = float(rng.uniform(0.0, 0.5))
            shifted = ring_window([v + c for v in w.ring], w.center)
            assert contour_g1(shifted) == pytest.approx(g1, rel=1e-11, abs=1e-14)
            assert contour_g3(shifted) == pytest.approx(g3, rel=1e-11, abs=1e-14)
            # scale every pixel: contours scale along
            s = float(rng.uniform(0.1, 1.0))
            scaled = ring_window([v * s for v in w.ring], w.center)
            assert contour_g1(scaled) == pytest.approx(s * g1, rel=1e-12, abs=1e-15)
            assert contour_g2(scaled)[2] == pytest.approx(s * g2, rel=1e-12, abs=1e-15)
            assert contour_g3(scaled) == pytest.approx(s * g3, rel=1e-12, abs=1e-15)

    def test_center_never_contributes(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            w = random_window(rng)
            other = Window3x3(1.0 - w.center, w.ring)
            assert contour_g1(other) == contour_g1(w)
            assert contour_g2(other) == contour_g2(w)
            assert contour_g3(other) == contour_g3(w)

    def test_rotation_swaps_double_loop_halves(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            w = random_window(rng)
            rot = ring_window(list(w.ring[1:]) + [w.ring[0]], w.center)
            assert contour_g1(rot) == pytest.approx(contour_g1(w), rel=1e-12, abs=1e-15)
            assert contour_g3(rot) == pytest.approx(contour_g3(w), rel=1e-12, abs=1e-15)
            g20, g21, _ = contour_g2(w)
            r20, r21, _ = contour_g2(rot)
            assert r20 == pytest.approx(g21, rel=1e-12, abs=1e-15)
            assert r21 == pytest.approx(g20, rel=1e-12, abs=1e-15)

    def test_zero_only_for_loop_constant_ring(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            w = random_window(rng)
            if len(set(w.ring)) > 1:
                assert contour_g1(w) > 0.0
                assert contour_g3(w) > 0.0


class TestDispatch:
    def test_contour_value_selects(self):
        assert contour_value(STAIR, ContourVariant.G1) == contour_g1(STAIR)
        assert contour_value(STAIR, ContourVariant.G2) == contour_g2(STAIR)[2]
        assert contour_value(STAIR, ContourVariant.G3) == contour_g3(STAIR)

    def test_variant_from_string(self):
        assert ContourVariant.from_string("G2") is ContourVariant.G2
        with pytest.raises(ValueError, match="unknown contour variant"):
            ContourVariant.from_string("g4")
