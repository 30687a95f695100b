import numpy as np
import pytest

from conftest import g2_halves, random_window
from nblgc import ContourVariant, contours
from oracles import naive_contour

G1, G2, G3 = ContourVariant.G1, ContourVariant.G2, ContourVariant.G3


def ring_window(ring, center=0.5):
    return np.array([[center, *ring]])


def g(w, variant):
    return contours(w, variant)[0]


def halves(w):
    g20, g21 = g2_halves(w)
    return g20[0], g21[0]


STAIR = ring_window([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])


class TestHandValues:
    def test_single_loop(self):
        assert g(STAIR, G1) == pytest.approx(1.4, rel=1e-12)

    def test_double_loop(self):
        g20, g21 = halves(STAIR)
        g2 = g(STAIR, G2)
        assert g20 == pytest.approx(1.2, rel=1e-12)
        assert g21 == pytest.approx(1.2, rel=1e-12)
        assert g2 == pytest.approx(2.4, rel=1e-12)
        assert g2 == g20 + g21

    def test_triple_loop(self):
        assert g(STAIR, G3) == pytest.approx(3.0, rel=1e-12)

    def test_constant_ring_is_zero(self):
        w = ring_window([0.3] * 8)
        assert g(w, G1) == 0.0
        assert (*halves(w), g(w, G2)) == (0.0, 0.0, 0.0)
        assert g(w, G3) == 0.0

    def test_alternating_ring_extremes(self):
        w = ring_window([0.0, 1.0] * 4)
        assert g(w, G1) == 8.0
        # both stride-2 sub-loops see constant values
        assert (*halves(w), g(w, G2)) == (0.0, 0.0, 0.0)
        assert g(w, G3) == 8.0


class TestAgainstOracle:
    def test_matches_loop_definitions(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            w = random_window(rng)
            ring = w[0, 1:].tolist()
            assert g(w, G1) == pytest.approx(naive_contour(ring, "g1"), rel=1e-12, abs=1e-15)
            assert g(w, G2) == pytest.approx(naive_contour(ring, "g2"), rel=1e-12, abs=1e-15)
            assert g(w, G3) == pytest.approx(naive_contour(ring, "g3"), rel=1e-12, abs=1e-15)


class TestProperties:
    def test_invariants_on_random_windows(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            w = random_window(rng, hi=0.5)
            g1, g2, g3 = g(w, G1), g(w, G2), g(w, G3)
            g20, g21 = halves(w)
            for value in (g1, g20, g21, g2, g3):
                assert 0.0 <= value <= 8.0
            assert g2 == g20 + g21
            # each stride-2 difference is bounded by two adjacent ones
            assert g20 <= g1 + 1e-12
            assert g21 <= g1 + 1e-12
            # shift every pixel: differences unchanged
            c = float(rng.uniform(0.0, 0.5))
            shifted = ring_window(w[0, 1:] + c, w[0, 0])
            assert g(shifted, G1) == pytest.approx(g1, rel=1e-11, abs=1e-14)
            assert g(shifted, G3) == pytest.approx(g3, rel=1e-11, abs=1e-14)
            # scale every pixel: contours scale along
            s = float(rng.uniform(0.1, 1.0))
            scaled = ring_window(w[0, 1:] * s, w[0, 0])
            assert g(scaled, G1) == pytest.approx(s * g1, rel=1e-12, abs=1e-15)
            assert g(scaled, G2) == pytest.approx(s * g2, rel=1e-12, abs=1e-15)
            assert g(scaled, G3) == pytest.approx(s * g3, rel=1e-12, abs=1e-15)

    def test_center_never_contributes(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            w = random_window(rng)
            other = ring_window(w[0, 1:], 1.0 - w[0, 0])
            assert g(other, G1) == g(w, G1)
            assert (*halves(other), g(other, G2)) == (*halves(w), g(w, G2))
            assert g(other, G3) == g(w, G3)

    def test_rotation_swaps_double_loop_halves(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            w = random_window(rng)
            rot = ring_window(np.roll(w[0, 1:], -1), w[0, 0])
            assert g(rot, G1) == pytest.approx(g(w, G1), rel=1e-12, abs=1e-15)
            assert g(rot, G3) == pytest.approx(g(w, G3), rel=1e-12, abs=1e-15)
            g20, g21 = halves(w)
            r20, r21 = halves(rot)
            assert r20 == pytest.approx(g21, rel=1e-12, abs=1e-15)
            assert r21 == pytest.approx(g20, rel=1e-12, abs=1e-15)

    def test_zero_only_for_loop_constant_ring(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            w = random_window(rng)
            if len(set(w[0, 1:])) > 1:
                assert g(w, G1) > 0.0
                assert g(w, G3) > 0.0


class TestDispatch:
    def test_variant_selects_its_loop(self):
        # the three loops differ on STAIR, so each variant must pick its own
        ring = STAIR[0, 1:].tolist()
        for variant in ContourVariant:
            assert g(STAIR, variant) == pytest.approx(naive_contour(ring, variant.value), rel=1e-12)

    def test_variant_from_string(self):
        assert ContourVariant.from_string("G2") is ContourVariant.G2
        with pytest.raises(ValueError, match="unknown contour variant"):
            ContourVariant.from_string("g4")
