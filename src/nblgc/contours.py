"""Non-binary gradient contours over the 8-pixel ring of a 3x3 window.

Each contour sums absolute gray-level differences along closed loops
over the ring; the center pixel never participates. The single loop
(g1) walks adjacent ring pixels. The double loop (g2) is the sum of
two interleaved stride-2 loops: g20 over the even ring positions (the
corners) and g21 over the odd ones (the edge midpoints). The triple
loop (g3) strides by 3 and visits every ring pixel exactly once.

Contours are computed over an (n_blocks, 9) block array in
Window3x3.values order, where ring index i is column i + 1; the
Window3x3 functions run the same code on one row.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .infoset import Window3x3, member_from_string, row_sums


def _columns(pairs):
    # (a, b) ring index pairs as two column index arrays of a block array
    a, b = np.moveaxis(np.array(pairs), -1, 0) + 1
    return a, b


# each loop term is |ring[a] - ring[b]|, added in pair order
_G1 = _columns(((7, 0), (6, 7), (5, 6), (4, 5), (3, 4), (2, 3), (1, 2), (0, 1)))
_G3 = _columns(((5, 0), (2, 5), (7, 2), (4, 7), (1, 4), (6, 1), (3, 6), (0, 3)))
# one row per stride-2 loop: g20 over the corners, g21 over the edge midpoints
_G2 = _columns((((6, 0), (4, 6), (2, 4), (0, 2)), ((7, 1), (5, 7), (3, 5), (1, 3))))


class ContourVariant(Enum):
    """Which loop's contour value feeds the block feature."""

    G1 = "g1"
    G2 = "g2"
    G3 = "g3"

    @classmethod
    def from_string(cls, name: str) -> "ContourVariant":
        return member_from_string(cls, name, "contour variant")


def _loop(blocks: np.ndarray, columns) -> np.ndarray:
    a, b = columns
    return row_sums(np.abs(blocks[:, a] - blocks[:, b]))


def _double_loop(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    halves = _loop(blocks, _G2)
    return halves[:, 0], halves[:, 1], halves[:, 0] + halves[:, 1]


def contours(blocks: np.ndarray, variant: ContourVariant) -> np.ndarray:
    """The variant's contour value of each block row (g2 = g20 + g21)."""
    if variant is ContourVariant.G1:
        return _loop(blocks, _G1)
    if variant is ContourVariant.G2:
        return _double_loop(blocks)[2]
    return _loop(blocks, _G3)


def contour_value(window: Window3x3, variant: ContourVariant) -> float:
    """The contour value selected by the variant (g2 = g20 + g21)."""
    return float(contours(window.as_row(), variant)[0])


def contour_g1(window: Window3x3) -> float:
    """Single loop: absolute differences of adjacent ring pixels."""
    return contour_value(window, ContourVariant.G1)


def contour_g2(window: Window3x3) -> tuple[float, float, float]:
    """Double loop: (g20, g21, g20 + g21).

    g20 runs over ring positions 0,2,4,6; g21 over 1,3,5,7.
    """
    g20, g21, g2 = _double_loop(window.as_row())
    return float(g20[0]), float(g21[0]), float(g2[0])


def contour_g3(window: Window3x3) -> float:
    """Triple loop: stride-3 walk visiting every ring pixel once."""
    return contour_value(window, ContourVariant.G3)
