"""Fuzzifier, center membership and gradient contours over 3x3 pixel windows.

The fuzzifier measures a window's spread around a reference value (the
window average, maximum, or minimum): the square root of the ratio of
summed fourth-power deviations to summed squared deviations, over all
nine values. The center membership divides the center pixel by the
fuzzifier and is the weight the feature stage applies per block.

Each contour sums absolute gray-level differences along closed loops
over the window's 8-pixel ring; the center pixel never participates.
The single loop (g1) walks adjacent ring pixels. The double loop (g2)
is the sum of two interleaved stride-2 loops: g20 over the even ring
positions (the corners) and g21 over the odd ones (the edge
midpoints). The triple loop (g3) strides by 3 and visits every ring
pixel exactly once.

Each step is computed over a block array of shape (n_blocks, 9) whose
columns are the center pixel, then the ring clockwise from the top-left:
top-left, top-center, top-right, middle-right, bottom-right,
bottom-center, bottom-left, middle-left. Ring index i is column i + 1.
"""

from __future__ import annotations

import numpy as np

from .options import ContourVariant, FuzzifierRef


def row_sums(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis, adding terms left to right one at a time:
    the order a plain loop adds them (np.sum pairs them)."""
    total = terms[..., 0].copy()
    for j in range(1, terms.shape[-1]):
        total += terms[..., j]
    return total


def reference_values(blocks: np.ndarray, ref: FuzzifierRef = FuzzifierRef.AVERAGE) -> np.ndarray:
    """Reference gray level of each row of an (n_blocks, 9) block array."""
    if ref is FuzzifierRef.AVERAGE:
        return row_sums(blocks) / 9.0
    if ref is FuzzifierRef.MAXIMUM:
        return blocks.max(axis=1)
    return blocks.min(axis=1)


def fuzzifiers(blocks: np.ndarray, ref: FuzzifierRef = FuzzifierRef.AVERAGE) -> np.ndarray:
    """Spread of each block's nine values around its reference.

    sqrt(sum(d^4) / sum(d^2)) over deviations d = reference - value.
    Zero for a constant block (every deviation vanishes).
    """
    d2 = np.square(reference_values(blocks, ref)[:, None] - blocks)
    sum_sq = row_sums(d2)
    sum_quad = row_sums(d2 * d2)
    # the averaging reference is not exact in floating point, so a
    # constant block needs catching apart from its deviations
    spread = (blocks.max(axis=1) > blocks.min(axis=1)) & (sum_sq != 0.0)
    return np.sqrt(np.divide(sum_quad, sum_sq, out=np.zeros(len(blocks)), where=spread))


def center_memberships(blocks: np.ndarray, ref: FuzzifierRef = FuzzifierRef.AVERAGE) -> np.ndarray:
    """Center value over the fuzzifier per block; zero for a constant block.

    Invariant under uniform scaling of the whole block when the
    reference is the block average (both scale linearly).
    """
    fh = fuzzifiers(blocks, ref)
    return np.divide(blocks[:, 0], fh, out=np.zeros(len(fh)), where=fh != 0.0)


def _columns(pairs):
    # (a, b) ring index pairs as two column index arrays of a block array
    a, b = np.moveaxis(np.array(pairs), -1, 0) + 1
    return a, b


# each loop term is |ring[a] - ring[b]|, added in pair order
_G1 = _columns(((7, 0), (6, 7), (5, 6), (4, 5), (3, 4), (2, 3), (1, 2), (0, 1)))
_G3 = _columns(((5, 0), (2, 5), (7, 2), (4, 7), (1, 4), (6, 1), (3, 6), (0, 3)))
# one row per stride-2 loop: g20 over the corners, g21 over the edge midpoints
_G2 = _columns((((6, 0), (4, 6), (2, 4), (0, 2)), ((7, 1), (5, 7), (3, 5), (1, 3))))


def _loop(blocks: np.ndarray, columns) -> np.ndarray:
    a, b = columns
    return row_sums(np.abs(blocks[:, a] - blocks[:, b]))


def contours(blocks: np.ndarray, variant: ContourVariant) -> np.ndarray:
    """The variant's contour value of each block row (g2 = g20 + g21)."""
    if variant is ContourVariant.G1:
        return _loop(blocks, _G1)
    if variant is ContourVariant.G2:
        return _loop(blocks, _G2).sum(axis=1)
    return _loop(blocks, _G3)
