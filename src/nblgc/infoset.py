"""Fuzzifier and center membership over 3x3 pixel windows.

The fuzzifier measures a window's spread around a reference value (the
window average, maximum, or minimum): the square root of the ratio of
summed fourth-power deviations to summed squared deviations, over all
nine values. The center membership divides the center pixel by the
fuzzifier and is the weight the feature stage applies per block.

Each step is computed over a block array of shape (n_blocks, 9) whose
columns are the center pixel, then the ring clockwise from the top-left:
top-left, top-center, top-right, middle-right, bottom-right,
bottom-center, bottom-left, middle-left.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


def member_from_string(cls: type[Enum], name: str, noun: str):
    """The member of cls whose value is name, ignoring case and outer spaces; else ValueError."""
    try:
        return cls(name.strip().lower())
    except ValueError:
        choices = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown {noun} {name!r}; choose one of {choices}") from None


class FuzzifierRef(Enum):
    """Reference statistic the deviations are taken against."""

    AVERAGE = "avg"
    MAXIMUM = "max"
    MINIMUM = "min"

    @classmethod
    def from_string(cls, name: str) -> "FuzzifierRef":
        return member_from_string(cls, name, "reference")


def row_sums(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis, adding terms left to right one at a time:
    the order a plain loop adds them (np.sum pairs them)."""
    return np.add.accumulate(terms, axis=-1)[..., -1]


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
