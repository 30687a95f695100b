"""Slow, plain re-implementations the tests check the library against.

Everything here is spelled out with basic loops straight from the
definitions (normalize by the max, 3x3 blocks, spread ratio, center
weight, loop contours, -mu*G*ln G), deliberately sharing no code with
the package. _smo_pair is the SVM's per-pair solver as it stood before
the package solved every pair in lockstep, kept verbatim as the
reference the lockstep solver must match bit for bit.
"""

import math

import numpy as np


def naive_normalize(pixels):
    peak = max(pixels)
    if peak == 0:
        return [0.0 for _ in pixels]
    return [p / peak for p in pixels]


def naive_contour(ring, variant):
    if variant == "g1":
        return sum(abs(ring[(i + 1) % 8] - ring[i]) for i in range(8))
    if variant == "g2":
        even = ring[0::2]
        odd = ring[1::2]
        g20 = sum(abs(even[(i + 1) % 4] - even[i]) for i in range(4))
        g21 = sum(abs(odd[(i + 1) % 4] - odd[i]) for i in range(4))
        return g20 + g21
    if variant == "g3":
        return sum(abs(ring[(i + 3) % 8] - ring[i]) for i in range(8))
    raise ValueError(variant)


def naive_window_feature(rows, variant, ref):
    """rows: three lists of three normalized values (top, middle, bottom)."""
    vals = [v for row in rows for v in row]
    center = rows[1][1]
    ring = [
        rows[0][0], rows[0][1], rows[0][2],
        rows[1][2],
        rows[2][2], rows[2][1], rows[2][0],
        rows[1][0],
    ]
    if ref == "avg":
        r = sum(vals) / 9.0
    elif ref == "max":
        r = max(vals)
    elif ref == "min":
        r = min(vals)
    else:
        raise ValueError(ref)
    s2 = sum((r - v) ** 2 for v in vals)
    s4 = sum((r - v) ** 4 for v in vals)
    fh = math.sqrt(s4 / s2) if s2 > 0 else 0.0
    mu = center / fh if fh > 0 else 0.0
    g = naive_contour(ring, variant)
    if mu == 0.0 or g == 0.0 or g == 1.0:
        return 0.0
    return -mu * g * math.log(g)


def naive_feature_vector(raw_pixels, width, height, variant, ref):
    """Full chain from raw integer pixels: normalize, tile, one value per block."""
    grid = naive_normalize(list(raw_pixels))
    feats = []
    for block_row in range(height // 3):
        for block_col in range(width // 3):
            rows = []
            for dy in range(3):
                base = (block_row * 3 + dy) * width + block_col * 3
                rows.append(grid[base : base + 3])
            feats.append(naive_window_feature(rows, variant, ref))
    return feats


def _smo_pair(kmat: np.ndarray, y: np.ndarray, c: float, tol: float) -> tuple[np.ndarray, float, int]:
    """SMO with second-order working-set selection on one binary dual.

    Minimizes 0.5 * a.Q.a - sum(a) with Q = (y y^T) * kmat, 0 <= a <= c
    and y.a = 0 (Fan, Chen & Lin, JMLR 2005, as in LIBSVM). Each step
    takes the maximal violator i, the partner j that gains most by a
    second-order estimate, and the exact clipped optimum along that
    pair. It stops when the violation gap m(a) - M(a) is at most tol,
    when a step moves nothing, or after 1000 * m steps for m samples,
    so tol=0 ends too. Ties go to the lowest index: no randomness.
    Returns (alphas, bias, steps); the bias is the mean over free
    multipliers, else the midpoint of the bounds.
    """
    m = len(y)
    pos = y > 0
    diag = np.diag(kmat)
    alphas = np.zeros(m)
    grad = -np.ones(m)  # gradient Q.a - 1
    steps = 0
    while steps < 1000 * m:
        score = -y * grad
        up = np.where(pos, alphas < c, alphas > 0.0)
        low = np.where(pos, alphas > 0.0, alphas < c)
        i = int(np.argmax(np.where(up, score, -np.inf)))
        gain = score[i] - score  # > 0 where t violates with i
        if gain[low].max() <= tol:
            break
        curve = np.maximum(diag[i] + diag - 2.0 * kmat[i], 1e-12)
        j = int(np.argmax(np.where(low & (gain > 0.0), gain * gain / curve, -np.inf)))
        room_i = c - alphas[i] if pos[i] else alphas[i]
        room_j = alphas[j] if pos[j] else c - alphas[j]
        step = min(gain[j] / curve[j], room_i, room_j)
        new_i = (c if pos[i] else 0.0) if step == room_i else alphas[i] + y[i] * step
        new_j = (0.0 if pos[j] else c) if step == room_j else alphas[j] - y[j] * step
        if new_i == alphas[i] and new_j == alphas[j]:
            break
        grad += y * (y[i] * (new_i - alphas[i]) * kmat[i] + y[j] * (new_j - alphas[j]) * kmat[j])
        alphas[i], alphas[j] = new_i, new_j
        steps += 1
    signed = y * grad
    free = (alphas > 0.0) & (alphas < c)
    if free.any():
        return alphas, -float(signed[free].mean()), steps
    # no free multiplier: the bias lies between these bounds (LIBSVM's rho)
    only_up = np.where(pos, alphas == 0.0, alphas == c)
    return alphas, -0.5 * float(signed[only_up].min() + signed[~only_up].max()), steps
