"""Slow, plain re-implementations the tests check the library against.

Everything here is spelled out with basic loops straight from the
definitions (normalize by the max, 3x3 blocks, spread ratio, center
weight, loop contours, -mu*G*ln G), deliberately sharing no code with
the package. _smo_pair is the SVM's per-pair solver as it stood before
the package solved every pair in lockstep, kept verbatim as the
reference the lockstep solver must match bit for bit. parse_pgm is the
PGM decoder as it stood before the package decoded a P2 raster in one
numpy pass (a bytes.split and an int() per token), kept verbatim with
its helpers as the reference the numpy pass must match exactly: pixels,
or exception type, message and offset.
"""

from __future__ import annotations

import math
import re
from typing import Iterator

import numpy as np

try:
    from nblgc.image_io import MAX_GRAY_LIMIT, PgmParseError, RawImage
except ModuleNotFoundError:  # perfbench loads this file without the package and calls no decoder
    pass


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


_WHITESPACE = b" \t\n\r\x0b\x0c"
_COMMENT = re.compile(rb"#[^\r\n]*")
# a comment, or a token: a run of bytes that are neither whitespace nor #
_TOKEN = re.compile(_COMMENT.pattern + rb"|([^ \t\n\r\x0b\x0c#]+)")


def _tokens(data: bytes, pos: int) -> Iterator[re.Match]:
    """Tokens of data from pos on, found lazily; comments are skipped."""
    return (m for m in _TOKEN.finditer(data, pos) if m[1])


def _uint(token: re.Match, what: str) -> int:
    text = token[1]
    if not text.isdigit():
        raise PgmParseError(f"non-numeric {what} token {text!r}", token.start())
    try:
        return int(text)
    except ValueError:  # more digits than int() converts (4300 by default)
        raise PgmParseError(f"{what} token of {len(text)} digits is too long", token.start()) from None


def parse_pgm(data: bytes) -> RawImage:
    """Decode P2 (ASCII) or P5 (binary) PGM bytes into a RawImage.

    Comments (# to end of line) may appear anywhere whitespace may, and
    a # ends a token. A P5 raster follows exactly one whitespace byte.
    Raises PgmParseError naming the byte offset for malformed magic,
    non-numeric or overlong tokens, truncated pixel data, out-of-range
    max_gray, and pixel values exceeding the declared maximum.
    """
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"malformed magic number {magic!r}", 0)
    if data[2:3] not in _WHITESPACE + b"#":
        raise PgmParseError(f"malformed magic number {data[:3]!r}", 0)
    tokens = _tokens(data, 2)

    def header(what: str) -> tuple[int, re.Match]:
        token = next(tokens, None)
        if token is None:
            raise PgmParseError(f"truncated input, missing {what}", len(data))
        return _uint(token, what), token

    width, w_tok = header("width")
    height, h_tok = header("height")
    if width < 1:
        raise PgmParseError("width must be at least 1", w_tok.start())
    if height < 1:
        raise PgmParseError("height must be at least 1", h_tok.start())
    max_gray, mg_tok = header("max_gray")
    if not 1 <= max_gray <= MAX_GRAY_LIMIT:
        raise PgmParseError(f"max_gray {max_gray} outside [1, {MAX_GRAY_LIMIT}]", mg_tok.start())

    end = mg_tok.end()
    count = width * height
    if magic == b"P2":
        # maxsplit clamped: a huge header on a short file allocates nothing
        raster = _COMMENT.sub(b" ", data[end:]).split(None, min(count, len(data)))[:count]
        try:
            values = list(map(int, raster)) if b"".join(raster).isdigit() else []
        except ValueError:  # a token of more digits than int() converts
            values = []
        if len(values) == count and max(values) <= max_gray:
            return RawImage(width, height, max_gray, values)
        # the raster is bad: walk it again to name the first bad token
        for _, token in zip(range(count), _tokens(data, end)):
            value = _uint(token, "raster value")
            if value > max_gray:
                raise PgmParseError(f"pixel value {value} exceeds max_gray {max_gray}", token.start())
        raise PgmParseError("truncated pixel data", len(data))

    # P5: exactly one separator byte after max_gray (a # there is an error), then the raster
    if end >= len(data) or data[end] not in _WHITESPACE:
        raise PgmParseError("truncated pixel data", end)
    start = end + 1
    two_byte = max_gray > 255
    need = count * (2 if two_byte else 1)
    if len(data) - start < need:
        raise PgmParseError("truncated pixel data", len(data))
    raw = data[start : start + need]
    # RawImage copies the raster to native uint16
    values = np.frombuffer(raw, dtype=">u2" if two_byte else np.uint8)
    if int(values.max()) > max_gray:
        bad = int(np.argmax(values > max_gray))
        offset = start + bad * (2 if two_byte else 1)
        raise PgmParseError(
            f"pixel value {int(values[bad])} exceeds max_gray {max_gray}", offset
        )
    return RawImage(width, height, max_gray, values)
