"""PGM image I/O, gray-level normalization, resizing, dataset loading.

Reads plain (P2) and binary (P5) PGM files, normalizes raw gray levels
to [0, 1] by the per-image maximum, resizes with bilinear interpolation,
and assembles labeled datasets from a ``root/<class>/<image>.pgm`` tree.
"""

from __future__ import annotations

import re
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .classify import check_label

MAX_GRAY_LIMIT = 65535
MAX_RESIZE_PIXELS = 65536  # a kept 8-byte-per-pixel image is at most 512 KB; 255x255 is the largest square

_WHITESPACE = b" \t\n\r\x0b\x0c"
_COMMENT = re.compile(rb"#[^\r\n]*")
# a comment, or a token: a run of bytes that are neither whitespace nor #
_TOKEN = re.compile(_COMMENT.pattern + rb"|([^ \t\n\r\x0b\x0c#]+)")
# byte -> its digit value, _SPACE for the whitespace bytes, _OTHER for the rest
_SPACE, _OTHER = 10, 11
_BYTE_CLASS = bytes(
    b - 48 if 48 <= b <= 57 else _SPACE if b in _WHITESPACE else _OTHER for b in range(256)
)


class PgmParseError(ValueError):
    """Malformed PGM bytes. ``offset`` is where in the input it went wrong."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte offset {offset}")
        self.offset = offset


class DatasetError(ValueError):
    """A dataset file could not be loaded; message includes the file path."""


@dataclass(frozen=True)
class RawImage:
    """Gray levels exactly as decoded from a PGM file, row-major."""

    width: int
    height: int
    max_gray: int
    pixels: np.ndarray  # 1-D uint16

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if not 1 <= self.max_gray <= MAX_GRAY_LIMIT:
            raise ValueError(f"max_gray must be in [1, {MAX_GRAY_LIMIT}]")
        px = np.array(self.pixels, dtype=np.uint16)  # a copy: the caller's array stays writeable
        if px.ndim != 1 or px.size != self.width * self.height:
            raise ValueError("pixel count does not match width*height")
        if px.size and int(px.max()) > self.max_gray:
            raise ValueError("pixel value exceeds max_gray")
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    def __eq__(self, other):
        if not isinstance(other, RawImage):
            return NotImplemented
        return (self.width, self.height, self.max_gray) == (
            other.width,
            other.height,
            other.max_gray,
        ) and bool(np.array_equal(self.pixels, other.pixels))


@dataclass(frozen=True)
class GrayImage:
    """Normalized image: 2-D float64 grid with every value in [0, 1]."""

    pixels: np.ndarray  # shape (height, width)

    def __post_init__(self):
        px = np.array(self.pixels, dtype=np.float64)  # a copy: the caller's array stays writeable
        if px.ndim != 2 or px.size == 0:
            raise ValueError("pixels must be a non-empty 2-D array")
        if not np.isfinite(px).all():
            raise ValueError("pixels must be finite")
        if float(px.min()) < 0.0 or float(px.max()) > 1.0:
            raise ValueError("pixels must lie in [0, 1]")
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def __eq__(self, other):
        if not isinstance(other, GrayImage):
            return NotImplemented
        return bool(np.array_equal(self.pixels, other.pixels))


@dataclass(frozen=True)
class DatasetEntry:
    """One loaded image with its class label (its directory name)."""

    class_label: str
    image_index: int  # ordinal within the class, load order
    image: GrayImage
    source_path: str


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


def _p2_values(raster: bytes, count: int, max_gray: int) -> np.ndarray | None:
    """The first count tokens of a comment-blanked P2 raster as int64
    values, in one numpy pass over its bytes; None when there are fewer,
    or one is not a decimal number int() converts, or one exceeds max_gray.
    Memory is a few times the raster's bytes, whatever count says.
    """
    v = np.frombuffer(raster.translate(_BYTE_CLASS), np.uint8)
    token = v != _SPACE
    # tokens are the runs of non-whitespace: edges alternate start, end
    edges = np.flatnonzero(np.diff(token, prepend=False, append=False))
    if len(edges) < 2 * count:
        return None
    starts, ends = edges[0 : 2 * count : 2], edges[1 : 2 * count : 2]
    v, token = v[: ends[-1]], token[: ends[-1]]  # bytes after the last needed token stay unread
    if (v == _OTHER).any():
        return None
    length = ends - starts
    longest = int(length.max())
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int()'s digit limit; 0: none, as before 3.10.7
    if limit and longest > limit:
        return None
    values = np.zeros(count, np.int64)
    nonzero = 0  # nonzero digits among the tokens' last five
    for place in reversed(range(min(longest, 5))):  # most significant first
        # a byte left of a token's start is masked out; clip keeps a read in range
        digit = v.take(ends - (1 + place), mode="clip") * (length > place)
        values *= 10
        values += digit
        nonzero += np.count_nonzero(digit)
    # a nonzero digit before a token's last five makes it >= 100000 > MAX_GRAY_LIMIT
    if nonzero < np.count_nonzero(token & (v != 0)) or int(values.max()) > max_gray:
        return None
    return values


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
        values = _p2_values(_COMMENT.sub(b" ", data[end:]), count, max_gray)
        if values is not None:
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


def write_pgm(image: RawImage, binary: bool = False) -> bytes:
    """Serialize a RawImage as P2 (default) or P5 bytes.

    parse_pgm(write_pgm(img)) reproduces img exactly.
    """
    header = f"{'P5' if binary else 'P2'}\n{image.width} {image.height}\n{image.max_gray}\n"
    if binary:
        dtype = ">u2" if image.max_gray > 255 else np.uint8
        return header.encode("ascii") + image.pixels.astype(dtype).tobytes()
    rows = image.pixels.reshape(image.height, image.width)
    body = "\n".join(" ".join(str(int(v)) for v in row) for row in rows)
    return (header + body + "\n").encode("ascii")


def normalize_unit(image: RawImage) -> GrayImage:
    """Divide by the image's own maximum pixel so the brightest pixel is 1.0.

    The header max_gray is deliberately not used. An all-zero image maps
    to all zeros.
    """
    grid = image.pixels.reshape(image.height, image.width).astype(np.float64)
    peak = float(grid.max())
    if peak == 0.0:
        return GrayImage(grid)
    return GrayImage(grid / peak)


def resize_bilinear(image: GrayImage, out_width: int, out_height: int) -> GrayImage:
    """Resize with bilinear interpolation, pixel centers aligned.

    Identity when the target equals the source size (bit-identical).
    """
    if out_width < 1 or out_height < 1:
        raise ValueError("target dimensions must be positive")
    if out_width == image.width and out_height == image.height:
        return image
    src = image.pixels
    xs = (np.arange(out_width) + 0.5) * (image.width / out_width) - 0.5
    ys = (np.arange(out_height) + 0.5) * (image.height / out_height) - 0.5
    xs = np.clip(xs, 0.0, image.width - 1)
    ys = np.clip(ys, 0.0, image.height - 1)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, image.width - 1)
    y1 = np.minimum(y0 + 1, image.height - 1)
    fx = xs - x0
    fy = (ys - y0)[:, None]
    r0, r1 = src[y0], src[y1]
    a0, a1 = r0[:, x0], r1[:, x0]
    # lerp form keeps constants exact: v0 + f*(v1 - v0)
    top = a0 + fx * (r0[:, x1] - a0)
    bottom = a1 + fx * (r1[:, x1] - a1)
    out = top + fy * (bottom - top)
    return GrayImage(np.clip(out, 0.0, 1.0))


def check_resize_target(width: int, height: int) -> tuple[int, int]:
    """(width, height), or ValueError unless both are positive multiples of 3
    (features tile 3x3 blocks) and width * height <= MAX_RESIZE_PIXELS."""
    if width < 3 or height < 3 or width % 3 or height % 3 or width * height > MAX_RESIZE_PIXELS:
        raise ValueError(f"resize target {width}x{height} must be positive multiples of 3, <= {MAX_RESIZE_PIXELS} pixels")
    return width, height


def load_dataset(
    root: str | Path,
    resize_to: tuple[int, int] = (63, 63),
    skip_errors: bool = False,
) -> list[DatasetEntry]:
    """Load every ``root/<class>/*.pgm`` as a normalized, resized image.

    Class label = subdirectory name. Entries come back sorted by
    (class name, file name), so two calls on the same tree agree.
    A target that check_resize_target refuses raises ValueError before
    any file is read. A bad file aborts the load unless skip_errors is
    set, which downgrades it to a warning. A class name that no model
    file could hold (see check_label) always aborts.
    """
    out_w, out_h = check_resize_target(*resize_to)
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"dataset root {root} is not a directory")
    class_dirs = sorted((p for p in root.iterdir() if p.is_dir()), key=lambda p: p.name)
    if not class_dirs:
        warnings.warn(f"dataset root {root} contains no class directories")
        return []
    entries: list[DatasetEntry] = []
    for class_dir in class_dirs:
        try:
            check_label(class_dir.name)
        except ValueError as err:
            raise DatasetError(f"{class_dir}: {err}") from None
        files = sorted(
            (p for p in class_dir.iterdir() if p.is_file() and p.suffix.lower() == ".pgm"),
            key=lambda p: p.name,
        )
        index = 0
        for path in files:
            try:
                raw = parse_pgm(path.read_bytes())
                gray = resize_bilinear(normalize_unit(raw), out_w, out_h)
            except (PgmParseError, OSError, ValueError) as err:
                if skip_errors:
                    warnings.warn(f"skipping {path}: {err}")
                    continue
                raise DatasetError(f"failed to load {path}: {err}") from err
            entries.append(DatasetEntry(class_dir.name, index, gray, str(path)))
            index += 1
    return entries
