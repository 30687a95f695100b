"""PGM image I/O, gray-level normalization, resizing, dataset loading.

Reads plain (P2) and binary (P5) PGM files, normalizes raw gray levels
to [0, 1] by the per-image maximum, resizes with bilinear interpolation,
and assembles labeled datasets from a ``root/<class>/<image>.pgm`` tree.
"""

from __future__ import annotations

import re
import sys
import warnings
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Iterator

import numpy as np

from .options import DatasetError, PgmParseError, check_label, check_resize_target, is_utf8

MAX_GRAY_LIMIT = 65535

_WHITESPACE = b" \t\n\r\x0b\x0c"
_COMMENT = re.compile(rb"#[^\r\n]*")
# a comment, or a token: a run of bytes that are neither whitespace nor #
_TOKEN = re.compile(_COMMENT.pattern + rb"|([^ \t\n\r\x0b\x0c#]+)")


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
        px = np.asarray(self.pixels)
        if px.ndim != 1 or px.size != self.width * self.height:
            raise ValueError("pixel count does not match width*height")
        # checked before the cast, which would wrap 65541 to 5, -1 to 65535 and 2.7 to 2
        whole = px.dtype.kind in "bui" or (px.dtype.kind == "f" and (px == np.floor(px)).all())
        if not (whole and ((px >= 0) & (px <= self.max_gray)).all()):
            raise ValueError(f"pixel values must be integers in [0, max_gray {self.max_gray}]")
        px = px.astype(np.uint16)  # a copy: the caller's array stays writeable
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    def __eq__(self, other):  # by value: perfbench's self-test compares the P2 and P5 parses of one image
        if not isinstance(other, RawImage):
            return NotImplemented
        return (self.width, self.height, self.max_gray) == (
            other.width,
            other.height,
            other.max_gray,
        ) and bool(np.array_equal(self.pixels, other.pixels))

    def __hash__(self):  # the fields __eq__ compares
        return hash((self.width, self.height, self.max_gray, self.pixels.tobytes()))


@dataclass(frozen=True, eq=False)  # arrays have no single truth value: compare by identity
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


def _owned(cls, **values):
    """A RawImage or GrayImage over a pixels array this module has just
    made, whose values already hold what the public constructor checks:
    the array is frozen in place, with no copy and no second check.
    Raises TypeError unless values names every field of cls."""
    names = {f.name for f in fields(cls)}
    if values.keys() != names:
        raise TypeError(f"{cls.__name__} takes exactly the fields {sorted(names)}")
    values["pixels"].flags.writeable = False
    image = object.__new__(cls)
    vars(image).update(values)
    return image


@dataclass(frozen=True)
class DatasetEntry:
    """One loaded image with its class label (its directory name)."""

    class_label: str
    image: GrayImage
    source_path: str


def _tokens(data: bytes, pos: int) -> Iterator[re.Match]:
    """Tokens of data from pos on, found lazily; comments are skipped."""
    return (m for m in _TOKEN.finditer(data, pos) if m[1])


def _blank(comment: re.Match) -> bytes:
    return b" " * len(comment[0])


def _uint(token: re.Match, what: str) -> int:
    text = token[1]
    if not text.isdigit():
        raise PgmParseError(f"non-numeric {what} token {text!r}", token.start())
    try:
        return int(text)
    except ValueError:  # more digits than int() converts (4300 by default)
        raise PgmParseError(f"{what} token of {len(text)} digits is too long", token.start()) from None


def _p2_values(text: bytes, start: int, count: int, max_gray: int) -> np.ndarray | None:
    """The first count tokens of the comment-blanked P2 raster text[start:],
    which starts with whitespace, as uint16 values, in a few numpy passes
    over its bytes; None when there are fewer, or one is not a decimal
    number int() converts, or one exceeds max_gray.

    Memory is a few times the raster's bytes, whatever count says. The
    byte masks and digits take one byte per raster byte, flatnonzero's
    int64 output 8 bytes per token, and token positions, lengths, digit
    places and values are int32 arrays of count entries. So no temporary
    reaches glibc's default 128 KiB mmap threshold while the raster is
    under 128 KiB and holds under 16,384 tokens: an ORL image of 92x112
    (10,304 pixels, about 40 KB of text) decodes with temporaries of at
    most 82 KB. Only a token longer than five digits adds a pass, with a
    running count per raster byte. That alone does not keep their
    pages: by default glibc hands the free top of its heap back between
    images, and the next image faults it in again. The command line pins
    the heap (options._pin_heap), so it keeps them.
    """
    raw = np.frombuffer(text, np.uint8)[start:]
    token = raw != 32  # whitespace is byte 32 or 9-13 (\t \n \x0b \x0c \r); a token byte is neither
    token &= raw - 9 > 4
    # raw[0] is whitespace, so each token starts right after an index of before, and ends at one of last
    before = np.flatnonzero(token[1:] > token[:-1])[:count]
    if len(before) < count:
        return None
    last = np.flatnonzero(token[:-1] > token[1:])[:count]
    if len(last) < count:  # the count-th token runs to the end of the raster
        last = np.append(last, len(raw) - 1)
    index = np.int32 if len(raw) <= np.iinfo(np.int32).max else np.int64
    before, last = before.astype(index), last.astype(index)
    span = int(last[-1]) + 1  # bytes after the last needed token stay unread
    digit = raw[:span] - 48  # a byte that is no digit wraps past 9
    if np.count_nonzero(digit <= 9) != np.count_nonzero(token[:span]):
        return None
    length = last - before
    longest = int(length.max())
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int()'s digit limit; 0: none, as before 3.10.7
    if limit and longest > limit:
        return None
    if longest > 5:  # a nonzero digit before a token's last five makes it >= 100000 > MAX_GRAY_LIMIT
        nonzero = np.cumsum(digit - 1 < 9, dtype=index)  # nonzero digits up to each byte
        long = length > 5
        if (nonzero[last[long] - 5] > nonzero[before[long]]).any():
            return None
    values = digit.take(last).astype(np.int32)
    scale = 1
    for place in range(1, min(longest, 5)):
        scale *= 10
        # a byte left of a token's start is masked out; clip keeps a read in range
        place_digit = digit.take(last - place, mode="clip").astype(np.int32)
        place_digit *= length > place
        place_digit *= scale
        values += place_digit
    if int(values.max()) > max_gray:
        return None
    return values.astype(np.uint16)


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
        # comments are blanked byte for byte, so the raster still starts at end, with
        # whitespace: the max_gray token ended there. A file with no # is not copied.
        values = _p2_values(_COMMENT.sub(_blank, data), end, count, max_gray)
        if values is not None:
            return _owned(RawImage, width=width, height=height, max_gray=max_gray, pixels=values)
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
    values = np.frombuffer(data, ">u2" if two_byte else np.uint8, count=count, offset=start)
    if int(values.max()) > max_gray:
        bad = int(np.argmax(values > max_gray))
        offset = start + bad * (2 if two_byte else 1)
        raise PgmParseError(
            f"pixel value {int(values[bad])} exceeds max_gray {max_gray}", offset
        )
    return _owned(RawImage, width=width, height=height, max_gray=max_gray, pixels=values.astype(np.uint16))


def normalize_unit(image: RawImage) -> GrayImage:
    """Divide by the image's own maximum pixel so the brightest pixel is 1.0.

    The header max_gray is deliberately not used. An all-zero image maps
    to all zeros.
    """
    grid = image.pixels.reshape(image.height, image.width)
    peak = int(grid.max())
    # uint16 / int divides in float64: the same bits as a float64 grid / float(peak)
    return _owned(GrayImage, pixels=grid / (peak or 1))


@lru_cache(maxsize=32)
def _resize_plan(width: int, height: int, out_width: int, out_height: int) -> tuple[np.ndarray, ...]:
    """Source columns x0, x1, rows y0, y1 and weights fx, fy (a column)
    of each output pixel, read-only: every image of one size shares them."""
    xs = (np.arange(out_width) + 0.5) * (width / out_width) - 0.5
    ys = (np.arange(out_height) + 0.5) * (height / out_height) - 0.5
    xs = np.clip(xs, 0.0, width - 1)
    ys = np.clip(ys, 0.0, height - 1)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    plan = (x0, x1, y0, y1, xs - x0, (ys - y0)[:, None])
    for a in plan:
        a.flags.writeable = False
    return plan


def resize_bilinear(image: GrayImage, out_width: int, out_height: int) -> GrayImage:
    """Resize with bilinear interpolation, pixel centers aligned.

    Identity when the target equals the source size (bit-identical).
    """
    if out_width < 1 or out_height < 1:
        raise ValueError("target dimensions must be positive")
    if out_width == image.width and out_height == image.height:
        return image
    src = image.pixels
    x0, x1, y0, y1, fx, fy = _resize_plan(image.width, image.height, out_width, out_height)
    # lerp form keeps constants exact: v0 + f*(v1 - v0), along x over every source row, then along y.
    # It runs in place as (v1 - v0) * f + v0, the same bits: IEEE + and * commute.
    c0 = src.take(x0, axis=1)
    cols = src.take(x1, axis=1)
    cols -= c0
    cols *= fx
    cols += c0
    r0 = cols.take(y0, axis=0)
    out = cols.take(y1, axis=0)
    out -= r0
    out *= fy
    out += r0
    return _owned(GrayImage, pixels=np.clip(out, 0.0, 1.0, out=out))


def _class_files(root: Path) -> list[tuple[str, list[Path]]]:
    """(class label, its *.pgm files) for each subdirectory of root, both
    sorted by name; empty when root has no subdirectory. Raises
    DatasetError, before any file is read, for a missing root, a class
    name that no model file could hold (see check_label) or a file name
    that is not UTF-8, which no output file could hold."""
    if not root.is_dir():
        raise DatasetError(f"dataset root {root} is not a directory")
    classes = []
    for class_dir in sorted((p for p in root.iterdir() if p.is_dir()), key=lambda p: p.name):
        try:
            check_label(class_dir.name)
        except ValueError as err:  # the path as a repr: its name may not print
            raise DatasetError(f"{str(class_dir)!r}: {err}") from None
        files = sorted(
            (p for p in class_dir.iterdir() if p.is_file() and p.suffix.lower() == ".pgm"),
            key=lambda p: p.name,
        )
        for path in files:
            if not is_utf8(path.name):
                raise DatasetError(f"{str(path)!r}: file name is not UTF-8")
        classes.append((class_dir.name, files))
    return classes


def _read_tree(root: str | Path, size: tuple[int, int], skip_errors: bool) -> Iterator[tuple[str, str, GrayImage | str]]:
    """Walk every ``root/<class>/*.pgm`` in (class, file) name order, file by
    file in this process, once size and tree are checked (before any file
    is read). Yields (class label, source path, image normalized and
    resized to size (width, height)). A file that fails to load raises
    DatasetError naming it, or with skip_errors yields in place of its
    image the message that it was skipped, as does a root with no class directory."""
    size = check_resize_target(*size)
    root = Path(root)
    classes = _class_files(root)
    if not classes:
        yield "", str(root), f"dataset root {root} contains no class directories"
    for label, paths in classes:
        for path in paths:
            try:
                image = resize_bilinear(normalize_unit(parse_pgm(path.read_bytes())), *size)
            except (PgmParseError, OSError, ValueError) as err:
                if not skip_errors:
                    raise DatasetError(f"failed to load {path}: {err}") from err
                image = f"skipping {path}: {err}"
            yield label, str(path), image


def load_dataset(
    root: str | Path,
    resize_to: tuple[int, int] = (63, 63),
    skip_errors: bool = False,
) -> list[DatasetEntry]:
    """Every ``root/<class>/*.pgm`` as a normalized, resized image, labelled
    by its subdirectory, in (class, file) name order (see _read_tree: size
    and tree are checked before any file is read). A bad file aborts the
    load unless skip_errors is set, which makes its message a warning."""
    entries = []
    for label, path, image in _read_tree(root, resize_to, skip_errors):
        if isinstance(image, str):
            warnings.warn(image)
        else:
            entries.append(DatasetEntry(label, image, path))
    return entries
