"""Block partitioning and the per-block entropy feature.

An image whose sides are multiples of 3 tiles exactly into non-overlapping
3x3 blocks, row-major. Each block contributes one feature: the center
membership weight times the -G*ln(G) entropy term of the selected gradient
contour. A 63x63 image yields a 441-dimensional vector, computed as
arrays over the image's (n_blocks, 9) block array.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .image_io import GrayImage, _class_files, _load_file
from .infoset import center_memberships, contours
from .options import ContourVariant, FuzzifierRef, check_resize_target

FLOAT_DIGITS = 12  # significant digits in the feature CSV


@dataclass(frozen=True, eq=False)  # arrays have no single truth value: compare by identity
class FeatureVector:
    """Per-block features of one image, row-major over the block grid."""

    values: np.ndarray  # 1-D float64
    variant: ContourVariant
    ref: FuzzifierRef
    block_grid: tuple[int, int]  # (rows, cols)

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)  # a copy: the caller's array stays writeable
        rows, cols = self.block_grid
        if vals.ndim != 1 or vals.size != rows * cols:
            raise ValueError("value count does not match the block grid")
        if not np.isfinite(vals).all():
            raise ValueError("feature values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.values.size)


def block_values(image: GrayImage) -> np.ndarray:
    """The image's 3x3 blocks as an (n_blocks, 9) array, row-major over
    the block grid. Columns: the center pixel, then the ring clockwise
    from the top-left (top-left, top-center, top-right, middle-right,
    bottom-right, bottom-center, bottom-left, middle-left)."""
    h, w = image.height, image.width
    if h % 3 or w % 3:
        raise ValueError(f"image dimensions {w}x{h} are not multiples of 3")
    cells = image.pixels.reshape(h // 3, 3, w // 3, 3).transpose(0, 2, 1, 3).reshape(-1, 9)
    # flat cell layout per block: v0 v1 v2 / v3 v4 v5 / v6 v7 v8
    return cells[:, [4, 0, 1, 2, 5, 8, 7, 6, 3]]


def entropy_features(membership: np.ndarray, contour: np.ndarray) -> np.ndarray:
    """-membership * contour * ln(contour) elementwise; +0.0 where either
    input degenerates (contour 0 or 1, membership 0)."""
    degenerate = (membership == 0.0) | (contour == 0.0) | (contour == 1.0)
    log = np.log(np.where(degenerate, 1.0, contour))
    return np.where(degenerate, 0.0, -membership * contour * log)


def block_features(
    blocks: np.ndarray,
    variant: ContourVariant = ContourVariant.G1,
    ref: FuzzifierRef = FuzzifierRef.AVERAGE,
) -> np.ndarray:
    """The feature value of each row of an (n_blocks, 9) block array."""
    return entropy_features(center_memberships(blocks, ref), contours(blocks, variant))


def extract(
    image: GrayImage,
    variant: ContourVariant = ContourVariant.G1,
    ref: FuzzifierRef = FuzzifierRef.AVERAGE,
) -> FeatureVector:
    """Feature vector of a whole image, one value per 3x3 block."""
    values = block_features(block_values(image), variant, ref)
    return FeatureVector(values, variant, ref, (image.height // 3, image.width // 3))


# pickled by name, so a worker finds it even where a tracer has rebound extract to an unpicklable wrapper
def _extract_task(args: tuple[GrayImage, ContourVariant, FuzzifierRef]) -> FeatureVector:
    image, variant, ref = args
    return extract(image, variant, ref)


def _file_features(
    path: Path, size: tuple[int, int], variant: ContourVariant, ref: FuzzifierRef, skip_errors: bool
) -> np.ndarray | str:
    """One file's feature values, or with skip_errors the message that says it was skipped."""
    image = _load_file(path, size, skip_errors)
    if isinstance(image, str):
        return image
    return block_features(block_values(image), variant, ref)


def pool_size(workers: int, n_tasks: int) -> int:
    """Processes a pool starts: no more than the tasks or the cores."""
    return min(workers, n_tasks, os.cpu_count() or 1)


def _map(fn: Callable, tasks: Sequence, workers: int) -> list:
    """[fn(t) for t in tasks], run in contiguous chunks across up to
    pool_size processes when workers > 1; fn must pickle by name."""
    workers = pool_size(workers, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # about 20 ms to import: only when a pool starts

    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def extract_many(
    images: Sequence[GrayImage],
    variant: ContourVariant = ContourVariant.G1,
    ref: FuzzifierRef = FuzzifierRef.AVERAGE,
    workers: int = 1,
) -> list[FeatureVector]:
    """Extract a batch of images, optionally across processes.

    Results always come back in input order; the worker count never
    changes the values. The pool is clamped by pool_size.
    """
    return _map(_extract_task, [(img, variant, ref) for img in images], workers)


def extract_dataset(
    root: str | Path,
    size: tuple[int, int] = (63, 63),
    variant: ContourVariant = ContourVariant.G1,
    ref: FuzzifierRef = FuzzifierRef.AVERAGE,
    skip_errors: bool = False,
    workers: int = 1,
) -> tuple[list[str], list[str], np.ndarray, list[str]]:
    """Features of every ``root/<class>/*.pgm``, one file at a time.

    Returns (source paths, class labels, (n, blocks) feature matrix,
    notices). Rows, labels and errors are those of load_dataset then
    extract on each image, but no image is kept, and with workers > 1
    each pool process reads its own files. Where load_dataset warns,
    this returns the message among the notices, in file order: one per
    file skip_errors skipped, or one for a root without class directories.
    """
    size = check_resize_target(*size)
    root = Path(root)
    classes = _class_files(root)
    files = [(label, path) for label, paths in classes for path in paths]
    task = partial(_file_features, size=size, variant=variant, ref=ref, skip_errors=skip_errors)
    results = _map(task, [path for _, path in files], workers)
    notices = [r for r in results if isinstance(r, str)]
    if not classes:
        notices.append(f"dataset root {root} contains no class directories")
    kept = [(str(path), label, r) for (label, path), r in zip(files, results) if not isinstance(r, str)]
    paths, labels, rows = zip(*kept) if kept else ((), (), ())
    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), (size[0] // 3) * (size[1] // 3))
    return list(paths), list(labels), matrix, notices


def write_features_csv(
    path,
    rows: Iterable[tuple[str, str, ContourVariant, FuzzifierRef, np.ndarray]],
    n_features: int | None = None,
) -> None:
    """Write (source path, class label, variant, ref, values) rows, as
    read_features_csv returns them, as CSV.

    Header is path,class,variant,ref,v0..v{n-1}; text fields are
    csv-quoted and values carry FLOAT_DIGITS significant digits.
    n_features sizes the header when rows is empty. A row of another
    length or with a non-finite value raises ValueError before it is written.
    """
    rows = list(rows)
    if rows:
        n_features = len(rows[0][4])
    elif n_features is None:
        raise ValueError("n_features is required when there are no rows")
    values = f",%.{FLOAT_DIGITS}g" * n_features + "\n"
    # csv quotes a field by what its line terminator holds, so each row's text fields
    # are written with the real "\n" into a buffer, which is then cut before the values
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["path", "class", "variant", "ref"] + [f"v{i}" for i in range(n_features)]) + "\n")
        for source, label, variant, ref, vals in rows:
            if len(vals) != n_features or not np.isfinite(vals).all():
                raise ValueError(f"row {source!r} must hold {n_features} finite feature values")
            text.seek(0)
            text.truncate()
            writer.writerow([source, label, variant.value, ref.value])
            fh.write(text.getvalue()[:-1] + values % tuple(vals.tolist()))


def read_features_csv(path) -> list[tuple[str, str, ContourVariant, FuzzifierRef, np.ndarray]]:
    """Read back a feature CSV written by write_features_csv, as the rows
    it takes. The variant and ref columns must hold the exact values it
    writes (g1, avg, ...), each row the header's field count, each value finite."""
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:4] != ["path", "class", "variant", "ref"]:
            raise ValueError(f"{path} is not a feature CSV")
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path} line {reader.line_num}: {len(row)} fields, the header has {len(header)}")
            source, label, variant, ref = row[:4]
            values = np.array([float(v) for v in row[4:]], dtype=np.float64)
            if not np.isfinite(values).all():
                raise ValueError(f"{path} line {reader.line_num}: feature values must be finite")
            out.append((source, label, ContourVariant(variant), FuzzifierRef(ref), values))
    return out
