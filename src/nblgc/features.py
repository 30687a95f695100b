"""Block partitioning and the per-block entropy feature.

An image whose sides are multiples of 3 tiles exactly into non-overlapping
3x3 blocks, row-major. Each block contributes one feature: the center
membership weight times the -G*ln(G) entropy term of the selected gradient
contour. A 63x63 image yields a 441-dimensional vector, computed as
arrays over the image's (n_blocks, 9) block array.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .contours import ContourVariant, contours
from .image_io import GrayImage
from .infoset import FuzzifierRef, center_memberships

FLOAT_DIGITS = 12  # significant digits in the feature CSV


@dataclass(frozen=True)
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


def _extract_task(args: tuple[GrayImage, ContourVariant, FuzzifierRef]) -> FeatureVector:
    image, variant, ref = args
    return extract(image, variant, ref)


def pool_size(workers: int, n_images: int) -> int:
    """Processes extract_many starts: no more than the images or the cores."""
    return min(workers, n_images, os.cpu_count() or 1)


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
    workers = pool_size(workers, len(images))
    if workers <= 1:
        return [extract(img, variant, ref) for img in images]
    tasks = [(img, variant, ref) for img in images]
    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_extract_task, tasks, chunksize=chunk))


def write_features_csv(
    path,
    rows: Iterable[tuple[str, str, FeatureVector]],
    n_features: int | None = None,
) -> None:
    """Write (source path, class label, features) rows as CSV.

    Header is path,class,variant,ref,v0..v{n-1}; values carry 12
    significant digits. n_features sizes the header when rows is empty.
    """
    rows = list(rows)
    if rows:
        n_features = len(rows[0][2])
    elif n_features is None:
        raise ValueError("n_features is required when there are no rows")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["path", "class", "variant", "ref"] + [f"v{i}" for i in range(n_features)])
        for source, label, fv in rows:
            if len(fv) != n_features:
                raise ValueError("inconsistent feature vector lengths")
            writer.writerow(
                [source, label, fv.variant.value, fv.ref.value]
                + [f"{v:.{FLOAT_DIGITS}g}" for v in fv.values]
            )


def read_features_csv(path) -> list[tuple[str, str, ContourVariant, FuzzifierRef, np.ndarray]]:
    """Read back a feature CSV written by write_features_csv."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:4] != ["path", "class", "variant", "ref"]:
            raise ValueError(f"{path} is not a feature CSV")
        for row in reader:
            source, label, variant, ref = row[:4]
            values = np.array([float(v) for v in row[4:]], dtype=np.float64)
            out.append(
                (source, label, ContourVariant.from_string(variant),
                 FuzzifierRef.from_string(ref), values)
            )
    return out
