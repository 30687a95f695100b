import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nblgc import ContourVariant, KnnModel, RawImage, contours


def random_window(rng, lo=0.0, hi=1.0):
    """One 3x3 window as a (1, 9) block row: center, then the ring."""
    return rng.uniform(lo, hi, size=(1, 9))


def g2_halves(blocks):
    """(g20, g21) per block row: the g2 contour with the other half's ring
    positions set to 0. g20 reads only the corners (columns 1, 3, 5, 7)
    and g21 only the edge midpoints (columns 2, 4, 6, 8), so each half
    is exact."""
    corners, edges = blocks.copy(), blocks.copy()
    corners[:, 2::2] = 0.0
    edges[:, 1::2] = 0.0
    return contours(corners, ContourVariant.G2), contours(edges, ContourVariant.G2)


def write_pgm(image, binary=False):
    """A RawImage as P2 (default) or P5 bytes, the layout parse_pgm reads back exactly."""
    header = f"{'P5' if binary else 'P2'}\n{image.width} {image.height}\n{image.max_gray}\n"
    if binary:
        dtype = ">u2" if image.max_gray > 255 else np.uint8
        return header.encode("ascii") + image.pixels.astype(dtype).tobytes()
    rows = image.pixels.reshape(image.height, image.width)
    body = "\n".join(" ".join(map(str, row)) for row in rows.tolist())
    return (header + body + "\n").encode("ascii")


def random_raw(rng, width=9, height=9, max_gray=255):
    px = rng.integers(0, max_gray + 1, size=width * height).astype(np.uint16)
    return RawImage(width, height, max_gray, px)


def make_pgm_tree(root, n_classes, per_class, size=(9, 9), seed=0, binary=True):
    """root/<class>/imgNN.pgm with a per-class base pattern plus noise,
    so classes are distinct and no two images are identical."""
    rng = np.random.default_rng(seed)
    w, h = size
    for ci in range(n_classes):
        cdir = root / f"s{ci + 1:02d}"
        cdir.mkdir(parents=True, exist_ok=True)
        base = rng.integers(0, 200, size=h * w)
        for ii in range(per_class):
            noise = rng.integers(0, 40, size=h * w)
            px = np.clip(base + noise, 0, 255).astype(np.uint16)
            img = RawImage(w, h, 255, px)
            (cdir / f"img{ii:02d}.pgm").write_bytes(write_pgm(img, binary=binary))


def knn_model(train, *settings, **named):
    """A KnnModel over a list of LabeledSample."""
    return KnnModel([s.vector for s in train], [s.label for s in train], *settings, **named)


def run_python(*args, cwd=None):
    """Run the interpreter on args with src/ on its path (pytest's
    pythonpath setting does not reach a subprocess)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120, env=env, cwd=cwd)


@pytest.fixture
def small_tree(tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    make_pgm_tree(root, n_classes=4, per_class=6, size=(9, 9), seed=7)
    return root
