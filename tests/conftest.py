import numpy as np
import pytest

from nblgc import ContourVariant, RawImage, contours, write_pgm


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


@pytest.fixture
def small_tree(tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    make_pgm_tree(root, n_classes=4, per_class=6, size=(9, 9), seed=7)
    return root
