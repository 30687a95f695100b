"""Seeded generator for the benchmark's ORL-shaped PGM trees.

Every class shares one face template (bright oval, dark eyes, brows and
mouth, a nose ridge). A class moves and resizes those parts and adds its
own smooth texture field; every image then gets its own gain,
left-to-right illumination slope, one-pixel shift and pixel noise. The
shared structure and per-image variation keep nearest-neighbor
accuracy strictly between chance and 100%, so the classifiers and the
SVM solver work on data that is not trivially separable.

The same seed gives the same pixels. The P2 and P5 trees hold identical
pixel values; only the encoding differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class TreeSpec:
    """Shape of a generated tree and the knobs that set its difficulty."""

    classes: int = 40
    per_class: int = 10
    width: int = 92
    height: int = 112
    part_jitter: float = 0.035  # class-level shift of eyes/mouth, share of the side
    texture_amp: float = 0.10  # class texture field amplitude, share of full scale
    gain_range: tuple[float, float] = (0.65, 1.0)  # per-image global gain
    slope_max: float = 0.25  # per-image illumination slope across the width
    shift_max: int = 1  # per-image translation in pixels
    noise_sigma: float = 0.04  # per-pixel Gaussian noise, share of full scale


ORL = TreeSpec()
# Tiny tree for the quick mode: every path and check, in seconds. Its
# variation is small, so that a test set of 4 images still scores above
# chance (it did at seeds 0 to 29).
QUICK = TreeSpec(classes=4, per_class=4, width=9, height=9, gain_range=(0.9, 1.0),
                 slope_max=0.05, shift_max=0, noise_sigma=0.01)


def _ellipse(xx, yy, cx, cy, rx, ry):
    return ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0


def _smooth_field(rng, height, width, cells):
    # bilinear upsampling of a coarse random grid: a smooth texture
    coarse = rng.normal(0.0, 1.0, size=(cells + 1, cells + 1))
    ys = np.linspace(0.0, cells, height)
    xs = np.linspace(0.0, cells, width)
    y0 = np.minimum(ys.astype(int), cells - 1)
    x0 = np.minimum(xs.astype(int), cells - 1)
    fy = (ys - y0)[:, None]
    fx = xs - x0
    top = coarse[y0][:, x0] * (1 - fx) + coarse[y0][:, x0 + 1] * fx
    bottom = coarse[y0 + 1][:, x0] * (1 - fx) + coarse[y0 + 1][:, x0 + 1] * fx
    field = top * (1 - fy) + bottom * fy
    return field / (np.abs(field).max() or 1.0)


def _class_face(rng, spec: TreeSpec) -> np.ndarray:
    h, w = spec.height, spec.width
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    j = spec.part_jitter

    def jit(value, side):
        return value * side + rng.uniform(-j, j) * side

    face = np.full((h, w), 0.30)
    oval = _ellipse(xx, yy, jit(0.5, w), jit(0.52, h), 0.36 * w, 0.42 * h)
    shade = 0.75 - 0.15 * ((xx - w / 2) / w) ** 2 * 4
    face[oval] = shade[oval]
    eye_y, eye_dx = jit(0.42, h), jit(0.17, w)
    for side in (-1, 1):
        cx = w / 2 + side * eye_dx
        face[_ellipse(xx, yy, cx, eye_y - 0.07 * h, 0.10 * w, 0.015 * h)] = 0.35  # brow
        face[_ellipse(xx, yy, cx, eye_y, jit(0.07, w), 0.03 * h)] = 0.15  # eye
    nose = (np.abs(xx - w / 2) < 0.03 * w) & (yy > eye_y) & (yy < jit(0.62, h))
    face[nose] += 0.08
    face[_ellipse(xx, yy, w / 2, jit(0.74, h), jit(0.15, w), 0.03 * h)] = 0.25  # mouth
    face += spec.texture_amp * _smooth_field(rng, h, w, cells=max(2, w // 8))
    return face


def _image(rng, face: np.ndarray, spec: TreeSpec) -> np.ndarray:
    h, w = face.shape
    dy, dx = rng.integers(-spec.shift_max, spec.shift_max + 1, size=2)
    img = np.roll(face, (int(dy), int(dx)), axis=(0, 1))
    gain = rng.uniform(*spec.gain_range)
    slope = rng.uniform(-spec.slope_max, spec.slope_max)
    light = 1.0 + slope * (np.arange(w) / max(w - 1, 1) - 0.5)
    img = img * gain * light[None, :] + rng.normal(0.0, spec.noise_sigma, size=(h, w))
    return np.clip(np.rint(img * 255.0), 1, 255).astype(np.uint16)


def generate(spec: TreeSpec, seed: int) -> dict[tuple[str, int], np.ndarray]:
    """Pixels of every image, keyed by (class label, image index)."""
    rng = np.random.default_rng(seed)
    images = {}
    for ci in range(spec.classes):
        label = f"s{ci + 1:02d}"
        face = _class_face(rng, spec)
        for ii in range(spec.per_class):
            images[(label, ii)] = _image(rng, face, spec)
    return images


def pgm_bytes(pixels: np.ndarray, binary: bool) -> bytes:
    """8-bit PGM encoding, written here so the inputs do not depend on the
    program under test."""
    h, w = pixels.shape
    header = f"{'P5' if binary else 'P2'}\n{w} {h}\n255\n".encode("ascii")
    if binary:
        return header + pixels.astype(np.uint8).tobytes()
    body = "\n".join(" ".join(map(str, row)) for row in pixels.tolist())
    return header + body.encode("ascii") + b"\n"


def write_tree(root: Path, images: dict[tuple[str, int], np.ndarray], binary: bool) -> None:
    for (label, index), pixels in images.items():
        path = root / label / f"img{index:02d}.pgm"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pgm_bytes(pixels, binary))
