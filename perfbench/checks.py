"""Output checks. Each returns a list of problems; empty means correct.

The benchmark reads the program's outputs and never trusts their
totals: every count is compared with what the generated tree implies.
CSV reports carry 6 significant digits, so ratios are compared after
undoing that rounding.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen


@dataclass(frozen=True)
class Sizes:
    """The tree a workload runs on and the split settings it uses."""

    tree: gen.TreeSpec
    resize: tuple[int, int]
    train_per_class: int
    folds: int

    @property
    def images(self) -> int:
        return self.tree.classes * self.tree.per_class

    @property
    def test_images(self) -> int:
        return self.tree.classes * (self.tree.per_class - self.train_per_class)

    @property
    def features(self) -> int:
        return (self.resize[0] // 3) * (self.resize[1] // 3)

    @property
    def chance(self) -> float:
        return 100.0 / self.tree.classes


FULL = Sizes(gen.ORL, (63, 63), train_per_class=7, folds=10)
QUICK = Sizes(gen.QUICK, (9, 9), train_per_class=3, folds=4)

ORACLE_SAMPLE = 5  # images per features.csv checked against the naive oracle
ORACLE_TOL = 1e-10  # relative to max(1, |value|): the CSV keeps 12 digits


def load_oracles(root: Path):
    """tests/oracles.py by path, so tests/conftest.py is never imported."""
    spec = importlib.util.spec_from_file_location("nblgc_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(path: Path) -> list[list[str]]:
    """CSV rows with the '# key=value' comment lines dropped."""
    text = path.read_text()
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


def _integral(x: float) -> bool:
    return abs(x - round(x)) < 1e-2


def check_report(path: Path, sizes: Sizes, facts: dict) -> list[str]:
    rows = _rows(path)
    if not rows or rows[0] != ["class", "correct", "total", "accuracy"]:
        return [f"{path.name}: bad header"]
    body, overall = rows[1:-1], rows[-1]
    problems = []
    per_test = sizes.tree.per_class - sizes.train_per_class
    if len(body) != sizes.tree.classes:
        problems.append(f"{path.name}: {len(body)} class rows, want {sizes.tree.classes}")
    if any(int(r[2]) != per_test for r in body):
        problems.append(f"{path.name}: a class total differs from {per_test}")
    correct = sum(int(r[1]) for r in body)
    if overall[0] != "overall" or int(overall[2]) != sizes.test_images or int(overall[1]) != correct:
        problems.append(f"{path.name}: overall row {overall} disagrees with {sizes.test_images} test images")
    accuracy = 100.0 * correct / sizes.test_images
    if not math.isclose(float(overall[3]), accuracy, rel_tol=1e-5):
        problems.append(f"{path.name}: accuracy {overall[3]} is not {correct}/{sizes.test_images}")
    if accuracy <= sizes.chance:
        problems.append(f"{path.name}: accuracy {accuracy:.4g}% is not above chance")
    facts["accuracy"] = accuracy
    return problems


def _fold_sizes(sizes: Sizes) -> list[int]:
    # kfold deals each class round-robin over the folds in load order
    out = [0] * sizes.folds
    for j in range(sizes.tree.per_class):
        out[j % sizes.folds] += sizes.tree.classes
    return out


def check_folds(path: Path, sizes: Sizes, facts: dict) -> list[str]:
    rows = _rows(path)
    if not rows or rows[0] != ["fold", "accuracy"]:
        return [f"{path.name}: bad header"]
    body = rows[1:]
    if [int(r[0]) for r in body] != list(range(1, sizes.folds + 1)):
        return [f"{path.name}: want folds 1..{sizes.folds}"]
    problems = []
    fold_sizes = _fold_sizes(sizes)
    correct = [float(r[1]) * n / 100.0 for r, n in zip(body, fold_sizes)]
    if not all(_integral(c) for c in correct):
        problems.append(f"{path.name}: fold accuracies do not fit folds of {fold_sizes} images")
    if sum(fold_sizes) != sizes.images:
        problems.append(f"{path.name}: folds cover {sum(fold_sizes)} predictions, want {sizes.images}")
    accuracy = 100.0 * sum(round(c) for c in correct) / sizes.images
    if accuracy <= sizes.chance:
        problems.append(f"{path.name}: accuracy {accuracy:.4g}% is not above chance")
    facts["kfold_accuracy"] = accuracy
    return problems


def check_roc(path: Path, sizes: Sizes, facts: dict) -> list[str]:
    rows = _rows(path)
    if not rows or rows[0] != ["threshold", "far", "gar"]:
        return [f"{path.name}: bad header"]
    points = [tuple(float(v) for v in r) for r in rows[1:]]
    if len(points) < 2:
        return [f"{path.name}: fewer than 2 points"]
    problems = []
    if points[0] != (0.0, 0.0, 0.0):
        problems.append(f"{path.name}: first point {points[0]} is not (0, 0, 0)")
    if points[-1][1:] != (100.0, 100.0):
        problems.append(f"{path.name}: last point {points[-1]} does not reach far=gar=100")
    if any(b[i] < a[i] for a, b in zip(points, points[1:]) for i in range(3)):
        problems.append(f"{path.name}: threshold, far or gar decreases")
    genuine = sizes.test_images
    impostor = sizes.test_images * (sizes.tree.classes - 1)
    if not all(_integral(g * genuine / 100.0) and _integral(f * impostor / 100.0) for _, f, g in points):
        problems.append(f"{path.name}: rates do not fit {genuine} genuine / {impostor} impostor trials")
    facts["roc_points"] = len(points)
    return problems


def oracle_resize(grid: list[list[float]], out_w: int, out_h: int) -> list[list[float]]:
    """Bilinear resize with pixel centers aligned, in the lerp form, in
    plain Python."""
    h, w = len(grid), len(grid[0])

    def axis(n_out, n_in):
        coords = []
        for i in range(n_out):
            x = min(max((i + 0.5) * (n_in / n_out) - 0.5, 0.0), n_in - 1)
            x0 = math.floor(x)
            coords.append((x0, min(x0 + 1, n_in - 1), x - x0))
        return coords

    xs, out = axis(out_w, w), []
    for y0, y1, fy in axis(out_h, h):
        row = []
        for x0, x1, fx in xs:
            top = grid[y0][x0] + fx * (grid[y0][x1] - grid[y0][x0])
            bottom = grid[y1][x0] + fx * (grid[y1][x1] - grid[y1][x0])
            row.append(min(max(top + fy * (bottom - top), 0.0), 1.0))
        out.append(row)
    return out


def oracle_features(oracles, pixels: np.ndarray, resize: tuple[int, int]) -> list[float]:
    h, w = pixels.shape
    flat = oracles.naive_normalize([int(v) for v in pixels.reshape(-1)])
    grid = oracle_resize([flat[r * w : (r + 1) * w] for r in range(h)], *resize)
    out_w, out_h = resize
    return [
        oracles.naive_window_feature(
            [grid[by * 3 + dy][bx * 3 : bx * 3 + 3] for dy in range(3)], "g1", "avg"
        )
        for by in range(out_h // 3)
        for bx in range(out_w // 3)
    ]


def check_features(
    path: Path, sizes: Sizes, images: dict, oracles, seed: int, facts: dict
) -> list[str]:
    rows = _rows(path)
    n = sizes.features
    if not rows or rows[0] != ["path", "class", "variant", "ref"] + [f"v{i}" for i in range(n)]:
        return [f"{path.name}: bad header"]
    body = rows[1:]
    if len(body) != sizes.images:
        return [f"{path.name}: {len(body)} rows, want {sizes.images}"]
    keys = [(r[1], int(Path(r[0]).stem[3:])) for r in body]
    if keys != sorted(images) or any(Path(r[0]).parent.name != r[1] for r in body):
        return [f"{path.name}: rows do not match the tree's images in load order"]
    values = np.array([[float(v) for v in r[4:]] for r in body])
    problems = []
    if values.shape != (sizes.images, n) or not np.isfinite(values).all():
        problems.append(f"{path.name}: want {sizes.images}x{n} finite values")
    worst = 0.0
    for i in random.Random(seed).sample(range(len(body)), min(ORACLE_SAMPLE, len(body))):
        want = np.array(oracle_features(oracles, images[keys[i]], sizes.resize))
        worst = max(worst, float(np.max(np.abs(values[i] - want) / np.maximum(1.0, np.abs(want)))))
    if worst > ORACLE_TOL:
        problems.append(f"{path.name}: sampled rows differ from the naive oracle by {worst:.3g}")
    facts["oracle_max_rel_diff"] = worst
    return problems


def check_svm(result: dict, sizes: Sizes, facts: dict) -> list[str]:
    labels, trained, loaded = result["labels"], result["trained"], result["loaded"]
    problems = []
    if len(labels) != sizes.test_images or len(result["query_ms"]) != sizes.test_images:
        problems.append(f"svm: {len(labels)} test images, want {sizes.test_images}")
    if trained != loaded:
        diff = sum(a != b for a, b in zip(trained, loaded))
        problems.append(f"svm: loaded model disagrees with the trained one on {diff} queries")
    accuracy = 100.0 * sum(a == b for a, b in zip(labels, loaded)) / max(len(labels), 1)
    if accuracy <= sizes.chance:
        problems.append(f"svm: accuracy {accuracy:.4g}% is not above chance")
    facts["svm_accuracy"] = accuracy
    return problems
