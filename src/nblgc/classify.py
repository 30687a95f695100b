"""Nearest-neighbor and support-vector classification over feature vectors.

The KNN path uses a logarithmic distance, sum of ln(1 + |a_i - b_i|)
over coordinates: a true metric, but deliberately nonlinear, so globally
rescaling all features can reorder neighbors. The SVM path trains
one-vs-one binary machines with a polynomial kernel, solving each dual
with simplified sequential minimal optimization (coordinate ascent on
multiplier pairs). Both models round-trip through a line-oriented text
format without changing any prediction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

MODEL_FORMAT = "nblgc-model 1"
_REAL = "{:.17g}"  # 17 significant digits: exact float round-trip


@dataclass(frozen=True)
class LabeledSample:
    """One feature vector with its class label."""

    vector: np.ndarray
    label: str

    def __post_init__(self):
        vec = np.array(self.vector, dtype=np.float64)  # a copy: the caller's array stays writeable
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError("vector must be non-empty and 1-D")
        if not np.isfinite(vec).all():
            raise ValueError("vector must be finite")
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)


def check_label(label: str) -> str:
    """Return label, or raise ValueError if the model file cannot hold it:
    a tab would split its record and a line break its line."""
    if "\t" in label or "".join(label.splitlines()) != label:
        raise ValueError(f"class label {label!r} contains a tab or line break")
    return label


def _as_vector(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).reshape(-1)


def _as_query(a) -> np.ndarray:
    query = _as_vector(a)
    if not np.isfinite(query).all():
        raise ValueError("query vector must be finite")
    return query


_DISTANCES = ("log", "euclidean")


def _distance_rows(matrix: np.ndarray, query: np.ndarray, distance: str) -> np.ndarray:
    """Distance from the query to each row of matrix."""
    diff = np.abs(matrix - query)
    if distance == "log":
        return np.log1p(diff).sum(axis=1)
    return np.sqrt((diff**2).sum(axis=1))


def _distance(a, b, distance: str) -> float:
    a, b = _as_vector(a), _as_vector(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return float(_distance_rows(a[None, :], b, distance)[0])


def distance_log(a, b) -> float:
    """Sum over coordinates of ln(1 + |a_i - b_i|)."""
    return _distance(a, b, "log")


def distance_euclidean(a, b) -> float:
    """Standard L2 distance, kept for comparison runs."""
    return _distance(a, b, "euclidean")


@dataclass(frozen=True)
class KnnModel:
    """All training samples plus the vote size and distance choice."""

    training: tuple[LabeledSample, ...]
    neighbors_k: int = 1
    distance: str = "log"
    matrix: np.ndarray = field(init=False, compare=False, repr=False)  # training vectors as rows

    def __post_init__(self):
        training = tuple(self.training)
        if not training:
            raise ValueError("training set must be non-empty")
        dim = training[0].vector.size
        if any(s.vector.size != dim for s in training):
            raise ValueError("training vectors must share one dimension")
        if not 1 <= self.neighbors_k <= len(training):
            raise ValueError("neighbors_k must be in [1, number of training samples]")
        if self.distance not in _DISTANCES:
            raise ValueError(f"unknown distance {self.distance!r}")
        matrix = np.stack([s.vector for s in training])
        matrix.flags.writeable = False
        object.__setattr__(self, "training", training)
        object.__setattr__(self, "matrix", matrix)


def knn_predict(model: KnnModel, query) -> tuple[str, list[float]]:
    """Predict one label; also returns the k nearest distances, ascending.

    Majority vote over the k nearest training samples. Vote ties go to
    the tied class with the smallest summed distance, then to the first
    tied class in sorted label order.
    """
    query = _as_query(query)
    if query.size != model.matrix.shape[1]:
        raise ValueError(f"length mismatch: {query.size} vs {model.matrix.shape[1]}")
    dists = _distance_rows(model.matrix, query, model.distance)
    order = np.argsort(dists, kind="stable")[: model.neighbors_k]
    nearest = [(model.training[i].label, float(dists[i])) for i in order]
    votes: dict[str, int] = {}
    summed: dict[str, float] = {}
    for label, d in nearest:
        votes[label] = votes.get(label, 0) + 1
        summed[label] = summed.get(label, 0.0) + d
    best = sorted(votes, key=lambda c: (-votes[c], summed[c], c))[0]
    return best, [d for _, d in nearest]


def kernel_poly(a, b, degree: int = 1, offset: float = 1.0) -> float:
    """(a . b + offset) ** degree."""
    a, b = _as_vector(a), _as_vector(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return float((np.dot(a, b) + offset) ** degree)


@dataclass(frozen=True)
class BinaryMachine:
    """One trained pair machine: positive label vs negative label."""

    pos_label: str
    neg_label: str
    support_vectors: np.ndarray  # (n_sv, dim)
    coefficients: np.ndarray  # (n_sv,), multiplier * label sign
    bias: float
    degree: int
    offset: float

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=np.float64).reshape(-1)
        sv = np.asarray(self.support_vectors, dtype=np.float64)
        if coef.size:
            sv = sv.reshape(coef.size, -1)
        elif sv.ndim != 2:
            sv = sv.reshape(0, 0)
        sv.flags.writeable = False
        coef.flags.writeable = False
        object.__setattr__(self, "support_vectors", sv)
        object.__setattr__(self, "coefficients", coef)

    def decision(self, query) -> float:
        query = _as_vector(query)
        if len(self.coefficients) == 0:
            return self.bias
        k = (self.support_vectors @ query + self.offset) ** self.degree
        return float(self.coefficients @ k + self.bias)


@dataclass(frozen=True)
class SvmModel:
    """One-vs-one ensemble over the sorted class list."""

    classes: tuple[str, ...]
    machines: tuple[BinaryMachine, ...]
    degree: int
    c: float
    offset: float
    tol: float
    max_passes: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "machines", tuple(self.machines))


def _smo_pair(
    kmat: np.ndarray,
    y: np.ndarray,
    c: float,
    tol: float,
    max_passes: int,
    rng: random.Random,
) -> tuple[np.ndarray, float]:
    """Simplified SMO on one binary dual. Returns (alphas, bias).

    Stops after max_passes consecutive full sweeps with no multiplier
    update; every update keeps alphas inside [0, C] and preserves the
    label-signed sum. The second working index comes from rng, which is
    the only randomness, so a fixed seed fixes the result.
    """
    m = len(y)
    alphas = np.zeros(m)
    bias = 0.0
    passes = 0
    while passes < max_passes:
        changed = 0
        for i in range(m):
            coef = alphas * y
            err_i = float(coef @ kmat[:, i]) + bias - y[i]
            r_i = y[i] * err_i
            if not ((r_i < -tol and alphas[i] < c) or (r_i > tol and alphas[i] > 0)):
                continue
            j = rng.randrange(m - 1)
            if j >= i:
                j += 1
            err_j = float(coef @ kmat[:, j]) + bias - y[j]
            alpha_i, alpha_j = alphas[i], alphas[j]
            if y[i] != y[j]:
                low = max(0.0, alpha_j - alpha_i)
                high = min(c, c + alpha_j - alpha_i)
            else:
                low = max(0.0, alpha_i + alpha_j - c)
                high = min(c, alpha_i + alpha_j)
            if low == high:
                continue
            eta = 2.0 * kmat[i, j] - kmat[i, i] - kmat[j, j]
            if eta >= 0.0:
                continue
            new_j = alpha_j - y[j] * (err_i - err_j) / eta
            new_j = min(high, max(low, new_j))
            if abs(new_j - alpha_j) < 1e-5:
                continue
            new_i = alpha_i + y[i] * y[j] * (alpha_j - new_j)
            b1 = (
                bias
                - err_i
                - y[i] * (new_i - alpha_i) * kmat[i, i]
                - y[j] * (new_j - alpha_j) * kmat[i, j]
            )
            b2 = (
                bias
                - err_j
                - y[i] * (new_i - alpha_i) * kmat[i, j]
                - y[j] * (new_j - alpha_j) * kmat[j, j]
            )
            alphas[i], alphas[j] = new_i, new_j
            if 0.0 < new_i < c:
                bias = b1
            elif 0.0 < new_j < c:
                bias = b2
            else:
                bias = (b1 + b2) / 2.0
            changed += 1
        passes = passes + 1 if changed == 0 else 0
    return alphas, bias


def svm_train(
    data: Sequence[LabeledSample],
    degree: int = 1,
    c: float = 1.0,
    offset: float = 1.0,
    tol: float = 1e-3,
    max_passes: int = 100,
    seed: int = 0,
) -> SvmModel:
    """Train a one-vs-one polynomial-kernel SVM.

    degree must be 1 or 2; C bounds every multiplier. Each pair machine
    gets its own deterministic RNG stream derived from seed.
    """
    if degree not in (1, 2):
        raise ValueError("kernel degree must be 1 or 2")
    if c <= 0:
        raise ValueError("C must be positive")
    data = list(data)
    if not data:
        raise ValueError("training set must be non-empty")
    stacked = np.stack([s.vector for s in data])
    classes = tuple(sorted({s.label for s in data}))
    if len(classes) < 2:
        raise ValueError("need at least two classes to train")
    by_class = {label: stacked[[i for i, s in enumerate(data) if s.label == label]]
                for label in classes}
    machines = []
    for index, (pos, neg) in enumerate(combinations(classes, 2)):
        x = np.vstack([by_class[pos], by_class[neg]])
        y = np.concatenate(
            [np.ones(len(by_class[pos])), -np.ones(len(by_class[neg]))]
        )
        kmat = (x @ x.T + offset) ** degree
        rng = random.Random(seed * 1_000_003 + index)
        alphas, bias = _smo_pair(kmat, y, c, tol, max_passes, rng)
        keep = alphas > 0.0
        machines.append(
            BinaryMachine(pos, neg, x[keep], alphas[keep] * y[keep], bias, degree, offset)
        )
    return SvmModel(classes, tuple(machines), degree, c, offset, tol, max_passes, seed)


def svm_predict(model: SvmModel, query) -> str:
    """Vote across all pair machines.

    Each machine votes its positive label when the decision value is
    >= 0, else its negative label. Vote ties go to the tied class with
    the larger summed absolute decision value, then to the earlier
    class in the model's class order.
    """
    if not model.machines:
        raise ValueError("model has no trained machines")
    query = _as_query(query)
    votes = {label: 0 for label in model.classes}
    magnitude = {label: 0.0 for label in model.classes}
    for machine in model.machines:
        d = machine.decision(query)
        winner = machine.pos_label if d >= 0.0 else machine.neg_label
        votes[winner] += 1
        magnitude[winner] += abs(d)
    ranked = sorted(
        model.classes,
        key=lambda lab: (-votes[lab], -magnitude[lab], model.classes.index(lab)),
    )
    return ranked[0]


# --- model text format -------------------------------------------------
#
# Line 1 is the format tag, line 2 the model kind. Hyperparameters are
# "name value" lines; vectors are tab-separated records. 17 significant
# digits reproduce every float exactly.


def _fmt(x: float) -> str:
    return _REAL.format(float(x))


def save_model(model: KnnModel | SvmModel, path) -> None:
    """Write model as text; raises ValueError, writing nothing, on a label
    that check_label refuses."""
    lines = [MODEL_FORMAT]
    if isinstance(model, KnnModel):
        lines.append("kind knn")
        lines.append(f"neighbors_k {model.neighbors_k}")
        lines.append(f"distance {model.distance}")
        for s in model.training:
            lines.append("sample\t" + check_label(s.label) + "\t" + "\t".join(_fmt(v) for v in s.vector))
    elif isinstance(model, SvmModel):
        lines.append("kind svm")
        lines.append(f"degree {model.degree}")
        lines.append(f"C {_fmt(model.c)}")
        lines.append(f"offset {_fmt(model.offset)}")
        lines.append(f"tol {_fmt(model.tol)}")
        lines.append(f"max_passes {model.max_passes}")
        lines.append(f"seed {model.seed}")
        lines.append("classes\t" + "\t".join(check_label(c) for c in model.classes))
        for mach in model.machines:
            lines.append(
                "machine\t"
                + "\t".join(
                    [mach.pos_label, mach.neg_label, _fmt(mach.bias), str(len(mach.coefficients))]
                )
            )
            for coef, sv in zip(mach.coefficients, mach.support_vectors):
                lines.append("sv\t" + _fmt(coef) + "\t" + "\t".join(_fmt(v) for v in sv))
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> KnnModel | SvmModel:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MODEL_FORMAT:
        raise ValueError(f"{path} is not a recognized model file")
    fields: dict[str, str] = {}
    pos = 1
    while pos < len(lines) and "\t" not in lines[pos]:
        name, _, value = lines[pos].partition(" ")
        fields[name] = value
        pos += 1
    kind = fields.get("kind")
    if kind == "knn":
        training = []
        for line in lines[pos:]:
            parts = line.split("\t")
            if parts[0] != "sample":
                raise ValueError(f"unexpected record {parts[0]!r} in knn model")
            training.append(LabeledSample(np.array([float(v) for v in parts[2:]]), parts[1]))
        return KnnModel(tuple(training), int(fields["neighbors_k"]), fields["distance"])
    if kind == "svm":
        degree = int(fields["degree"])
        offset = float(fields["offset"])
        machines = []
        classes: tuple[str, ...] = ()
        while pos < len(lines):
            parts = lines[pos].split("\t")
            if parts[0] == "classes":
                classes = tuple(parts[1:])
                pos += 1
            elif parts[0] == "machine":
                pos_label, neg_label, bias, n_sv = parts[1], parts[2], float(parts[3]), int(parts[4])
                coefs, svs = [], []
                for rec in lines[pos + 1 : pos + 1 + n_sv]:
                    sv_parts = rec.split("\t")
                    if sv_parts[0] != "sv":
                        raise ValueError("support vector record missing")
                    coefs.append(float(sv_parts[1]))
                    svs.append([float(v) for v in sv_parts[2:]])
                dim = len(svs[0]) if svs else 0
                machines.append(
                    BinaryMachine(
                        pos_label,
                        neg_label,
                        np.array(svs, dtype=np.float64).reshape(n_sv, dim),
                        np.array(coefs, dtype=np.float64),
                        bias,
                        degree,
                        offset,
                    )
                )
                pos += 1 + n_sv
            else:
                raise ValueError(f"unexpected record {parts[0]!r} in svm model")
        return SvmModel(
            classes,
            tuple(machines),
            degree,
            float(fields["C"]),
            offset,
            float(fields["tol"]),
            int(fields["max_passes"]),
            int(fields["seed"]),
        )
    raise ValueError(f"unknown model kind {kind!r}")
