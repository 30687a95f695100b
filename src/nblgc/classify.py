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
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Sequence

import numpy as np

MODEL_FORMAT = "nblgc-model 2"
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


DISTANCES = ("log", "euclidean")


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
        if self.distance not in DISTANCES:
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


def _kernel(rows: np.ndarray, other: np.ndarray, offset: float, degree: int) -> np.ndarray:
    """Polynomial kernel (rows @ other + offset) ** degree."""
    return (rows @ other + offset) ** degree


def kernel_poly(a, b, degree: int = 1, offset: float = 1.0) -> float:
    """(a . b + offset) ** degree."""
    a, b = _as_vector(a), _as_vector(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return float(_kernel(a, b, offset, degree))


@dataclass(frozen=True)
class BinaryMachine:
    """One trained pair machine: positive label vs negative label. Its support
    vectors are rows ``indices`` of the model's ``vectors``, which the model
    binds to ``store`` (not a copy) when it is built."""

    pos_label: str
    neg_label: str
    indices: np.ndarray  # (n_sv,) rows of SvmModel.vectors
    coefficients: np.ndarray  # (n_sv,), multiplier * label sign
    bias: float
    store: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        idx = np.array(self.indices, dtype=np.intp).reshape(-1)
        coef = np.array(self.coefficients, dtype=np.float64).reshape(-1)
        if idx.size != coef.size:
            raise ValueError("a machine needs one coefficient per support vector")
        if not (np.isfinite(coef).all() and np.isfinite(self.bias)):
            raise ValueError("machine coefficients and bias must be finite")
        idx.flags.writeable = False
        coef.flags.writeable = False
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "coefficients", coef)

    @property
    def support_vectors(self) -> np.ndarray:
        """(n_sv, dim), gathered from the model's vectors on each call."""
        return self.store[self.indices]


@dataclass(frozen=True)
class SvmModel:
    """One-vs-one ensemble over the sorted class list.

    ``vectors`` holds each training vector once, in training order; each
    machine keeps indices into it and one coefficient per index.
    """

    classes: tuple[str, ...]
    vectors: np.ndarray  # (n_train, dim)
    machines: tuple[BinaryMachine, ...]
    degree: int
    c: float
    offset: float
    tol: float
    max_passes: int
    seed: int

    def __post_init__(self):
        classes = tuple(self.classes)
        vectors = np.array(self.vectors, dtype=np.float64)  # a copy: the caller's array stays writeable
        if vectors.ndim != 2 or vectors.size == 0 or not np.isfinite(vectors).all():
            raise ValueError("vectors must be a finite, non-empty 2-D array")
        vectors.flags.writeable = False
        for m in self.machines:
            if m.pos_label not in classes or m.neg_label not in classes:
                raise ValueError(f"machine {m.pos_label!r}/{m.neg_label!r} names a label not in classes")
            if m.indices.size and not (0 <= m.indices.min() and m.indices.max() < len(vectors)):
                raise ValueError("support vector index outside vectors")
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "machines", tuple(replace(m, store=vectors) for m in self.machines))


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
    vectors = np.stack([s.vector for s in data])
    classes = tuple(sorted({s.label for s in data}))
    if len(classes) < 2:
        raise ValueError("need at least two classes to train")
    rows = {label: np.array([i for i, s in enumerate(data) if s.label == label]) for label in classes}
    machines = []
    for index, (pos, neg) in enumerate(combinations(classes, 2)):
        idx = np.concatenate([rows[pos], rows[neg]])
        x = vectors[idx]
        y = np.concatenate([np.ones(len(rows[pos])), -np.ones(len(rows[neg]))])
        # one product per pair: slicing a full Gram matrix rounds differently
        kmat = _kernel(x, x.T, offset, degree)
        rng = random.Random(seed * 1_000_003 + index)
        alphas, bias = _smo_pair(kmat, y, c, tol, max_passes, rng)
        keep = alphas > 0.0
        machines.append(BinaryMachine(pos, neg, idx[keep], alphas[keep] * y[keep], bias))
    return SvmModel(classes, vectors, tuple(machines), degree, c, offset, tol, max_passes, seed)


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
    if query.size != model.vectors.shape[1]:
        raise ValueError(f"length mismatch: {query.size} vs {model.vectors.shape[1]}")
    row = _kernel(model.vectors, query, model.offset, model.degree)
    votes = {label: 0 for label in model.classes}
    magnitude = {label: 0.0 for label in model.classes}
    for machine in model.machines:
        d = float(machine.coefficients @ row[machine.indices] + machine.bias)
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
# digits reproduce every float exactly. An SVM file holds its classes,
# one "vector" record per training row, then each machine's record
# followed by one "sv <index> <coefficient>" record per support vector.


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
        lines += ["vector\t" + "\t".join(_fmt(v) for v in row) for row in model.vectors]
        for mach in model.machines:
            lines.append(f"machine\t{mach.pos_label}\t{mach.neg_label}\t{_fmt(mach.bias)}\t{mach.indices.size}")
            lines += [f"sv\t{i}\t{_fmt(c)}" for i, c in zip(mach.indices, mach.coefficients)]
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> KnnModel | SvmModel:
    """Read a model that save_model wrote; raises ValueError on any malformed file."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MODEL_FORMAT:
        raise ValueError(f"{path} is not a recognized model file")
    pos = 1
    while pos < len(lines) and "\t" not in lines[pos]:
        pos += 1
    fields = dict(line.partition(" ")[::2] for line in lines[1:pos])  # "name value" lines
    records = [line.split("\t") for line in lines[pos:]]
    try:
        return _parse_model(fields, records)
    except (KeyError, IndexError) as err:
        raise ValueError(f"{path}: missing field or value {err}") from None


def _parse_model(fields: dict[str, str], records: list[list[str]]) -> KnnModel | SvmModel:
    kind = fields.get("kind")
    if kind == "knn":
        training = []
        for parts in records:
            if parts[0] != "sample":
                raise ValueError(f"unexpected record {parts[0]!r} in knn model")
            training.append(LabeledSample(np.array([float(v) for v in parts[2:]]), parts[1]))
        return KnnModel(tuple(training), int(fields["neighbors_k"]), fields["distance"])
    if kind != "svm":
        raise ValueError(f"unknown model kind {kind!r}")
    if not records or records[0][0] != "classes":
        raise ValueError("svm model has no classes record")
    classes = tuple(records[0][1:])
    vectors = []
    pos = 1
    while pos < len(records) and records[pos][0] == "vector":
        vectors.append([float(v) for v in records[pos][1:]])
        pos += 1
    if len({len(v) for v in vectors}) > 1:
        raise ValueError("vector records differ in length")
    machines = []
    while pos < len(records):
        if records[pos][0] != "machine" or len(records[pos]) != 5:
            raise ValueError(f"unexpected record {records[pos][0]!r} in svm model")
        _, pos_label, neg_label, bias, n_sv = records[pos]
        svs = records[pos + 1 : pos + 1 + int(n_sv)]
        if len(svs) != int(n_sv) or any(r[0] != "sv" or len(r) != 3 for r in svs):
            raise ValueError(f"machine {pos_label}/{neg_label} is not followed by {n_sv} sv records")
        machines.append(
            BinaryMachine(pos_label, neg_label, [int(r[1]) for r in svs], [float(r[2]) for r in svs], float(bias))
        )
        pos += 1 + len(svs)
    if len(machines) != len(classes) * (len(classes) - 1) // 2:
        raise ValueError(f"{len(machines)} machines for {len(classes)} classes")
    return SvmModel(classes, vectors, tuple(machines), int(fields["degree"]), float(fields["C"]),
                    float(fields["offset"]), float(fields["tol"]), int(fields["max_passes"]), int(fields["seed"]))
