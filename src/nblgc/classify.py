"""Nearest-neighbor and support-vector classification over feature vectors.

The KNN path uses a logarithmic distance, sum of ln(1 + |a_i - b_i|)
over coordinates: a true metric, but deliberately nonlinear, so globally
rescaling all features can reorder neighbors. The SVM path trains
one-vs-one binary machines with a polynomial kernel over one training
Gram matrix, solving each dual by deterministic sequential minimal
optimization with second-order working-set selection. Both models
round-trip through a line-oriented text format without changing any
prediction.
"""

from __future__ import annotations

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


def _smo_pair(kmat: np.ndarray, y: np.ndarray, c: float, tol: float) -> tuple[np.ndarray, float, int]:
    """SMO with second-order working-set selection on one binary dual.

    Minimizes 0.5 * a.Q.a - sum(a) with Q = (y y^T) * kmat, 0 <= a <= c
    and y.a = 0 (Fan, Chen & Lin, JMLR 2005, as in LIBSVM). Each step
    takes the maximal violator i, the partner j that gains most by a
    second-order estimate, and the exact clipped optimum along that
    pair. It stops when the violation gap m(a) - M(a) is at most tol,
    when a step moves nothing, or after 1000 * m steps for m samples,
    so tol=0 ends too. Ties go to the lowest index: no randomness.
    Returns (alphas, bias, steps); the bias is the mean over free
    multipliers, else the midpoint of the bounds.
    """
    m = len(y)
    pos = y > 0
    diag = np.diag(kmat)
    alphas = np.zeros(m)
    grad = -np.ones(m)  # gradient Q.a - 1
    steps = 0
    while steps < 1000 * m:
        score = -y * grad
        up = np.where(pos, alphas < c, alphas > 0.0)
        low = np.where(pos, alphas > 0.0, alphas < c)
        i = int(np.argmax(np.where(up, score, -np.inf)))
        gain = score[i] - score  # > 0 where t violates with i
        if gain[low].max() <= tol:
            break
        curve = np.maximum(diag[i] + diag - 2.0 * kmat[i], 1e-12)
        j = int(np.argmax(np.where(low & (gain > 0.0), gain * gain / curve, -np.inf)))
        room_i = c - alphas[i] if pos[i] else alphas[i]
        room_j = alphas[j] if pos[j] else c - alphas[j]
        step = min(gain[j] / curve[j], room_i, room_j)
        new_i = (c if pos[i] else 0.0) if step == room_i else alphas[i] + y[i] * step
        new_j = (0.0 if pos[j] else c) if step == room_j else alphas[j] - y[j] * step
        if new_i == alphas[i] and new_j == alphas[j]:
            break
        grad += y * (y[i] * (new_i - alphas[i]) * kmat[i] + y[j] * (new_j - alphas[j]) * kmat[j])
        alphas[i], alphas[j] = new_i, new_j
        steps += 1
    signed = y * grad
    free = (alphas > 0.0) & (alphas < c)
    if free.any():
        return alphas, -float(signed[free].mean()), steps
    # no free multiplier: the bias lies between these bounds (LIBSVM's rho)
    only_up = np.where(pos, alphas == 0.0, alphas == c)
    return alphas, -0.5 * float(signed[only_up].min() + signed[~only_up].max()), steps


def svm_train(
    data: Sequence[LabeledSample],
    degree: int = 1,
    c: float = 1.0,
    offset: float = 1.0,
    tol: float = 1e-3,
) -> SvmModel:
    """Train a one-vs-one polynomial-kernel SVM.

    degree must be 1 or 2; C bounds every multiplier; tol is the
    violation gap at which each pair's solver stops (see _smo_pair).
    The training Gram matrix is formed once and each pair machine
    solves its dual over its own rows of it. Training is deterministic.
    """
    if degree not in (1, 2):
        raise ValueError("kernel degree must be 1 or 2")
    if c <= 0:
        raise ValueError("C must be positive")
    if not tol >= 0:
        raise ValueError("tol must be a number >= 0")
    data = list(data)
    if not data:
        raise ValueError("training set must be non-empty")
    vectors = np.stack([s.vector for s in data])
    classes = tuple(sorted({s.label for s in data}))
    if len(classes) < 2:
        raise ValueError("need at least two classes to train")
    gram = _kernel(vectors, vectors.T, offset, degree)
    rows = {label: np.array([i for i, s in enumerate(data) if s.label == label]) for label in classes}
    machines = []
    for pos, neg in combinations(classes, 2):
        idx = np.concatenate([rows[pos], rows[neg]])
        y = np.concatenate([np.ones(len(rows[pos])), -np.ones(len(rows[neg]))])
        alphas, bias, _ = _smo_pair(gram[np.ix_(idx, idx)], y, c, tol)
        keep = alphas > 0.0
        machines.append(BinaryMachine(pos, neg, idx[keep], alphas[keep] * y[keep], bias))
    return SvmModel(classes, vectors, tuple(machines), degree, c, offset, tol)


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
                    float(fields["offset"]), float(fields["tol"]))
