"""Nearest-neighbor and support-vector classification over feature vectors.

The KNN path uses a logarithmic distance, sum of ln(1 + |a_i - b_i|)
over coordinates: a true metric, but deliberately nonlinear, so globally
rescaling all features can reorder neighbors. The SVM path trains
one-vs-one binary machines with a polynomial kernel over one training
Gram matrix. One deterministic sequential minimal optimization with
second-order working-set selection solves every pair's dual in
lockstep: each step advances all unfinished pairs at once, reading
kernel rows straight from the Gram matrix. Prediction reads a flat
store of every machine's support entries (owner machine, row,
coefficient), so one kernel row and one weighted bincount give all
decision values, and bincounts tally the vote. Both models round-trip
through a line-oriented text format without changing any prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice, repeat, takewhile
from typing import Sequence

import numpy as np

from .options import DISTANCES, check_label, check_svm_settings

MODEL_FORMAT = "nblgc-model 2"
_REAL = "%.17g"  # 17 significant digits: exact float round-trip


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


def _as_query(a) -> np.ndarray:
    query = np.asarray(a, dtype=np.float64).reshape(-1)
    if not np.isfinite(query).all():
        raise ValueError("query vector must be finite")
    return query


def distance_rows(matrix: np.ndarray, query: np.ndarray, distance: str) -> np.ndarray:
    """Distance from the 1-D query to each row of matrix: the log distance,
    sum of ln(1 + |a_i - b_i|), or the Euclidean one. Raises ValueError
    unless the query is as long as a row, distance is one of DISTANCES
    and every distance is finite (finite vectors near 1e154 apart
    overflow the Euclidean square)."""
    if query.size != matrix.shape[1]:
        raise ValueError(f"length mismatch: {query.size} vs {matrix.shape[1]}")
    if distance not in DISTANCES:
        raise ValueError(f"unknown distance {distance!r}")
    with np.errstate(over="ignore"):  # an overflow is the ValueError below, not a warning first
        terms = np.subtract(matrix, query)  # the only temporary: each step below works in place
        np.abs(terms, out=terms)
        if distance == "log":
            out = np.log1p(terms, out=terms).sum(axis=1)
        else:
            out = np.sqrt(np.square(terms, out=terms).sum(axis=1))
    if not np.isfinite(out).all():
        raise ValueError(f"{distance} distance overflows: vectors too far apart")
    return out


def check_knn_settings(n_train: int, neighbors_k: int, distance: str) -> None:
    """Raise ValueError unless n_train samples can vote with these settings."""
    if n_train < 1:
        raise ValueError("training set must be non-empty")
    if not 1 <= neighbors_k <= n_train:
        raise ValueError("neighbors_k must be in [1, number of training samples]")
    if distance not in DISTANCES:
        raise ValueError(f"unknown distance {distance!r}")


@dataclass(frozen=True)
class KnnModel:
    """All training samples plus the vote size and distance choice."""

    training: tuple[LabeledSample, ...]
    neighbors_k: int = 1
    distance: str = "log"
    matrix: np.ndarray = field(init=False, compare=False, repr=False)  # training vectors as rows

    def __post_init__(self):
        training = tuple(self.training)
        if any(s.vector.size != training[0].vector.size for s in training):
            raise ValueError("training vectors must share one dimension")
        check_knn_settings(len(training), self.neighbors_k, self.distance)
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
    dists = distance_rows(model.matrix, _as_query(query), model.distance)
    order = np.argsort(dists, kind="stable")[: model.neighbors_k]
    nearest = [(model.training[i].label, float(dists[i])) for i in order]
    return vote(nearest), [d for _, d in nearest]


def vote(nearest: Sequence[tuple[str, float]]) -> str:
    """The label most of the nearest (label, distance) pairs carry, given
    nearest first. Ties go to the smallest summed distance, then to the
    first label in sorted order."""
    votes: dict[str, int] = {}
    summed: dict[str, float] = {}
    for label, d in nearest:
        votes[label] = votes.get(label, 0) + 1
        summed[label] = summed.get(label, 0.0) + d
    return min(votes, key=lambda c: (-votes[c], summed[c], c))


def _kernel(rows: np.ndarray, other: np.ndarray, offset: float, degree: int) -> np.ndarray:
    """Polynomial kernel (rows @ other + offset) ** degree; an overflow leaves inf or nan, which callers refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (rows @ other + offset) ** degree


@dataclass(frozen=True)
class BinaryMachine:
    """A read-only view of one pair machine of an SvmModel: positive label
    vs negative label, with one coefficient per support vector, row
    ``indices`` of ``store`` (the model's ``vectors``). Only
    SvmModel.machines builds it, and nothing in nblgc reads it: it is
    the view the benchmark's span counters read."""

    pos_label: str
    neg_label: str
    indices: np.ndarray  # (n_sv,) rows of store
    coefficients: np.ndarray  # (n_sv,), multiplier * label sign
    bias: float
    store: np.ndarray = field(compare=False, repr=False)

    @property
    def support_vectors(self) -> np.ndarray:
        """(n_sv, dim), gathered from the model's vectors on each call."""
        return self.store[self.indices]


@dataclass(frozen=True, eq=False)  # arrays have no single truth value: compare by identity
class SvmModel:
    """One-vs-one ensemble over the sorted class list, as one flat store.

    ``vectors`` holds each training vector once, in training order.
    Machine b is pair b of combinations(classes, 2), first class
    positive: it has bias ``biases[b]`` and the next ``sv_count[b]``
    support entries (``sv_index``, ``sv_coef``). There are at least two
    classes and settings svm_train accepts, so every model can predict.
    Building it copies, checks and freezes every array.
    """

    classes: tuple[str, ...]
    vectors: np.ndarray  # (n_train, dim)
    sv_count: np.ndarray  # support entries per machine
    sv_index: np.ndarray  # row of vectors, per support entry
    sv_coef: np.ndarray  # multiplier * label sign, per support entry
    biases: np.ndarray  # one per machine
    degree: int
    c: float
    offset: float
    tol: float
    sv_owner: np.ndarray = field(init=False, compare=False, repr=False)  # machine of each support entry
    pos_class: np.ndarray = field(init=False, compare=False, repr=False)  # index in classes, per machine
    neg_class: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_svm_settings(self.degree, self.c, self.offset, self.tol)
        classes = tuple(self.classes)
        vectors = np.array(self.vectors, dtype=np.float64)  # a copy: the caller's array stays writeable
        if vectors.ndim != 2 or vectors.size == 0 or not np.isfinite(vectors).all():
            raise ValueError("vectors must be a finite, non-empty 2-D array")
        if len(set(classes)) != len(classes):
            raise ValueError("class labels must be distinct")
        if len(classes) < 2:
            raise ValueError("an svm model needs at least two classes")
        pos_class, neg_class = np.array(list(combinations(range(len(classes)), 2)), dtype=np.intp).T
        sv_count, sv_index = (np.array(a).reshape(-1) for a in (self.sv_count, self.sv_index))  # copies
        if any(a.size and a.dtype.kind not in "iu" for a in (sv_count, sv_index)):  # never truncate 0.7 to 0
            raise ValueError("support counts and indices must be integers")
        sv_count, sv_index = sv_count.astype(np.intp, copy=False), sv_index.astype(np.intp, copy=False)
        sv_coef, biases = (np.array(a, dtype=np.float64).reshape(-1) for a in (self.sv_coef, self.biases))
        if len(biases) != len(pos_class):
            raise ValueError("machines must cover each pair of classes exactly once "
                             f"({len(biases)} machines for {len(classes)} classes)")
        if len(sv_count) != len(biases) or sv_count.min() < 0 or not sv_count.sum() == sv_index.size == sv_coef.size:
            raise ValueError("sv_count needs one count >= 0 per machine, summing to the support entries")
        if not (np.isfinite(sv_coef).all() and np.isfinite(biases).all()):
            raise ValueError("machine coefficients and bias must be finite")
        if sv_index.size and not (0 <= sv_index.min() and sv_index.max() < len(vectors)):
            raise ValueError("support vector index outside vectors")
        arrays = {"vectors": vectors, "sv_count": sv_count, "sv_index": sv_index, "sv_coef": sv_coef,
                  "biases": biases, "sv_owner": np.repeat(np.arange(len(biases)), sv_count),
                  "pos_class": pos_class, "neg_class": neg_class}
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "classes", classes)

    @property
    def machines(self) -> tuple[BinaryMachine, ...]:
        """Read-only views of the machines in pair order, built on each call: keep it off hot paths."""
        ends = np.cumsum(self.sv_count).tolist()
        return tuple(BinaryMachine(self.classes[p], self.classes[n], self.sv_index[a:b], self.sv_coef[a:b], bias,
                                   self.vectors)
                     for p, n, a, b, bias in zip(self.pos_class, self.neg_class, [0, *ends], ends, self.biases.tolist()))


def _smo_lockstep(
    gram: np.ndarray, idx: np.ndarray, y: np.ndarray, c: float, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SMO with second-order working-set selection on every pair's binary dual at once.

    Row b of idx names pair b's rows of gram and row b of y their labels,
    +1 or -1, padded at the end with label 0 to the longest pair. Pair b
    minimizes 0.5 * a.Q.a - sum(a) with Q = (y y^T) * gram[idx, idx],
    0 <= a <= c and y.a = 0 (Fan, Chen & Lin, JMLR 2005, as in LIBSVM).
    In each step every running pair takes its maximal violator i, the
    partner j that gains most by a second-order estimate, and the exact
    clipped optimum along that pair. Kernel rows are read from gram, so
    memory stays O(pairs * m). A pair stops when its violation gap
    m(a) - M(a) is at most tol, when a step moves nothing, or after
    1000 * m steps for its m samples, so tol=0 ends too. Padding is in
    neither the up nor the low set, so each pair takes exactly the steps
    it would take alone. Ties go to the lowest index: no randomness.
    Returns (alphas, biases, steps) per pair.
    """
    valid, pos = y != 0.0, y > 0.0
    cap = 1000 * valid.sum(axis=1)
    diag = gram.diagonal()[idx]
    alphas = np.zeros(y.shape)
    grad = np.where(valid, -1.0, 0.0)  # gradient Q.a - 1
    steps = np.zeros(len(y), dtype=np.intp)
    run = np.arange(len(y))  # pairs still running
    while run.size:
        a, g, yr, ok, p, kr, dr = alphas[run], grad[run], y[run], valid[run], pos[run], idx[run], diag[run]
        rows = np.arange(run.size)
        score = -yr * g
        up = ok & np.where(p, a < c, a > 0.0)
        low = ok & np.where(p, a > 0.0, a < c)
        i = np.argmax(np.where(up, score, -np.inf), axis=1)
        gain = score[rows, i][:, None] - score  # > 0 where t violates with i
        kern_i = gram[kr[rows, i][:, None], kr]
        curve = np.maximum(dr[rows, i][:, None] + dr - 2.0 * kern_i, 1e-12)
        j = np.argmax(np.where(low & (gain > 0.0), gain * gain / curve, -np.inf), axis=1)
        a_i, a_j, y_i, y_j = a[rows, i], a[rows, j], yr[rows, i], yr[rows, j]
        room_i = np.where(y_i > 0.0, c - a_i, a_i)
        room_j = np.where(y_j > 0.0, a_j, c - a_j)
        step = np.minimum(np.minimum(gain[rows, j] / curve[rows, j], room_i), room_j)
        new_i = np.where(step == room_i, np.where(y_i > 0.0, c, 0.0), a_i + y_i * step)
        new_j = np.where(step == room_j, np.where(y_j > 0.0, 0.0, c), a_j - y_j * step)
        go = (np.where(low, gain, -np.inf).max(axis=1) > tol) & ((new_i != a_i) | (new_j != a_j))
        kern_j = gram[kr[rows, j][:, None], kr]
        g += yr * ((y_i * (new_i - a_i))[:, None] * kern_i + (y_j * (new_j - a_j))[:, None] * kern_j)
        # a pair that stops keeps its state from before this step
        run = run[go]
        grad[run] = g[go]
        alphas[run, i[go]], alphas[run, j[go]] = new_i[go], new_j[go]
        steps[run] += 1
        run = run[steps[run] < cap[run]]
    biases = np.array([_bias(a[ok], yb[ok], gb[ok], c) for a, yb, gb, ok in zip(alphas, y, grad, valid)])
    return alphas, biases, steps


def _bias(alphas: np.ndarray, y: np.ndarray, grad: np.ndarray, c: float) -> float:
    """The mean of -y * grad over free multipliers, else the midpoint of its bounds."""
    signed = y * grad
    free = (alphas > 0.0) & (alphas < c)
    if free.any():
        return -float(signed[free].mean())
    # no free multiplier: the bias lies between these bounds (LIBSVM's rho)
    only_up = np.where(y > 0.0, alphas == 0.0, alphas == c)
    return -0.5 * float(signed[only_up].min() + signed[~only_up].max())


def svm_train(
    data: Sequence[LabeledSample],
    degree: int = 1,
    c: float = 1.0,
    offset: float = 1.0,
    tol: float = 1e-3,
) -> SvmModel:
    """Train a one-vs-one polynomial-kernel SVM.

    degree must be 1 or 2; C bounds every multiplier; tol is the
    violation gap at which each pair's solver stops (see _smo_lockstep).
    The training Gram matrix is formed once and every pair machine
    solves its dual over its own rows of it, all pairs in lockstep.
    Training is deterministic.
    """
    check_svm_settings(degree, c, offset, tol)
    data = list(data)
    if not data:
        raise ValueError("training set must be non-empty")
    vectors = np.stack([s.vector for s in data])
    classes = tuple(sorted({s.label for s in data}))
    if len(classes) < 2:
        raise ValueError("need at least two classes to train")
    gram = _kernel(vectors, vectors.T, offset, degree)
    if not np.isfinite(gram).all():
        raise ValueError("svm kernel overflows: training vectors too large")
    rows = {label: [i for i, s in enumerate(data) if s.label == label] for label in classes}
    pairs = list(combinations(classes, 2))
    width = max(len(rows[pos]) + len(rows[neg]) for pos, neg in pairs)
    idx = np.zeros((len(pairs), width), dtype=np.intp)
    y = np.zeros((len(pairs), width))
    for b, (pos, neg) in enumerate(pairs):
        n_pos, m = len(rows[pos]), len(rows[pos]) + len(rows[neg])
        idx[b, :m] = rows[pos] + rows[neg]
        y[b, :n_pos], y[b, n_pos:m] = 1.0, -1.0
    alphas, biases, _ = _smo_lockstep(gram, idx, y, c, tol)
    keep = alphas > 0.0  # row-major: the kept entries come machine after machine
    return SvmModel(classes, vectors, keep.sum(axis=1), idx[keep], (alphas * y)[keep], biases, degree, c, offset, tol)


def _decision_values(model: SvmModel, query) -> np.ndarray:
    """Every machine's decision value for one query, in machine order."""
    query = _as_query(query)
    if query.size != model.vectors.shape[1]:
        raise ValueError(f"length mismatch: {query.size} vs {model.vectors.shape[1]}")
    row = _kernel(model.vectors, query, model.offset, model.degree)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the ValueError below, not a warning first
        terms = model.sv_coef * row[model.sv_index]
        values = np.bincount(model.sv_owner, terms, minlength=len(model.biases)) + model.biases
    if not np.isfinite(values).all():
        raise ValueError("svm decision value overflows: query too large")
    return values


def svm_predict(model: SvmModel, query) -> str:
    """Vote across all pair machines.

    Each machine votes its positive label when the decision value is
    >= 0, else its negative label. Vote ties go to the tied class with
    the larger summed absolute decision value, then to the earlier
    class in the model's class order.
    """
    d = _decision_values(model, query)
    winner = np.where(d >= 0.0, model.pos_class, model.neg_class)
    votes = np.bincount(winner, minlength=len(model.classes))
    magnitude = np.bincount(winner, np.abs(d), minlength=len(model.classes))
    return model.classes[np.lexsort((-magnitude, -votes))[0]]  # stable: class order breaks ties


# --- model text format -------------------------------------------------
#
# Line 1 is the format tag, line 2 the model kind, then "name value"
# settings, then tab-separated records. Reals are _REAL: 17 significant
# digits in plain ASCII decimal reproduce every float. KNN: one "sample
# <label> <values>" record per training row. SVM: the classes, one "vector
# <values>" record per training row, then per machine, in pair order, its
# record and one "sv <index> <coefficient>" record per support vector. One
# np.loadtxt reads each block of values; unlike float() it refuses "1_0".


def _format_rows(heads, matrix: np.ndarray) -> list[str]:
    """One record per row of matrix: its head, then its values, tab-separated."""
    values = ("\t" + _REAL) * matrix.shape[1]
    return [head + values % tuple(row) for head, row in zip(heads, matrix.tolist())]


def _parse_rows(texts: list[str], ragged: str) -> np.ndarray:
    """The matrix of rows of tab-separated values; ValueError(ragged) if rows differ in length."""
    if len({text.count("\t") for text in texts}) > 1:
        raise ValueError(ragged)
    if "" in texts:  # np.loadtxt would skip the row
        raise ValueError("could not convert string '' to float64: a record has no values")
    if not texts:
        return np.empty((0, 0))
    return np.loadtxt(texts, delimiter="\t", comments=None, dtype=np.float64, ndmin=2)


def save_model(model: KnnModel | SvmModel, path) -> None:
    """Write model as text; raises ValueError, writing nothing, on a label
    that check_label refuses."""
    lines = [MODEL_FORMAT]
    if isinstance(model, KnnModel):
        lines += ["kind knn", f"neighbors_k {model.neighbors_k}", f"distance {model.distance}"]
        lines += _format_rows(["sample\t" + check_label(s.label) for s in model.training], model.matrix)
    elif isinstance(model, SvmModel):
        lines += ["kind svm", f"degree {model.degree}", f"C {_REAL % model.c}", f"offset {_REAL % model.offset}",
                  f"tol {_REAL % model.tol}", "classes\t" + "\t".join(check_label(c) for c in model.classes)]
        lines += _format_rows(repeat("vector"), model.vectors)
        entries = zip(model.sv_index.tolist(), model.sv_coef.tolist())  # machine after machine
        sv = "sv\t%d\t" + _REAL
        for (pos, neg), bias, n in zip(combinations(model.classes, 2), model.biases.tolist(), model.sv_count.tolist()):
            lines.append(f"machine\t{pos}\t{neg}\t{_REAL % bias}\t{n}")
            lines += [sv % entry for entry in islice(entries, n)]
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
    pos = 1 + sum(1 for _ in takewhile(lambda line: "\t" not in line, lines[1:]))
    fields: dict[str, str] = {}
    for name, _, value in (line.partition(" ") for line in lines[1:pos]):  # "name value" lines
        if name in fields:
            raise ValueError(f"{path}: setting {name!r} is named twice")
        fields[name] = value
    try:
        return _parse_model(fields, lines[pos:])
    except (KeyError, IndexError) as err:
        raise ValueError(f"{path}: missing field or value {err}") from None


def _parse_model(fields: dict[str, str], lines: list[str]) -> KnnModel | SvmModel:
    kind = fields.get("kind")
    if kind == "knn":
        records = [line.split("\t", 2) for line in lines]  # tag, label, values
        if unexpected := [tag for tag, *_ in records if tag != "sample"]:
            raise ValueError(f"unexpected record {unexpected[0]!r} in knn model")
        matrix = _parse_rows([parts[2] for parts in records], "training vectors must share one dimension")
        training = tuple(LabeledSample(row, parts[1]) for row, parts in zip(matrix, records))
        return KnnModel(training, int(fields["neighbors_k"]), fields["distance"])
    if kind != "svm":
        raise ValueError(f"unknown model kind {kind!r}")
    tag, *classes = lines[0].split("\t") if lines else [None]
    if tag != "classes":
        raise ValueError("svm model has no classes record")
    end = 1 + sum(1 for _ in takewhile(lambda line: line.startswith("vector\t"), lines[1:]))
    vectors = _parse_rows([line[len("vector\t"):] for line in lines[1:end]], "vector records differ in length")
    records = iter([line.split("\t") for line in lines[end:]])
    heads, svs = [], []
    for head in records:  # a machine record, then its sv records
        if head[0] != "machine" or len(head) != 5:
            raise ValueError(f"unexpected record {head[0]!r} in svm model")
        machine_svs = list(islice(records, max(int(head[4]), 0)))
        if len(machine_svs) != int(head[4]) or any(r[0] != "sv" or len(r) != 3 for r in machine_svs):
            raise ValueError(f"machine {head[1]}/{head[2]} is not followed by {head[4]} sv records")
        heads.append(head)
        svs += machine_svs
    model = SvmModel(classes, vectors, [int(m[4]) for m in heads], [int(r[1]) for r in svs],
                     [float(r[2]) for r in svs], [float(m[3]) for m in heads], int(fields["degree"]),
                     float(fields["C"]), float(fields["offset"]), float(fields["tol"]))
    for b, (m, pair) in enumerate(zip(heads, combinations(model.classes, 2))):
        if (m[1], m[2]) != pair:  # machine b must be class pair b, in that orientation
            raise ValueError(f"machine {b} is {m[1]}/{m[2]}, not the class pair {pair[0]}/{pair[1]}")
    return model
