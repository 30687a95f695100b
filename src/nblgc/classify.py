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
through a line-oriented text format that stores the exact bits of every
array the model holds, so no prediction changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import chain, combinations, takewhile
from typing import Sequence

import numpy as np

from .options import DISTANCES, check_label, check_svm_settings

MODEL_FORMAT = "nblgc-model 5"
_REAL = "%.17g"  # 17 significant digits: exact float round-trip


@dataclass(frozen=True, eq=False)  # arrays have no single truth value: compare by identity
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


def _matrix(vectors, labels: Sequence[str], take=np.ascontiguousarray) -> np.ndarray:
    """take(vectors) as float64, by default C-ordered (a copy only if it is not), so each distance sums its
    terms in knn_predict's order. Raises ValueError unless it is a finite 2-D array with one row per label."""
    try:
        matrix = take(vectors, dtype=np.float64)
    except ValueError as err:  # rows of several lengths
        raise ValueError(f"vectors must share one dimension: {err}") from None
    if matrix.ndim != 2 or len(matrix) != len(labels) or not np.isfinite(matrix).all():
        raise ValueError(f"vectors must be a finite 2-D array with one row per label ({len(labels)})")
    return matrix


@dataclass(frozen=True, eq=False)  # arrays have no single truth value: compare by identity
class KnnModel:
    """The training vectors as rows, one label each, the vote size and the distance; built as SvmModel is,
    it raises ValueError on the vectors _matrix refuses and the settings check_knn_settings refuses."""

    vectors: np.ndarray  # (n_train, dim)
    labels: tuple[str, ...]
    neighbors_k: int = 1
    distance: str = "log"

    def __post_init__(self, take=np.array):  # np.array copies: the caller's array stays writeable; see _owned
        labels = tuple(self.labels)
        vectors = _matrix(self.vectors, labels, take)
        check_knn_settings(len(labels), self.neighbors_k, self.distance)
        vectors.flags.writeable = False
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "labels", labels)


def knn_predict(model: KnnModel, query) -> tuple[str, list[float]]:
    """Predict one label; also returns the k nearest distances, ascending:
    _knn_votes over the query's one row of distances to the training rows."""
    dists = distance_rows(model.vectors, _as_query(query), model.distance)
    guesses, nearest = _knn_votes(dists[None, :], model.labels, model.neighbors_k)
    return guesses[0], nearest[0].tolist()


def _knn_votes(dist: np.ndarray, labels: Sequence[str], neighbors_k: int) -> tuple[list[str], np.ndarray]:
    """The one KNN ranking. For each row of the (queries, n) distances to
    the rows labelled labels: the majority label of its neighbors_k
    nearest columns by stable argsort (equal distances rank in column
    order), and their distances, ascending. Vote ties go to the smallest
    summed distance, then to the first label in sorted order."""
    order = np.argsort(dist, axis=1, kind="stable")[:, :neighbors_k]
    nearest = np.take_along_axis(dist, order, axis=1)
    guesses = []
    for cols, dists in zip(order.tolist(), nearest.tolist()):
        votes: dict[str, int] = {}
        summed: dict[str, float] = {}
        for label, d in zip([labels[j] for j in cols], dists):
            votes[label] = votes.get(label, 0) + 1
            summed[label] = summed.get(label, 0.0) + d
        guesses.append(min(votes, key=lambda c: (-votes[c], summed[c], c)))
    return guesses, nearest


def _kernel(rows: np.ndarray, other: np.ndarray, offset: float, degree: int) -> np.ndarray:
    """Polynomial kernel (rows @ other + offset) ** degree, in place on the product; overflow leaves inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = rows @ other
        out += offset
        out **= degree  # ** 1 is exact and **= 2 squares, as ** 2 does: the same bits
        return out


@dataclass(frozen=True, eq=False)  # arrays have no single truth value: compare by identity
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
    store: np.ndarray = field(repr=False)

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
    Building it checks and freezes every array: the constructor copies each one, _owned does not.
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

    def __post_init__(self, take=np.array):  # np.array copies: the caller's arrays stay writeable; see _owned
        check_svm_settings(self.degree, self.c, self.offset, self.tol)
        classes = tuple(self.classes)
        vectors = take(self.vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.size == 0 or not np.isfinite(vectors).all():
            raise ValueError("vectors must be a finite, non-empty 2-D array")
        if len(set(classes)) != len(classes):
            raise ValueError("class labels must be distinct")
        if len(classes) < 2:
            raise ValueError("an svm model needs at least two classes")
        pos_class, neg_class = np.array(list(combinations(range(len(classes)), 2)), dtype=np.intp).T
        sv_count, sv_index = (take(a).reshape(-1) for a in (self.sv_count, self.sv_index))
        if any(a.size and a.dtype.kind not in "iu" for a in (sv_count, sv_index)):  # never truncate 0.7 to 0
            raise ValueError("support counts and indices must be integers")
        sv_count, sv_index = sv_count.astype(np.intp, copy=False), sv_index.astype(np.intp, copy=False)
        sv_coef, biases = (take(a, dtype=np.float64).reshape(-1) for a in (self.sv_coef, self.biases))
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


def _owned(cls, *args, **values):
    """cls(*args, **values) over arrays just made here: checked and frozen as the constructor does, not copied."""
    model = object.__new__(cls)
    vars(model).update(zip([f.name for f in fields(cls) if f.init], args), **values)
    model.__post_init__(np.asarray)
    return model


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


def svm_train(data: Sequence[LabeledSample], degree: int = 1, c: float = 1.0, offset: float = 1.0,
              tol: float = 1e-3) -> SvmModel:
    """_svm_fit over LabeledSamples, the list form the benchmark's svm child calls."""
    check_svm_settings(degree, c, offset, tol)  # a bad setting is reported before an empty set
    data = list(data)
    if not data:
        raise ValueError("training set must be non-empty")
    return _svm_fit(np.stack([s.vector for s in data]), [s.label for s in data], degree, c, offset, tol)


def _svm_fit(
    vectors: np.ndarray, labels: Sequence[str], degree: int, c: float, offset: float, tol: float
) -> SvmModel:
    """Train a one-vs-one polynomial-kernel SVM on the rows of the (n, dim)
    vectors, one label per row. vectors must be a fresh array: the model
    keeps it, frozen, with no copy.

    degree must be 1 or 2; C bounds every multiplier; tol is the
    violation gap at which each pair's solver stops (see _smo_lockstep).
    The training Gram matrix is formed once and every pair machine
    solves its dual over its own rows of it, all pairs in lockstep.
    Training is deterministic.
    """
    check_svm_settings(degree, c, offset, tol)
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise ValueError("need at least two classes to train")
    gram = _kernel(vectors, vectors.T, offset, degree)
    if not np.isfinite(gram).all():
        raise ValueError("svm kernel overflows: training vectors too large")
    rows = {label: [i for i, row_label in enumerate(labels) if row_label == label] for label in classes}
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
    return _owned(SvmModel, classes, vectors, keep.sum(axis=1), idx[keep], (alphas * y)[keep], biases,
                  degree, c, offset, tol)


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
# settings, the last of them "dim", the length of a training row. Then
# tab-separated records: the names (KNN: "labels", one per row; SVM:
# "classes"), then one record per array the model holds, in _ARRAYS
# order, "vectors" holding the training rows one after another. An array
# is one field, the base64 (RFC 4648) of its little-endian 8-byte values.
# The settings are _REAL: 17 significant digits in plain ASCII decimal
# reproduce every float. A line ends at "\n" or "\r\n".

_ARRAYS = {"knn": {"vectors": "<f8"},
           "svm": {"vectors": "<f8", "biases": "<f8", "sv_coef": "<f8", "sv_count": "<i8", "sv_index": "<i8"}}
_SETTINGS = {"knn": {"kind", "neighbors_k", "distance", "dim"}, "svm": {"kind", "degree", "C", "offset", "tol", "dim"}}
_PIECE = 3 << 14  # array bytes base64-encoded at once: a multiple of 3, so the pieces join with no padding


def save_model(model: KnnModel | SvmModel, path) -> None:
    """Write model as text; raises ValueError, writing nothing, on a label
    that check_label refuses."""
    from binascii import b2a_base64  # only a model file needs it: CLI commands never import it

    if isinstance(model, KnnModel):
        kind, names = "knn", ["labels", *model.labels]
        settings = [f"neighbors_k {model.neighbors_k}", f"distance {model.distance}"]
    elif isinstance(model, SvmModel):
        kind, names = "svm", ["classes", *model.classes]
        settings = [f"degree {model.degree}", f"C {_REAL % model.c}", f"offset {_REAL % model.offset}",
                    f"tol {_REAL % model.tol}"]
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    lines = [MODEL_FORMAT, f"kind {kind}", *settings, f"dim {model.vectors.shape[1]}", "\t".join(map(check_label, names))]
    with open(path, "wb") as fh:  # each array is encoded and written _PIECE bytes at a time: no whole record exists
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        for name, dtype in _ARRAYS[kind].items():
            raw = np.ascontiguousarray(getattr(model, name), dtype=dtype).reshape(-1).view(np.uint8)
            pieces = (b2a_base64(raw[at:at + _PIECE], newline=False) for at in range(0, raw.size, _PIECE))
            fh.writelines(chain([name.encode("ascii"), b"\t"], pieces, [b"\n"]))


def load_model(path) -> KnnModel | SvmModel:
    """Read a model that save_model wrote; raises ValueError on any
    malformed file. Only the text before each line's first tab and the
    names record are decoded as UTF-8; each array is decoded as strict
    base64 from its slice of the file's bytes, so memory is about the
    file plus the model's arrays."""
    from binascii import a2b_base64

    with open(path, "rb") as fh:
        data = fh.read()
    view, lines, start = memoryview(data), [], 0

    def text(a: int, b: int) -> str:
        # each slice starts after and ends before an ASCII byte, so it fails only where the whole file fails
        try:
            return str(view[a:b], "utf-8")
        except UnicodeDecodeError as err:
            try:  # decoded whole, so the message gives the offset in the file
                data.decode("utf-8")
            except UnicodeDecodeError as whole:
                err = whole
            raise ValueError(f"{path} is not UTF-8 text: {err}") from None

    while start < len(data) and len(lines) < 16:  # a model has at most 13 lines: a longer file is refused on 16
        end = data.find(b"\n", start)
        end = len(data) if end < 0 else end
        stop, tab = end - data.endswith(b"\r", start, end), data.find(b"\t", start, end)
        tab = stop if tab < 0 else tab  # each line without "\n" or "\r\n": text before any tab, tabs, span after it
        lines.append((text(start, tab), data.count(b"\t", start, stop), (tab + 1, stop)))
        start = end + 1
    head = [line for line, _, _ in takewhile(lambda line: not line[1], lines)]
    if not head or head[0] != MODEL_FORMAT:
        raise ValueError(f"{path} is not a recognized model file")
    settings: dict[str, str] = {}
    for name, _, value in (line.partition(" ") for line in head[1:]):  # "name value" lines
        if name in settings:
            raise ValueError(f"{path}: setting {name!r} is named twice")
        settings[name] = value
    kind, records = settings.get("kind"), lines[len(head):]
    if kind not in _ARRAYS:
        raise ValueError(f"unknown model kind {kind!r}")
    unknown = sorted(settings.keys() - _SETTINGS[kind])
    if unknown:
        raise ValueError(f"{path}: {kind} models have no setting {unknown[0]!r}")
    order = ["labels" if kind == "knn" else "classes", *_ARRAYS[kind]]
    if [name for name, _, _ in records] != order or any(tabs != 1 for _, tabs, _ in records[1:]):
        raise ValueError(f"{kind} model must end with the records " + ", ".join(order) + ", each array one field")
    names = text(*records[0][2]).split("\t")  # before any array: a file with a bad label is refused as not UTF-8
    arrays = {}
    for (name, _, (a, b)), dtype in zip(records[1:], _ARRAYS[kind].values()):
        try:  # strict: any byte outside the alphabet, non-ASCII ones included, and misplaced padding are refused
            raw = a2b_base64(view[a:b], strict_mode=True)
        except ValueError as err:  # binascii.Error
            raise ValueError(f"{name} record is not base64: {err}") from None
        if len(raw) % 8:
            raise ValueError(f"{name} record holds {len(raw)} bytes, not whole 8-byte values")
        arrays[name] = np.frombuffer(raw, dtype=dtype)  # read-only, over the decoded bytes
    try:
        dim, size = int(settings["dim"]), arrays["vectors"].size
        if dim < 1 or size % dim:
            raise ValueError(f"vectors record holds {size} values, not whole rows of dim {dim} >= 1")
        arrays["vectors"] = arrays["vectors"].reshape(-1, dim)
        if kind == "knn":
            return _owned(KnnModel, arrays["vectors"], names, int(settings["neighbors_k"]), settings["distance"])
        return _owned(SvmModel, names, degree=int(settings["degree"]), c=float(settings["C"]),
                      offset=float(settings["offset"]), tol=float(settings["tol"]), **arrays)
    except KeyError as err:
        raise ValueError(f"{path}: missing setting {err}") from None
