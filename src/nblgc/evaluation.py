"""Splits, accuracy evaluation, k-fold cross-validation, verification ROC.

The functions here compute results only: an EvalReport holds counts,
and the settings a run echoes into its CSVs are the caller's, passed to
each writer as a dict. All randomness is seeded and every CSV this
module writes is byte-stable across reruns of the same configuration.
Accuracies, FAR, and GAR are percentages.
"""

from __future__ import annotations

import csv
import itertools
import os
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .classify import LabeledSample, _knn_votes, _svm_fit, check_knn_settings, distance_rows, svm_predict

REPORT_DIGITS = 6  # significant digits in report/fold/ROC CSVs


class RocPoint(NamedTuple):
    threshold: float
    far: float  # percent of impostor trials accepted
    gar: float  # percent of genuine trials accepted


@dataclass(frozen=True)
class SplitSpec:
    """Per-class split: first n_train in load order, or a seeded shuffle."""

    n_train: int
    shuffle_seed: int | None = None


@dataclass(frozen=True)
class ClassifierConfig:
    kind: str = "knn"  # "knn" | "svm"
    neighbors_k: int = 1
    distance: str = "log"
    degree: int = 1
    c: float = 1.0
    offset: float = 1.0
    tol: float = 1e-3
    zscore: bool = False


@dataclass(frozen=True)
class EvalReport:
    per_class: dict[str, tuple[int, int]]  # label -> (correct, total)
    fold_accuracies: tuple[float, ...] | None = None

    @property
    def correct(self) -> int:
        return sum(c for c, _ in self.per_class.values())

    @property
    def total(self) -> int:
        return sum(t for _, t in self.per_class.values())

    @property
    def accuracy(self) -> float:
        """Percent, pooled over every prediction."""
        return 100.0 * self.correct / self.total


def split_rows(labels: Sequence[str], spec: SplitSpec) -> tuple[list[int], list[int]]:
    """Split every class's rows into n_train training rows and the rest.

    Classes are processed in sorted label order. Without a shuffle seed
    the first n_train rows per class (load order) train; with one, a
    seeded permutation picks them. Every class must keep at least one
    test row. Returns (train rows, test rows), indices into labels.
    """
    if spec.n_train < 1:
        raise ValueError("n_train must be at least 1")
    if not len(labels):
        raise ValueError("cannot split an empty dataset")
    groups: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    rng = random.Random(spec.shuffle_seed)
    train, test = [], []
    for label in sorted(groups):
        rows = groups[label]
        if spec.n_train >= len(rows):
            raise ValueError(f"class {label!r} has {len(rows)} samples; n_train={spec.n_train} leaves no test data")
        if spec.shuffle_seed is not None:
            rng.shuffle(rows)
        train += rows[: spec.n_train]
        test += rows[spec.n_train :]
    return train, test


def split_per_class(data: Sequence[LabeledSample], spec: SplitSpec) -> tuple[list[LabeledSample], list[LabeledSample]]:
    """The samples at split_rows' train and test rows: the list form the
    benchmark's svm child calls."""
    data = list(data)
    train, test = split_rows([s.label for s in data], spec)
    return [data[i] for i in train], [data[i] for i in test]


def _checked(vectors, labels: Sequence[str]) -> np.ndarray:
    """vectors as a C-ordered float64 array (a copy only if it is not one),
    so each distance sums its terms in the order knn_predict's do."""
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or len(vectors) != len(labels) or not np.isfinite(vectors).all():
        raise ValueError(f"vectors must be a finite 2-D array with one row per label ({len(labels)})")
    return vectors


def _predict_all(vectors: np.ndarray, labels: Sequence[str], train_rows, test_rows, cfg: ClassifierConfig) -> list[str]:
    if cfg.zscore:  # the training rows' statistics, applied to every row
        mean, std = vectors[train_rows].mean(axis=0), vectors[train_rows].std(axis=0)
        std[std == 0.0] = 1.0
        vectors = (vectors - mean) / std
    train_labels = [labels[i] for i in train_rows]
    if cfg.kind == "knn":  # KnnModel's rule: without it argsort[:k] could vote over fewer rows
        check_knn_settings(len(train_rows), cfg.neighbors_k, cfg.distance)
        dist = _cross_distances(vectors, train_rows, test_rows, cfg.distance, 1)
        return _knn_votes(dist, train_labels, cfg.neighbors_k)[0]
    if cfg.kind == "svm":
        model = _svm_fit(vectors[train_rows], train_labels, cfg.degree, cfg.c, cfg.offset, cfg.tol)
        return [svm_predict(model, vectors[i]) for i in test_rows]
    raise ValueError(f"unknown classifier kind {cfg.kind!r}")


def _count(labels: Sequence[str], predicted: Sequence[str]) -> EvalReport:
    per_class: dict[str, list[int]] = {}
    for label, guess in zip(labels, predicted):
        counts = per_class.setdefault(label, [0, 0])
        counts[0] += int(guess == label)
        counts[1] += 1
    return EvalReport({label: (c, t) for label, (c, t) in sorted(per_class.items())})


def evaluate(
    vectors: np.ndarray, labels: Sequence[str], train_rows: Sequence[int], test_rows: Sequence[int],
    cfg: ClassifierConfig = ClassifierConfig(),
) -> EvalReport:
    """Train on the train rows of the (n, dim) vectors, predict the test
    rows, count hits per class; labels holds one label per row."""
    vectors = _checked(vectors, labels)
    if not len(train_rows) or not len(test_rows):
        raise ValueError("train and test sets must both be non-empty")
    return _count([labels[i] for i in test_rows], _predict_all(vectors, labels, train_rows, test_rows, cfg))


def pool_size(workers: int, n_tasks: int) -> int:
    """Threads a distance loop starts: no more than the tasks or the CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(workers, n_tasks, cpus)


def _striped_map(fn: Callable, items: Sequence, workers: int) -> list:
    """[fn(x) for x in items]; with w = pool_size > 1, thread t maps the
    stripe items[t::w], and the first failed stripe's error is raised. fn
    may call only distance_rows, whose numpy work releases the GIL: a
    tracer keeps one span stack per process."""
    w = pool_size(workers, len(items))
    if w <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor  # imported only when a thread starts

    out = [None] * len(items)
    with ThreadPoolExecutor(w) as pool:
        for t, results in enumerate(pool.map(lambda t: [fn(x) for x in items[t::w]], range(w))):
            out[t::w] = results
    return out


def kfold(
    vectors: np.ndarray, labels: Sequence[str], k: int = 10, cfg: ClassifierConfig = ClassifierConfig(), workers: int = 1
) -> EvalReport:
    """Stratified k-fold cross-validation over the rows of the (n, dim)
    vectors, one label per row.

    Each class's rows spread round-robin over the folds in load order,
    so with at least k rows per class every fold sees every class;
    smaller classes simply occupy fewer folds. Counts pool every fold's
    predictions; fold_accuracies holds one accuracy per fold. Settings
    and folds are checked first. Then KNN without zscore scores each
    pair once (_knn_cross_guesses), on up to workers threads; others
    train once per fold, serially.
    """
    vectors = _checked(vectors, labels)
    if k < 2:
        raise ValueError("k must be at least 2")
    if len(labels) < k:
        raise ValueError(f"need at least k={k} samples, got {len(labels)}")
    seen = defaultdict(itertools.count)  # each class runs its own round robin, in load order
    fold_of = [next(seen[label]) % k for label in labels]
    folds = [[i for i, f in enumerate(fold_of) if f == fold] for fold in range(k)]
    walk = cfg.kind == "knn" and not cfg.zscore
    if walk:  # round robin makes fold 0 the largest, so the first fold a KnnModel would refuse
        check_knn_settings(len(labels) - len(folds[0]), cfg.neighbors_k, cfg.distance)
    if not all(folds):
        raise ValueError(f"fold {folds.index([])} is empty; reduce k")
    if walk:
        guesses = _knn_cross_guesses(vectors, labels, fold_of, cfg.neighbors_k, cfg.distance, workers)
    else:
        guesses = [""] * len(labels)
        for fold, members in enumerate(folds):
            train = [i for i, f in enumerate(fold_of) if f != fold]
            for i, guess in zip(members, _predict_all(vectors, labels, train, members, cfg)):
                guesses[i] = guess
    fold_accuracies = tuple(_count([labels[i] for i in m], [guesses[i] for i in m]).accuracy for m in folds)
    return EvalReport(_count(labels, guesses).per_class, fold_accuracies)  # _count sorts by label


def _knn_cross_guesses(
    vectors: np.ndarray, labels: Sequence[str], fold_of: list[int], neighbors_k: int, distance: str, workers: int
) -> list[str]:
    """Each row's KNN guess over the rows of the other folds.

    Row i of the upper triangle, distance_rows(X[i+1:], X[i]), scores
    each pair once and fills both halves of one zeroed (n, n) matrix;
    |a - b| == |b - a| exactly, so every distance equals the one
    knn_predict computes. The rows run on up to workers threads
    (_striped_map). Same-fold pairs become inf, which marks nothing
    else because distance_rows refuses any distance that is not finite.
    _knn_votes then ranks each row's other folds by (distance, index):
    the order knn_predict gives over a fold's training rows. Each fold
    holds at most n - neighbors_k rows, so the first neighbors_k are
    finite. Memory: the (n, n) float64 matrix, 1.28 MB at n = 400, the
    same order as the Gram matrix _svm_fit builds over the same rows.
    """
    fold = np.array(fold_of)
    n = len(vectors)
    dist = np.zeros((n, n))
    rows = _striped_map(lambda i: distance_rows(vectors[i + 1 :], vectors[i], distance), range(n - 1), workers)
    for i, row in enumerate(rows):
        dist[i, i + 1 :] = dist[i + 1 :, i] = row
    dist[fold[:, None] == fold] = np.inf
    return _knn_votes(dist, labels, neighbors_k)[0]


def _cross_distances(vectors: np.ndarray, train_rows, test_rows, distance: str, workers: int) -> np.ndarray:
    """The (test, train) distance table that evaluate's KNN and
    roc_far_gar read: column j is one distance_rows call from every test
    row to training row j, on up to workers threads (_striped_map).
    |a - b| == |b - a| and each row sums the same contiguous terms, so
    every entry has the bits of knn_predict's call from its test row."""
    queries = vectors[test_rows]
    return np.stack(_striped_map(lambda i: distance_rows(queries, vectors[i], distance), train_rows, workers), axis=1)


def roc_far_gar(
    vectors: np.ndarray, labels: Sequence[str], train_rows: Sequence[int], test_rows: Sequence[int],
    distance: str = "log", n_thresholds: int = 200, workers: int = 1,
) -> list[RocPoint]:
    """Verification sweep over the rows of the (n, dim) vectors, one label
    per row: FAR and GAR percentages over thresholds.

    Each test row scores min distance to its own class's training rows
    (genuine trial) and min distance to every other class (one impostor
    trial per other class). A trial is accepted when its score is <=
    the threshold. Thresholds are n_thresholds evenly spaced values over
    [0, max observed score] plus every distinct observed score. The
    scores are column minima of the one test × train table,
    _cross_distances, whose training rows run on up to workers threads.
    """
    vectors = _checked(vectors, labels)
    if not len(train_rows) or not len(test_rows):
        raise ValueError("train and test sets must both be non-empty")
    table = _cross_distances(vectors, train_rows, test_rows, distance, workers)
    classes = sorted({labels[i] for i in train_rows})
    column_class = np.array([classes.index(labels[i]) for i in train_rows])
    # nearest distance from each test row (row) to each class (column)
    scores = np.stack([table[:, column_class == c].min(axis=1) for c in range(len(classes))], axis=1)
    own = np.array([labels[i] for i in test_rows])[:, None] == np.array(classes)
    gen, imp = np.sort(scores[own]), np.sort(scores[~own])
    if not gen.size or not imp.size:
        raise ValueError("need both genuine and impostor trials; add more classes")
    top = float(max(gen[-1], imp[-1]))
    # the first value of each run of equal ones: np.unique's result, without the numpy.ma import it makes
    values = np.sort(np.concatenate([np.linspace(0.0, top, n_thresholds), gen, imp]))
    thresholds = values[np.concatenate([[True], values[1:] != values[:-1]])]
    far = 100.0 * np.searchsorted(imp, thresholds, side="right") / imp.size
    gar = 100.0 * np.searchsorted(gen, thresholds, side="right") / gen.size
    return [RocPoint(float(t), float(f), float(g)) for t, f, g in zip(thresholds, far, gar)]


# --- CSV writers --------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.{REPORT_DIGITS}g}"


def _write_table(path, config: dict[str, object], header: list[str], rows, footer: str = "") -> None:
    """One "# key=value" comment per config item, in key order, then the
    header and rows as CSV, then "# footer" when one is given."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {key}={config[key]}\n" for key in sorted(config))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        if footer:
            fh.write(f"# {footer}\n")


def write_report_csv(report: EvalReport, config: dict[str, object], path) -> None:
    """Accuracy table: one "# key=value" comment per config item, in key
    order, then class,correct,total,accuracy rows and an overall row.
    A class named overall would read as that row: it raises ValueError
    before the file is opened."""
    if "overall" in report.per_class:
        raise ValueError("class label 'overall' is the name of the report's total row")
    rows = [[label, correct, total, _fmt(100.0 * correct / total)]
            for label, (correct, total) in report.per_class.items()]
    rows.append(["overall", report.correct, report.total, _fmt(report.accuracy)])
    _write_table(path, config, ["class", "correct", "total", "accuracy"], rows)


def write_folds_csv(report: EvalReport, config: dict[str, object], path) -> None:
    """Per-fold accuracies: config comments as in write_report_csv, then
    fold,accuracy rows and a mean footer comment."""
    if report.fold_accuracies is None:
        raise ValueError("report has no fold accuracies")
    mean = sum(report.fold_accuracies) / len(report.fold_accuracies)
    rows = [[i, _fmt(accuracy)] for i, accuracy in enumerate(report.fold_accuracies, start=1)]
    _write_table(path, config, ["fold", "accuracy"], rows, f"mean_accuracy={_fmt(mean)}")


def write_roc_csv(points: Sequence[RocPoint], config: dict[str, object], path) -> None:
    """Config comments as in write_report_csv, then threshold,far,gar rows;
    a footer states how GAR is computed."""
    rows = [[_fmt(p.threshold), _fmt(p.far), _fmt(p.gar)] for p in points]
    _write_table(path, config, ["threshold", "far", "gar"], rows,
                 "gar counts accepted genuine trials directly; it is not 100-far")
