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

from .classify import (
    KnnModel,
    LabeledSample,
    check_knn_settings,
    distance_rows,
    knn_predict,
    svm_predict,
    svm_train,
    vote,
)

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


def _group_by_class(data: Sequence[LabeledSample]) -> dict[str, list[LabeledSample]]:
    groups: dict[str, list[LabeledSample]] = {}
    for sample in data:
        groups.setdefault(sample.label, []).append(sample)
    return {label: groups[label] for label in sorted(groups)}


def split_per_class(
    data: Sequence[LabeledSample], spec: SplitSpec
) -> tuple[list[LabeledSample], list[LabeledSample]]:
    """Split every class into n_train training samples and the rest.

    Classes are processed in sorted label order. Without a shuffle seed
    the first n_train samples per class (load order) train; with one,
    a seeded permutation picks them. Every class must keep at least one
    test sample.
    """
    if spec.n_train < 1:
        raise ValueError("n_train must be at least 1")
    groups = _group_by_class(data)
    if not groups:
        raise ValueError("cannot split an empty dataset")
    rng = random.Random(spec.shuffle_seed)
    train: list[LabeledSample] = []
    test: list[LabeledSample] = []
    for label, samples in groups.items():
        if spec.n_train >= len(samples):
            raise ValueError(
                f"class {label!r} has {len(samples)} samples; "
                f"n_train={spec.n_train} leaves no test data"
            )
        order = list(range(len(samples)))
        if spec.shuffle_seed is not None:
            rng.shuffle(order)
        train.extend(samples[i] for i in order[: spec.n_train])
        test.extend(samples[i] for i in order[spec.n_train :])
    return train, test


def _zscore_apply(train: list[LabeledSample], test: list[LabeledSample]):
    matrix = np.stack([s.vector for s in train])
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std[std == 0.0] = 1.0
    tr = [LabeledSample((s.vector - mean) / std, s.label) for s in train]
    te = [LabeledSample((s.vector - mean) / std, s.label) for s in test]
    return tr, te


def _predict_all(
    train: list[LabeledSample], test: list[LabeledSample], cfg: ClassifierConfig
) -> list[str]:
    if cfg.zscore:
        train, test = _zscore_apply(train, test)
    if cfg.kind == "knn":
        model = KnnModel([s.vector for s in train], [s.label for s in train], cfg.neighbors_k, cfg.distance)
        return [knn_predict(model, s.vector)[0] for s in test]
    if cfg.kind == "svm":
        model = svm_train(train, cfg.degree, cfg.c, cfg.offset, cfg.tol)
        return [svm_predict(model, s.vector) for s in test]
    raise ValueError(f"unknown classifier kind {cfg.kind!r}")


def _count(test: Sequence[LabeledSample], predicted: Sequence[str]) -> EvalReport:
    per_class: dict[str, list[int]] = {}
    for sample, guess in zip(test, predicted):
        counts = per_class.setdefault(sample.label, [0, 0])
        counts[0] += int(guess == sample.label)
        counts[1] += 1
    return EvalReport({label: (c, t) for label, (c, t) in sorted(per_class.items())})


def evaluate(
    train: Sequence[LabeledSample],
    test: Sequence[LabeledSample],
    cfg: ClassifierConfig = ClassifierConfig(),
) -> EvalReport:
    """Train on one split, predict the other, count hits per class."""
    train, test = list(train), list(test)
    if not train or not test:
        raise ValueError("train and test sets must both be non-empty")
    return _count(test, _predict_all(train, test, cfg))


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
    data: Sequence[LabeledSample],
    k: int = 10,
    cfg: ClassifierConfig = ClassifierConfig(),
    workers: int = 1,
) -> EvalReport:
    """Stratified k-fold cross-validation.

    Each class's samples spread round-robin over the folds in load
    order, so with at least k samples per class every fold sees every
    class; smaller classes simply occupy fewer folds. Counts pool every
    fold's predictions; fold_accuracies holds one accuracy per fold.
    Settings and folds are checked first. Then KNN without zscore scores
    each pair once (_knn_cross_guesses), on up to workers threads; others
    train once per fold, serially.
    """
    data = list(data)
    if k < 2:
        raise ValueError("k must be at least 2")
    if len(data) < k:
        raise ValueError(f"need at least k={k} samples, got {len(data)}")
    seen = defaultdict(itertools.count)  # each class runs its own round robin, in load order
    fold_of = [next(seen[s.label]) % k for s in data]
    folds = [[i for i, f in enumerate(fold_of) if f == fold] for fold in range(k)]
    # vectors of mixed length take the per-fold path, which raises for the first fold they break
    walk = cfg.kind == "knn" and not cfg.zscore and len({s.vector.size for s in data}) == 1
    if walk:  # round robin makes fold 0 the largest, so the first fold a KnnModel would refuse
        check_knn_settings(len(data) - len(folds[0]), cfg.neighbors_k, cfg.distance)
    if not all(folds):
        raise ValueError(f"fold {folds.index([])} is empty; reduce k")
    if walk:
        guesses = _knn_cross_guesses(data, fold_of, cfg.neighbors_k, cfg.distance, workers)
    else:
        guesses = [""] * len(data)
        for fold, members in enumerate(folds):
            train = [s for i, s in enumerate(data) if fold_of[i] != fold]
            for i, guess in zip(members, _predict_all(train, [data[i] for i in members], cfg)):
                guesses[i] = guess
    fold_accuracies = tuple(_count([data[i] for i in m], [guesses[i] for i in m]).accuracy for m in folds)
    return EvalReport(_count(data, guesses).per_class, fold_accuracies)  # _count sorts by label


def _knn_cross_guesses(
    data: list[LabeledSample], fold_of: list[int], neighbors_k: int, distance: str, workers: int
) -> list[str]:
    """Each sample's knn_predict vote over the samples of the other folds.

    Row i of the upper triangle, distance_rows(X[i+1:], X[i]), scores
    each pair once and fills both halves of one zeroed (n, n) matrix;
    |a - b| == |b - a| exactly, so every distance equals the one
    knn_predict computes. The rows run on up to workers threads
    (_striped_map). Same-fold pairs become inf, which marks nothing
    else because distance_rows refuses any distance that is not finite.
    Each row's stable argsort then ranks the other folds by (distance,
    index): the order knn_predict gives over a fold's training list. Each
    fold holds at most n - neighbors_k samples, so the first neighbors_k
    are finite. Memory: the (n, n) float64 matrix, 1.28 MB at n = 400, the
    same order as the Gram matrix svm_train builds over the same rows.
    """
    matrix = np.stack([s.vector for s in data])
    fold = np.array(fold_of)
    n = len(data)
    dist = np.zeros((n, n))
    rows = _striped_map(lambda i: distance_rows(matrix[i + 1 :], matrix[i], distance), range(n - 1), workers)
    for i, row in enumerate(rows):
        dist[i, i + 1 :] = dist[i + 1 :, i] = row
    dist[fold[:, None] == fold] = np.inf
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :neighbors_k]
    labels = [s.label for s in data]
    return [vote([(labels[j], float(dist[r, j])) for j in row]) for r, row in enumerate(nearest)]


def roc_far_gar(
    train: Sequence[LabeledSample],
    test: Sequence[LabeledSample],
    distance: str = "log",
    n_thresholds: int = 200,
    workers: int = 1,
) -> list[RocPoint]:
    """Verification sweep: FAR and GAR percentages over thresholds.

    Each test sample scores min distance to its own class's training
    samples (genuine trial) and min distance to every other class
    (one impostor trial per other class). A trial is accepted when its
    score is <= the threshold. Thresholds are n_thresholds evenly
    spaced values over [0, max observed score] plus every distinct
    observed score. The classes' distances run on up to workers threads
    (_striped_map).
    """
    train, test = list(train), list(test)
    if not train or not test:
        raise ValueError("train and test sets must both be non-empty")
    groups = _group_by_class(train)
    queries = np.stack([s.vector for s in test])
    # nearest distance from each test sample (row) to each class (column),
    # one distance_rows call per training sample; |a - b| == |b - a|, so
    # each distance is the one the test sample's own call would give
    scores = np.stack(_striped_map(
        lambda samples: np.min([distance_rows(queries, s.vector, distance) for s in samples], axis=0),
        list(groups.values()), workers), axis=1)
    own = np.array([s.label for s in test])[:, None] == np.array(list(groups))
    gen, imp = np.sort(scores[own]), np.sort(scores[~own])
    if not gen.size or not imp.size:
        raise ValueError("need both genuine and impostor trials; add more classes")
    top = float(max(gen[-1], imp[-1]))
    thresholds = np.unique(
        np.concatenate([np.linspace(0.0, top, n_thresholds), gen, imp])
    )
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
    order, then class,correct,total,accuracy rows and an overall row."""
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
