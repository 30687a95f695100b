"""Splits, accuracy evaluation, k-fold cross-validation, verification ROC.

The functions here compute results only: an EvalReport holds counts,
and the settings a run echoes into its CSVs are the caller's, passed to
each writer as a dict. All randomness is seeded and every CSV this
module writes is byte-stable across reruns of the same configuration.
Accuracies, FAR, and GAR are percentages.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .classify import (
    KnnModel,
    LabeledSample,
    distance_rows,
    knn_predict,
    svm_predict,
    svm_train,
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
        model = KnnModel(tuple(train), cfg.neighbors_k, cfg.distance)
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


def kfold(
    data: Sequence[LabeledSample],
    k: int = 10,
    cfg: ClassifierConfig = ClassifierConfig(),
) -> EvalReport:
    """Stratified k-fold cross-validation.

    Each class's samples spread round-robin over the folds in load
    order, so with at least k samples per class every fold sees every
    class; smaller classes simply occupy fewer folds. Counts pool every
    fold's predictions; fold_accuracies holds one accuracy per fold.
    """
    data = list(data)
    if k < 2:
        raise ValueError("k must be at least 2")
    if len(data) < k:
        raise ValueError(f"need at least k={k} samples, got {len(data)}")
    positions: dict[str, list[int]] = {}
    for i, sample in enumerate(data):
        positions.setdefault(sample.label, []).append(i)
    fold_of = [0] * len(data)
    for label in sorted(positions):
        for j, i in enumerate(positions[label]):
            fold_of[i] = j % k
    tested: list[LabeledSample] = []
    predicted: list[str] = []
    fold_accuracies = []
    for fold in range(k):
        train = [s for i, s in enumerate(data) if fold_of[i] != fold]
        test = [s for i, s in enumerate(data) if fold_of[i] == fold]
        if not test:
            raise ValueError(f"fold {fold} is empty; reduce k")
        guesses = _predict_all(train, test, cfg)
        fold_accuracies.append(_count(test, guesses).accuracy)
        tested += test
        predicted += guesses
    return EvalReport(_count(tested, predicted).per_class, tuple(fold_accuracies))


def roc_far_gar(
    train: Sequence[LabeledSample],
    test: Sequence[LabeledSample],
    distance: str = "log",
    n_thresholds: int = 200,
) -> list[RocPoint]:
    """Verification sweep: FAR and GAR percentages over thresholds.

    Each test sample scores min distance to its own class's training
    samples (genuine trial) and min distance to every other class
    (one impostor trial per other class). A trial is accepted when its
    score is <= the threshold. Thresholds are n_thresholds evenly
    spaced values over [0, max observed score] plus every distinct
    observed score.
    """
    train, test = list(train), list(test)
    if not train or not test:
        raise ValueError("train and test sets must both be non-empty")
    by_class = {
        label: np.stack([s.vector for s in samples])
        for label, samples in _group_by_class(train).items()
    }
    genuine: list[float] = []
    impostor: list[float] = []
    for sample in test:
        for label, matrix in by_class.items():
            score = float(distance_rows(matrix, sample.vector, distance).min())
            if label == sample.label:
                genuine.append(score)
            else:
                impostor.append(score)
    if not genuine or not impostor:
        raise ValueError("need both genuine and impostor trials; add more classes")
    gen = np.sort(np.array(genuine))
    imp = np.sort(np.array(impostor))
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


def _write_echo(fh, config: dict[str, object]) -> None:
    for key in sorted(config):
        fh.write(f"# {key}={config[key]}\n")


def write_report_csv(report: EvalReport, config: dict[str, object], path) -> None:
    """Accuracy table: one "# key=value" comment per config item, in key
    order, then class,correct,total,accuracy rows and an overall row."""
    with open(path, "w", newline="") as fh:
        _write_echo(fh, config)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["class", "correct", "total", "accuracy"])
        for label, (correct, total) in report.per_class.items():
            writer.writerow([label, correct, total, _fmt(100.0 * correct / total)])
        writer.writerow(["overall", report.correct, report.total, _fmt(report.accuracy)])


def write_folds_csv(report: EvalReport, config: dict[str, object], path) -> None:
    """Per-fold accuracies: config comments as in write_report_csv, then
    fold,accuracy rows and a mean footer comment."""
    if report.fold_accuracies is None:
        raise ValueError("report has no fold accuracies")
    with open(path, "w", newline="") as fh:
        _write_echo(fh, config)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["fold", "accuracy"])
        for i, accuracy in enumerate(report.fold_accuracies, start=1):
            writer.writerow([i, _fmt(accuracy)])
        mean = sum(report.fold_accuracies) / len(report.fold_accuracies)
        fh.write(f"# mean_accuracy={_fmt(mean)}\n")


def write_roc_csv(points: Sequence[RocPoint], config: dict[str, object], path) -> None:
    """Config comments as in write_report_csv, then threshold,far,gar rows;
    a footer states how GAR is computed."""
    with open(path, "w", newline="") as fh:
        _write_echo(fh, config)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["threshold", "far", "gar"])
        for p in points:
            writer.writerow([_fmt(p.threshold), _fmt(p.far), _fmt(p.gar)])
        fh.write("# gar counts accepted genuine trials directly; it is not 100-far\n")
