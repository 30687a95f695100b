"""The command implementations: load, extract, classify and write.

nblgc.options parses and checks the settings without numpy and runs
main; it imports this module only once a config has merged cleanly,
then calls the command's entry of _COMMANDS with the merged config.
Importing this module loads every pipeline layer.
"""

from __future__ import annotations

import argparse
import sys

from .evaluation import (
    ClassifierConfig,
    SplitSpec,
    evaluate,
    kfold,
    roc_far_gar,
    split_rows,
    write_folds_csv,
    write_report_csv,
    write_roc_csv,
)
from .features import extract_dataset, write_features_csv
from .options import ContourVariant, FuzzifierRef, _config_echo
from .options import main, run  # noqa: F401  (nblgc.cli.main and nblgc.cli:run stay entry points)


def _size(cfg: argparse.Namespace) -> tuple[int, int]:
    w, h = cfg.resize.split("x")
    return int(w), int(h)


def _load_samples(cfg: argparse.Namespace):
    """(source paths, class labels, feature matrix) of the dataset; the
    skipped files and an empty root are reported on stderr."""
    variant, ref = ContourVariant(cfg.variant), FuzzifierRef(cfg.ref)
    paths, labels, matrix, notices = extract_dataset(cfg.data, _size(cfg), variant, ref, cfg.skip_errors)
    for notice in notices:
        print(f"nblgc: {notice}", file=sys.stderr)
    return paths, labels, matrix


def _classifier_config(cfg: argparse.Namespace) -> ClassifierConfig:
    return ClassifierConfig(kind=cfg.classifier, neighbors_k=cfg.k, distance=cfg.distance,
                            degree=cfg.degree, c=cfg.C, offset=cfg.offset, tol=cfg.tol, zscore=cfg.zscore)


def _split_spec(cfg: argparse.Namespace) -> SplitSpec:
    return SplitSpec(cfg.train_per_class, cfg.shuffle_seed)


def cmd_extract(cfg: argparse.Namespace) -> None:
    paths, labels, matrix = _load_samples(cfg)
    out_path = cfg.out / "features.csv"
    variant, ref = ContourVariant(cfg.variant), FuzzifierRef(cfg.ref)
    write_features_csv(out_path, [(p, label, variant, ref, row) for p, label, row in zip(paths, labels, matrix)],
                       matrix.shape[1])
    print(f"wrote {len(paths)} feature rows to {out_path}")


def cmd_evaluate(cfg: argparse.Namespace) -> None:
    _, labels, matrix = _load_samples(cfg)
    train, test = split_rows(labels, _split_spec(cfg))
    report = evaluate(matrix, labels, train, test, _classifier_config(cfg))
    out_path = cfg.out / "report.csv"
    write_report_csv(report, _config_echo(cfg), out_path)
    print(f"accuracy {report.accuracy:.6g}% ({report.correct}/{report.total}) -> {out_path}")


def cmd_kfold(cfg: argparse.Namespace) -> None:
    _, labels, matrix = _load_samples(cfg)
    report = kfold(matrix, labels, cfg.folds, _classifier_config(cfg), cfg.workers)
    out_path = cfg.out / "folds.csv"
    write_folds_csv(report, _config_echo(cfg), out_path)
    mean = sum(report.fold_accuracies) / len(report.fold_accuracies)
    print(f"kfold mean accuracy {mean:.6g}% over {cfg.folds} folds -> {out_path}")


def cmd_roc(cfg: argparse.Namespace) -> None:
    _, labels, matrix = _load_samples(cfg)
    train, test = split_rows(labels, _split_spec(cfg))
    points = roc_far_gar(matrix, labels, train, test, cfg.distance, cfg.thresholds, cfg.workers)
    out_path = cfg.out / "roc.csv"
    write_roc_csv(points, _config_echo(cfg), out_path)
    print(f"wrote {len(points)} roc points to {out_path}")


_COMMANDS = {"extract": cmd_extract, "evaluate": cmd_evaluate, "kfold": cmd_kfold, "roc": cmd_roc}


if __name__ == "__main__":
    run()
