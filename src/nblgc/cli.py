"""Command-line interface.

Subcommands: extract (feature CSV), evaluate (train/test accuracy
report), kfold (cross-validation), roc (verification FAR/GAR sweep).
Every setting is one row of OPTIONS; its name is the config-file key,
the echo key and, dashed, the flag. Precedence: command-line flags
override a --config JSON file, which overrides the row's default, and
all three go through the row's parse function; the SVM settings then
pass classify.check_svm_settings. Every run drops a
config.json echo next to its CSV so it can be reproduced exactly. Exit
codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

from .classify import DISTANCES, LabeledSample, check_svm_settings
from .contours import ContourVariant
from .evaluation import (
    ClassifierConfig,
    SplitSpec,
    evaluate,
    kfold,
    roc_far_gar,
    split_per_class,
    write_folds_csv,
    write_report_csv,
    write_roc_csv,
)
from .features import extract_many, write_features_csv
from .image_io import MAX_RESIZE_PIXELS, DatasetError, PgmParseError, check_resize_target, load_dataset
from .infoset import FuzzifierRef

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _ArgParser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this tool reserves 2 for
    # data errors, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


# --- parse functions -----------------------------------------------------
#
# Each takes a flag's text or a config file's JSON value and returns the
# canonical value, or raises ValueError saying what it wants. A string is
# read as flag text; JSON numbers and booleans count only as themselves,
# so {"k": 1.7}, {"shuffle_seed": true} and {"zscore": "false"} are all refused.


def _number(kind: type, rule: str, ok: Callable[[float], bool] = lambda x: True):
    def parse(value):
        if isinstance(value, str):
            try:
                value = kind(value)
            except ValueError:
                pass
        if type(value) not in (kind, int) or not (math.isfinite(value) and ok(value)):
            raise ValueError(f"wants {rule}")
        return kind(value)

    return parse


def _count(low: int, high: float = math.inf):
    rule = f"an integer >= {low}" if high == math.inf else f"an integer from {low} to {high}"
    return _number(int, rule, lambda n: low <= n <= high)


def _choice(*names: str):
    def parse(value):
        if value not in names:
            raise ValueError(f"wants one of {', '.join(names)}")
        return value

    return parse


def _switch(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("wants true or false")
    return value


def _path(value) -> Path:
    # a line break would split the "# key=value" echo lines in the CSVs
    if not isinstance(value, str) or "\n" in value or "\r" in value:
        raise ValueError("wants a path without line breaks")
    return Path(value)


def _resize(value) -> str:
    try:
        w, h = (int(n) for n in value.lower().split("x"))
    except (AttributeError, ValueError):
        raise ValueError("wants WxH, two integers") from None
    check_resize_target(w, h)
    return f"{w}x{h}"


class Option(NamedTuple):
    name: str  # config key and echo key; the flag is --name with dashes
    parse: Callable[[object], object]
    default: object  # None: unset unless given
    commands: tuple[str, ...]
    help: str
    classifier: str = ""  # in evaluate and kfold, read only with this --classifier


_ALL = ("extract", "evaluate", "kfold", "roc")
_FIT = ("evaluate", "kfold")
_SPLIT = ("evaluate", "roc")

OPTIONS = (
    Option("data", _path, None, _ALL, "dataset root: one subdirectory per class, PGM images inside"),
    Option("resize", _resize, "63x63", _ALL, f"resize target WxH, multiples of 3, <= {MAX_RESIZE_PIXELS} pixels"),
    Option("variant", _choice(*(v.value for v in ContourVariant)), "g1", _ALL,
           "gradient contour variant: g1, g2 or g3"),
    Option("ref", _choice(*(r.value for r in FuzzifierRef)), "avg", _ALL,
           "fuzzifier reference statistic: avg, max or min"),
    Option("out", _path, "out", _ALL, "output directory"),
    Option("workers", _count(1), 1, _ALL, "parallel extraction processes"),
    Option("skip_errors", _switch, False, _ALL, "warn and skip unreadable dataset files instead of aborting"),
    Option("classifier", _choice("knn", "svm"), "knn", _FIT, "classifier: knn or svm"),
    Option("k", _count(1), 1, _FIT, "KNN neighbor count", "knn"),
    Option("distance", _choice(*DISTANCES), "log", _FIT + ("roc",),
           "KNN and ROC trial distance: log or euclidean", "knn"),
    Option("degree", _number(int, "an integer"), 1, _FIT, "SVM polynomial degree: 1 or 2", "svm"),
    Option("C", _number(float, "a finite number"), 1.0, _FIT, "SVM regularization bound", "svm"),
    Option("offset", _number(float, "a finite number"), 1.0, _FIT, "SVM kernel offset", "svm"),
    Option("tol", _number(float, "a finite number"), 1e-3, _FIT,
           "SVM solver stops at a KKT violation gap of at most this", "svm"),
    Option("zscore", _switch, False, _FIT, "standardize features using training statistics"),
    Option("train_per_class", _count(1), 7, _SPLIT, "training images per class"),
    Option("shuffle_seed", _number(int, "an integer"), None, _SPLIT,
           "pick training images per class with a shuffle seeded by this integer (default: load order)"),
    Option("folds", _count(2), 10, ("kfold",), "fold count"),
    Option("thresholds", _count(2, 100_000), 200, ("roc",), "evenly spaced thresholds in the sweep"),
)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgParser(prog="nblgc", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run_command in _COMMANDS.items():
        p = sub.add_parser(command, help=run_command.__doc__)
        p.add_argument("--config", help="JSON file with a value for any option (flags win)")
        for opt in OPTIONS:
            if command not in opt.commands:
                continue
            if isinstance(opt.default, bool):
                p.add_argument(_flag(opt.name), action="store_true", default=None, help=opt.help)
            else:
                shown = "" if opt.default is None else f" (default {opt.default})"
                p.add_argument(_flag(opt.name), help=opt.help + shown)
    return parser


def _read_config(path: Path) -> dict:
    if not path.is_file():
        raise UsageError(f"config file {path} not found")
    try:
        loaded = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise UsageError(f"config file {path} is not valid JSON: {err}") from None
    if not isinstance(loaded, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = set(loaded) - {opt.name for opt in OPTIONS}
    if unknown:
        raise UsageError(f"config file {path} has unknown keys: {sorted(unknown)}")
    return loaded


def _merge(args: argparse.Namespace) -> argparse.Namespace:
    """Flag, else config value, else default."""
    loaded = _read_config(Path(args.config)) if args.config else {}
    cfg = argparse.Namespace(command=args.command)
    given = {}  # option name -> where its value came from, and the value as given
    for opt in OPTIONS:
        value, source = getattr(args, opt.name, None), _flag(opt.name)
        if value is None and loaded.get(opt.name) is not None:
            value, source = loaded[opt.name], f"config key {opt.name!r}"
        if value is None:
            value, source = opt.default, "default"
        given[opt.name] = f"{source} {value!r}"
        try:
            setattr(cfg, opt.name, None if value is None else opt.parse(value))
        except ValueError as err:
            raise UsageError(f"{given[opt.name]}: {err}") from None
    try:
        check_svm_settings(cfg.degree, cfg.C, cfg.offset, cfg.tol)
    except ValueError as err:  # the message starts with the setting's name
        raise UsageError(f"{given[str(err).split()[0]]}: {err}") from None
    if cfg.data is None:
        raise UsageError("--data is required (directly or via the config file)")
    if not cfg.data.is_dir():
        raise DatasetError(f"dataset root {cfg.data} is not a directory")
    return cfg


def _config_echo(cfg: argparse.Namespace) -> dict[str, object]:
    """The settings the running command reads, less the output directory
    and the worker count, which do not change its results."""
    fit = cfg.command in _FIT
    return {"command": cfg.command} | {
        opt.name: getattr(cfg, opt.name)
        for opt in OPTIONS
        if cfg.command in opt.commands and opt.name not in ("out", "workers")
        and (not fit or opt.classifier in ("", cfg.classifier))
    }


def _size(cfg: argparse.Namespace) -> tuple[int, int]:
    w, h = cfg.resize.split("x")
    return int(w), int(h)


def _load_samples(cfg: argparse.Namespace):
    entries = load_dataset(cfg.data, _size(cfg), skip_errors=cfg.skip_errors)
    variant, ref = ContourVariant(cfg.variant), FuzzifierRef(cfg.ref)
    vectors = extract_many([e.image for e in entries], variant, ref, cfg.workers)
    samples = [LabeledSample(fv.values, e.class_label) for e, fv in zip(entries, vectors)]
    return entries, vectors, samples


def _classifier_config(cfg: argparse.Namespace) -> ClassifierConfig:
    return ClassifierConfig(kind=cfg.classifier, neighbors_k=cfg.k, distance=cfg.distance,
                            degree=cfg.degree, c=cfg.C, offset=cfg.offset, tol=cfg.tol, zscore=cfg.zscore)


def _split_spec(cfg: argparse.Namespace) -> SplitSpec:
    return SplitSpec(cfg.train_per_class, cfg.shuffle_seed)


def cmd_extract(cfg: argparse.Namespace) -> None:
    """write per-image feature vectors to features.csv"""
    entries, vectors, _ = _load_samples(cfg)
    w, h = _size(cfg)
    out_path = cfg.out / "features.csv"
    rows = [(e.source_path, e.class_label, fv) for e, fv in zip(entries, vectors)]
    write_features_csv(out_path, rows, n_features=(w // 3) * (h // 3))
    print(f"wrote {len(entries)} feature rows to {out_path}")


def cmd_evaluate(cfg: argparse.Namespace) -> None:
    """train/test split accuracy report"""
    _, _, samples = _load_samples(cfg)
    train, test = split_per_class(samples, _split_spec(cfg))
    report = evaluate(train, test, _classifier_config(cfg))
    out_path = cfg.out / "report.csv"
    write_report_csv(report, _config_echo(cfg), out_path)
    print(f"accuracy {report.accuracy:.6g}% ({report.correct}/{report.total}) -> {out_path}")


def cmd_kfold(cfg: argparse.Namespace) -> None:
    """stratified k-fold cross-validation"""
    _, _, samples = _load_samples(cfg)
    report = kfold(samples, cfg.folds, _classifier_config(cfg))
    out_path = cfg.out / "folds.csv"
    write_folds_csv(report, _config_echo(cfg), out_path)
    mean = sum(report.fold_accuracies) / len(report.fold_accuracies)
    print(f"kfold mean accuracy {mean:.6g}% over {cfg.folds} folds -> {out_path}")


def cmd_roc(cfg: argparse.Namespace) -> None:
    """verification FAR/GAR threshold sweep"""
    _, _, samples = _load_samples(cfg)
    train, test = split_per_class(samples, _split_spec(cfg))
    points = roc_far_gar(train, test, cfg.distance, cfg.thresholds)
    out_path = cfg.out / "roc.csv"
    write_roc_csv(points, _config_echo(cfg), out_path)
    print(f"wrote {len(points)} roc points to {out_path}")


_COMMANDS = {"extract": cmd_extract, "evaluate": cmd_evaluate, "kfold": cmd_kfold, "roc": cmd_roc}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge(args)
        cfg.out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[cfg.command](cfg)
        echo = json.dumps(_config_echo(cfg), indent=2, sort_keys=True, default=str)
        (cfg.out / "config.json").write_text(echo + "\n")
        return EXIT_OK
    except UsageError as err:
        print(f"nblgc: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, PgmParseError, OSError, ValueError) as err:
        print(f"nblgc: data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        print("nblgc: internal error", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
