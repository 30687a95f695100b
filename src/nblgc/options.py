"""Command-line interface.

Subcommands: extract (feature CSV), evaluate (train/test accuracy
report), kfold (cross-validation), roc (verification FAR/GAR sweep).
Every setting is one row of OPTIONS; its name is the config-file key,
the echo key and, dashed, the flag. Precedence: command-line flags
override a --config JSON file, which overrides the row's default, and
all three go through the row's parse function; the SVM settings then
pass check_svm_settings. Every run drops a config.json echo next to its
CSV so it can be reproduced exactly. Exit codes: 0 success, 1 usage
error, 2 data error, 3 internal error.

This module imports no numpy, and json and traceback only where used,
so --help and usage errors import only argparse. It also holds what the
pipeline shares with the command line: the choice lists, the resize,
label and SVM settings rules and the data errors. main imports the
command implementations (nblgc.cli) once a config has merged cleanly,
and pins glibc's heap for the rest of the process (_pin_heap) first.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

DISTANCES = ("log", "euclidean")
MAX_RESIZE_PIXELS = 65536  # a kept 8-byte-per-pixel image is at most 512 KB; 255x255 is the largest square


class PgmParseError(ValueError):
    """Malformed PGM bytes. ``offset`` is where in the input it went wrong."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte offset {offset}")
        self.offset = offset


class DatasetError(ValueError):
    """A dataset file could not be loaded; message includes the file path."""


class UsageError(Exception):
    pass


class ContourVariant(Enum):
    """Which loop's contour value feeds the block feature."""

    G1 = "g1"
    G2 = "g2"
    G3 = "g3"


class FuzzifierRef(Enum):
    """Reference statistic the deviations are taken against."""

    AVERAGE = "avg"
    MAXIMUM = "max"
    MINIMUM = "min"


def _finite(x) -> bool:
    """math.isfinite, but False for an int too large for a float, where
    math.isfinite raises OverflowError."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def check_resize_target(width: int, height: int) -> tuple[int, int]:
    """(width, height), or ValueError unless both are positive multiples of 3
    (features tile 3x3 blocks) and width * height <= MAX_RESIZE_PIXELS."""
    if width < 3 or height < 3 or width % 3 or height % 3 or width * height > MAX_RESIZE_PIXELS:
        raise ValueError(f"resize target {width}x{height} must be positive multiples of 3, <= {MAX_RESIZE_PIXELS} pixels")
    return width, height


def check_label(label: str) -> str:
    """Return label, or raise ValueError if the model file cannot hold it:
    a tab would split its record, a line break its line, and a name that
    is not UTF-8 (an undecodable byte arrives as a lone surrogate) could
    not be written."""
    if "\t" in label or "".join(label.splitlines()) != label:
        raise ValueError(f"class label {label!r} contains a tab or line break")
    if not is_utf8(label):
        raise ValueError(f"class label {label!r} is not UTF-8")
    return label


def is_utf8(name: str) -> bool:
    """Whether name encodes as UTF-8, so the UTF-8 files nblgc writes can hold it."""
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def check_svm_settings(degree: int, c: float, offset: float, tol: float) -> None:
    """Raise ValueError unless the SVM settings can train and predict.
    The message starts with the setting's name: degree, C, offset or tol."""
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    if not (_finite(c) and c > 0):
        raise ValueError("C must be positive and finite")
    if not _finite(offset):
        raise ValueError("offset must be finite")
    if not (_finite(tol) and tol >= 0):
        raise ValueError("tol must be a finite number >= 0")


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
        # an int is finite even where it is too large for a float
        if type(value) not in (kind, int) or not ((kind is int or _finite(value)) and ok(value)):
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


def _data_root(value) -> Path:
    root = _path(value)
    if not is_utf8(value):  # the CSVs and config.json echo the data root, and they are UTF-8
        raise ValueError("wants a path that is UTF-8")
    return root


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


# command -> its one-line help; nblgc.cli._COMMANDS maps each to its implementation
COMMANDS = {
    "extract": "write per-image feature vectors to features.csv",
    "evaluate": "train/test split accuracy report",
    "kfold": "stratified k-fold cross-validation",
    "roc": "verification FAR/GAR threshold sweep",
}
_ALL = tuple(COMMANDS)
_FIT = ("evaluate", "kfold")
_SPLIT = ("evaluate", "roc")

OPTIONS = (
    Option("data", _data_root, None, _ALL, "dataset root: one subdirectory per class, PGM images inside"),
    Option("resize", _resize, "63x63", _ALL, f"resize target WxH, multiples of 3, <= {MAX_RESIZE_PIXELS} pixels"),
    Option("variant", _choice(*(v.value for v in ContourVariant)), "g1", _ALL,
           "gradient contour variant: g1, g2 or g3"),
    Option("ref", _choice(*(r.value for r in FuzzifierRef)), "avg", _ALL,
           "fuzzifier reference statistic: avg, max or min"),
    Option("out", _path, "out", _ALL, "output directory"),
    Option("workers", _count(1), 1, _ALL, "threads for the kfold and roc distances"),
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
    for command, help_line in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
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
    import json
    if not path.is_file():
        raise UsageError(f"config file {path} not found")
    try:
        loaded = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as err:  # JSON text is UTF-8
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


def _pin_heap() -> None:
    """Fix glibc's mmap and trim thresholds for this process, where the C
    library has mallopt (glibc; not macOS or Windows).

    By default glibc serves a block of 128 KiB or more by mmap and hands
    the free top of its heap back to the kernel, so each image's decode
    and feature temporaries fault their pages in again: 13-15k minor
    faults in a P2 evaluate of 400 images, against 5.8k pinned. Raising
    only the trim threshold is worse (35k), so it is set only once glibc
    has taken the mmap threshold, which a 32-bit build refuses above
    512 KiB. main calls this, so the pin holds for the rest of whatever
    process runs main: the nblgc script, python -m nblgc, or a program
    that calls nblgc.cli.main in its own process. The library functions
    never call it.
    """
    import ctypes  # numpy imports it anyway

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to open
        return
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD: the ceiling of glibc's own dynamic threshold on 64-bit
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice that, as glibc's dynamic rule keeps it


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge(args)
        _pin_heap()
        from .cli import _COMMANDS  # numpy and the pipeline load here

        cfg.out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[cfg.command](cfg)
        import json
        echo = json.dumps(_config_echo(cfg), indent=2, sort_keys=True, default=str)
        (cfg.out / "config.json").write_text(echo + "\n", encoding="utf-8")
        return EXIT_OK
    except UsageError as err:
        print(f"nblgc: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, PgmParseError, OSError, ValueError) as err:
        print(f"nblgc: data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        import traceback
        print("nblgc: internal error", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def run() -> None:
    """Run main and exit with its code, freezing the collector first (also
    on argparse's SystemExit) so shutdown skips full collections over all
    numpy and the pipeline loaded. main alone, in-process, does not freeze."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)
