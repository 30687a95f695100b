"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py --result FILE [--spans FILE --run-id ID] MODE ...

Modes:
    cli ARGV...   nblgc.cli.main(ARGV) in this process; the untraced CLI
                  runs use ``python -m nblgc`` instead
    svm           the library path: load_dataset, extract_many,
                  split_per_class, svm_train (degree 1), save_model,
                  load_model, then svm_predict per test image on both the
                  trained and the loaded model
    probe         serial extract of the first --count images, for the
                  per-image extract time of workloads that extract in
                  pool processes

With --spans, every public function of the package's layers is wrapped
(see spans.py) and the spans are written to FILE when the mode ends.
The result file holds the import time and the mode's outputs as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def _resize(text: str) -> tuple[int, int]:
    w, h = text.lower().split("x")
    return int(w), int(h)


def run_svm(args, result: dict) -> int:
    from nblgc import classify, evaluation, features, image_io

    entries = image_io.load_dataset(args.data, _resize(args.resize))
    vectors = features.extract_many([e.image for e in entries], workers=args.workers)
    samples = [classify.LabeledSample(fv.values, e.class_label) for e, fv in zip(entries, vectors)]
    train, test = evaluation.split_per_class(samples, evaluation.SplitSpec(args.train_per_class))
    model = classify.svm_train(train, degree=1)
    classify.save_model(model, args.model)
    loaded = classify.load_model(args.model)
    result["trained"] = [classify.svm_predict(model, s.vector) for s in test]
    result["loaded"], result["query_ms"] = [], []
    for sample in test:
        start = time.perf_counter()
        result["loaded"].append(classify.svm_predict(loaded, sample.vector))
        result["query_ms"].append(1e3 * (time.perf_counter() - start))
    result["labels"] = [s.label for s in test]
    return 0


def run_probe(args, result: dict) -> int:
    from nblgc import features, image_io

    w, h = _resize(args.resize)
    paths = sorted(Path(args.data).glob("*/*.pgm"))[: args.count]
    for path in paths:
        raw = image_io.parse_pgm(path.read_bytes())
        features.extract(image_io.resize_bilinear(image_io.normalize_unit(raw), w, h))
    result["images"] = len(paths)
    return 0


def run_cli(args, result: dict) -> int:
    import nblgc.cli

    try:
        code = nblgc.cli.main(args.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    result["exit"] = code
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="run")
    modes = parser.add_subparsers(dest="mode", required=True)
    p_cli = modes.add_parser("cli")
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    p_svm = modes.add_parser("svm")
    p_probe = modes.add_parser("probe")
    for p in (p_svm, p_probe):
        p.add_argument("--data", required=True)
        p.add_argument("--resize", required=True)
    p_svm.add_argument("--model", required=True)
    p_svm.add_argument("--train-per-class", type=int, required=True)
    p_svm.add_argument("--workers", type=int, required=True)
    p_probe.add_argument("--count", type=int, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import nblgc  # noqa: F401  (timed: the package import a user pays)
    import nblgc.cli  # noqa: F401

    result = {"import_s": time.perf_counter() - start}
    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
    mode = {"cli": run_cli, "svm": run_svm, "probe": run_probe}[args.mode]
    try:
        code = mode(args, result)
    finally:
        if tracer is not None:
            tracer.dump(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
