"""In-memory spans around the package's public functions.

The tracer replaces each target function in every loaded ``nblgc``
module that binds it (``nblgc.cli.load_dataset``,
``nblgc.image_io.load_dataset`` and ``nblgc.load_dataset`` are one
function bound three times). A span records its name
(``<layer>.<function>``), start, end, parent span and run id; some also
record counts taken from the call's arguments or result. Nothing is
written until ``dump``.

``infoset`` and ``contours`` functions run 441 times per image; wrapping
them would swamp their cost, so their time stays inside
``features.extract``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from statistics import median

import numpy as np


def _extract_many_counts(args, kwargs, result):
    workers = kwargs.get("workers", args[3] if len(args) > 3 else 1)
    return {"images": len(args[0]), "workers": int(workers)}


def _svm_counts(args, kwargs, result):
    svs = [m.support_vectors for m in result.machines if len(m.coefficients)]
    distinct = len(np.unique(np.vstack(svs), axis=0)) if svs else 0
    return {
        "machines": len(result.machines),
        "sv_rows": sum(len(m.coefficients) for m in result.machines),
        "sv_distinct": distinct,
    }


# (module, function, counts taken from (args, kwargs, result))
TARGETS = [
    ("image_io", "parse_pgm", lambda a, k, r: {"bytes": len(a[0])}),
    ("image_io", "normalize_unit", None),
    ("image_io", "resize_bilinear", None),
    ("image_io", "load_dataset", lambda a, k, r: {"files": len(r)}),
    ("features", "extract", None),
    ("features", "extract_many", _extract_many_counts),
    ("features", "write_features_csv", None),
    ("classify", "knn_predict", None),
    ("classify", "svm_train", _svm_counts),
    ("classify", "svm_predict", None),
    ("classify", "save_model", lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    ("classify", "load_model", None),
    ("evaluation", "split_per_class", None),
    ("evaluation", "evaluate", None),
    ("evaluation", "kfold", None),
    ("evaluation", "roc_far_gar", lambda a, k, r: {"points": len(r)}),
    ("evaluation", "write_report_csv", None),
    ("evaluation", "write_folds_csv", None),
    ("evaluation", "write_roc_csv", None),
    ("cli", "main", None),
]

LAYERS = ("image_io", "features", "classify", "evaluation", "cli")


class Tracer:
    """Collects spans in memory for one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts):
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target where any loaded nblgc module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "nblgc" or n.startswith("nblgc.")]
        for module_name, func_name, counts in TARGETS:
            original = getattr(sys.modules[f"nblgc.{module_name}"], func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original, counts)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    setattr(module, func_name, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def load_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one span run one after another in one thread, so their
    durations add without overlap. Spans are keyed by (run, id).
    """
    covered: dict[tuple[str, int], float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[(s["run"], s["parent"])] += s["end"] - s["start"]
    return [s["end"] - s["start"] - covered[(s["run"], s["id"])] for s in spans]


def layer_summary(spans: list[dict]) -> dict[str, float]:
    """Total self time per layer, seconds."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        totals[span["name"].split(".")[0]] += own
    return totals


def per_layer_metrics(
    spans: list[dict], probe: list[dict], passes: int
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the traced passes, as (value, unit).

    Per-call timings are medians over calls; totals and counts are per
    traced pass. A function that a workload never calls reports 0.
    ``probe`` holds spans of serial ``extract`` calls made outside the
    passes, because a pass with several workers extracts in pool
    processes, which record nothing.
    """
    by_name: dict[str, list[dict]] = defaultdict(list)
    own: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, self_times(spans)):
        by_name[span["name"]].append(span)
        own[span["name"]] += t

    by_name["features.extract"] += [s for s in probe if s["name"] == "features.extract"]

    def durations(name):
        return [s["end"] - s["start"] for s in by_name[name]]

    def med(name, scale=1.0):
        d = durations(name)
        return median(d) * scale if d else 0.0

    def total(name):
        return sum(durations(name)) / passes

    def count(name, key):
        return sum(s.get(key, 0) for s in by_name[name]) / passes

    files = len(by_name["image_io.parse_pgm"])
    normalize_resize = sum(durations("image_io.normalize_unit")) + sum(durations("image_io.resize_bilinear"))
    workers = [s["workers"] for s in by_name["features.extract_many"]]
    writers = ("evaluation.write_report_csv", "evaluation.write_folds_csv", "evaluation.write_roc_csv")
    return {
        "image_io.parse_pgm_ms": (med("image_io.parse_pgm", 1e3), "ms"),
        "image_io.load_dataset_s": (med("image_io.load_dataset"), "s"),
        "image_io.normalize_resize_ms": (1e3 * normalize_resize / files if files else 0.0, "ms"),
        "image_io.files_loaded": (count("image_io.load_dataset", "files"), "count"),
        "image_io.bytes_read": (count("image_io.parse_pgm", "bytes"), "bytes"),
        "features.extract_ms": (med("features.extract", 1e3), "ms"),
        "features.extract_many_s": (med("features.extract_many"), "s"),
        "features.images": (count("features.extract_many", "images"), "count"),
        "features.workers": (max(workers) if workers else 0, "count"),
        "classify.svm_train_s": (total("classify.svm_train"), "s"),
        "classify.svm_machines": (count("classify.svm_train", "machines"), "count"),
        "classify.sv_rows": (count("classify.svm_train", "sv_rows"), "count"),
        "classify.sv_distinct": (count("classify.svm_train", "sv_distinct"), "count"),
        "classify.svm_predict_ms": (med("classify.svm_predict", 1e3), "ms"),
        "classify.knn_predict_ms": (med("classify.knn_predict", 1e3), "ms"),
        "classify.save_model_s": (total("classify.save_model"), "s"),
        "classify.load_model_s": (total("classify.load_model"), "s"),
        "classify.model_bytes": (count("classify.save_model", "bytes"), "bytes"),
        "evaluation.kfold_self_s": (own["evaluation.kfold"] / passes, "s"),
        "evaluation.roc_far_gar_s": (total("evaluation.roc_far_gar"), "s"),
        "evaluation.roc_points": (count("evaluation.roc_far_gar", "points"), "count"),
        "evaluation.write_csv_s": (sum(total(w) for w in writers), "s"),
        "cli.main_self_s": (own["cli.main"] / passes, "s"),
    }
