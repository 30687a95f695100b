"""The library surface the benchmark in perfbench/ calls.

The benchmark runs the package through its own scripts, so a renamed
function or a model that no longer round-trips would first show as a
failed benchmark run. These tests fail first instead.
"""

import argparse
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from nblgc import LabeledSample, save_model, svm_train

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bench_module(name):
    """perfbench/<name>.py, loaded as a module of its own."""
    spec = importlib.util.spec_from_file_location(f"nblgc_bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, function", [target[:2] for target in bench_module("spans").TARGETS])
def test_every_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"nblgc.{module}"), function))


def test_svm_child_predicts_the_same_after_loading(tmp_path):
    gen, child = bench_module("gen"), bench_module("child")
    gen.write_tree(tmp_path / "data", gen.generate(gen.QUICK, 3), binary=True)
    args = argparse.Namespace(data=str(tmp_path / "data"), resize="9x9", model=str(tmp_path / "model.txt"),
                              train_per_class=3, workers=1)
    result = {}
    assert child.run_svm(args, result) == 0
    assert len(result["labels"]) == gen.QUICK.classes * (gen.QUICK.per_class - 3)
    assert result["loaded"] == result["trained"]


def test_probe_child_extracts_each_image(tmp_path):
    gen, child = bench_module("gen"), bench_module("child")
    gen.write_tree(tmp_path / "data", gen.generate(gen.QUICK, 3), binary=True)
    args = argparse.Namespace(data=str(tmp_path / "data"), resize="9x9", count=5)
    result = {}
    assert child.run_probe(args, result) == 0
    assert result["images"] == 5


def test_span_counters_read_a_trained_model(tmp_path):
    # run.py drops every result when a span summary raises, so a model the
    # counters cannot read would first show as a lost benchmark run
    spans = bench_module("spans")
    counts = {name: fn for _, name, fn in spans.TARGETS}
    rng = np.random.default_rng(17)
    model = svm_train([LabeledSample(rng.normal(i % 3, 0.8, size=3), f"c{i % 3}") for i in range(18)])
    assert counts["svm_train"]((), {}, model) == {
        "machines": len(model.biases),
        "sv_rows": model.sv_index.size,
        "sv_distinct": len(np.unique(model.vectors[np.unique(model.sv_index)], axis=0)),
    }
    path = tmp_path / "m.model"
    save_model(model, path)
    assert counts["save_model"]((model, str(path)), {}, None) == {"bytes": path.stat().st_size}
