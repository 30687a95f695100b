"""Acceptance gate: every release-blocking behavior in one file.

Each numbered criterion prints a single ``[criterion N] PASS/FAIL: ...``
line carrying the measured quantity, then asserts on it. Criterion 7
needs a real face dataset (one subdirectory per person, PGM images);
point NBLGC_ORL_DIR at one, or place it under ./data/orl, to enable it.
Everything else runs on synthetic data.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import g2_halves, make_pgm_tree, random_raw
from oracles import naive_feature_vector

from nblgc import (
    ClassifierConfig,
    ContourVariant,
    FuzzifierRef,
    KnnModel,
    LabeledSample,
    SplitSpec,
    center_memberships,
    contours,
    distance_rows,
    evaluate,
    extract,
    extract_dataset,
    kfold,
    knn_predict,
    normalize_unit,
    roc_far_gar,
    split_rows,
    svm_predict,
    svm_train,
)
from nblgc.cli import main as cli_main

VARIANTS = list(ContourVariant)
REFS = list(FuzzifierRef)


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_extraction_matches_naive_reference():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        raw = random_raw(rng, width=9, height=9)
        gray = normalize_unit(raw)
        for variant in VARIANTS:
            for ref in REFS:
                got = extract(gray, variant, ref).values
                want = naive_feature_vector(
                    list(raw.pixels), 9, 9, variant.value, ref.value
                )
                worst = max(worst, float(np.max(np.abs(got - np.array(want)))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, ok, f"100 images x 9 variant/ref combos, max |diff|={worst:.3g}, {elapsed:.2f}s")


def test_criterion_2_contour_properties_hold_in_bulk():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    blocks = rng.uniform(0.0, 0.5, size=(10_000, 9))  # one window per row: center, then the ring

    def loops(b):
        return [contours(b, variant) for variant in VARIANTS]

    g1, g2, g3 = loops(blocks)
    g20, g21 = g2_halves(blocks)
    # range: eight absolute differences of values in [0, 1]
    assert all(((0.0 <= g) & (g <= 8.0)).all() for g in (g1, g2, g3))
    assert (g2 == g20 + g21).all()
    # shift invariance (values stay in range by construction)
    for shifted, g in zip(loops(blocks + 0.25), (g1, g2, g3)):
        assert (np.abs(shifted - g) <= 1e-12).all()
    # homogeneity: scaling the window scales every contour
    s1, _, s3 = loops(blocks * 1.75)
    assert (np.abs(s1 - 1.75 * g1) <= 1e-12).all()
    assert (np.abs(s3 - 1.75 * g3) <= 1e-12).all()
    # one step around the ring: closed loops keep their totals,
    # and the two stride-2 subloops trade places
    rot = blocks[:, [0, 2, 3, 4, 5, 6, 7, 8, 1]]
    r1, r2, r3 = loops(rot)
    assert (np.abs(r1 - g1) <= 1e-12).all()
    assert (np.abs(r3 - g3) <= 1e-12).all()
    r20, r21 = g2_halves(rot)
    assert (r20 == g21).all()
    assert (np.abs(r21 - g20) <= 1e-12).all() and (np.abs(r2 - g2) <= 1e-12).all()
    # the center pixel never enters a contour
    recentered = blocks.copy()
    recentered[:, 0] = 0.987
    c1, c2, c3 = loops(recentered)
    c20, c21 = g2_halves(recentered)
    assert (c1 == g1).all()
    assert (c20 == g20).all() and (c21 == g21).all() and (c2 == g2).all()
    assert (c3 == g3).all()
    checked = len(blocks)
    elapsed = time.perf_counter() - start
    ok = checked == 10_000 and elapsed < 5.0
    report(2, ok, f"{checked} windows x 7 properties, {elapsed:.2f}s")


def test_criterion_3_log_distance_is_a_metric():
    def log_distance(a, b):
        return distance_rows(a[None, :], b, "log")[0]

    rng = np.random.default_rng(103)
    triples = rng.uniform(0.0, 3.0, size=(10_000, 3, 441))
    worst_violation = 0.0
    for a, b, c in triples:
        d_ab = log_distance(a, b)
        d_bc = log_distance(b, c)
        d_ac = log_distance(a, c)
        assert d_ab >= 0.0 and d_ab == log_distance(b, a)
        worst_violation = max(worst_violation, d_ac - (d_ab + d_bc))
    assert log_distance(triples[0, 0], triples[0, 0]) == 0.0
    ok = worst_violation <= 1e-12
    report(3, ok, f"10000 triples in 441 dims, worst triangle violation={worst_violation:.3g}")


def test_criterion_4_center_membership_ignores_global_scale():
    rng = np.random.default_rng(104)
    # each window's nine values, then its five scales, in the order a loop
    # drawing uniform(0, 0.1) and uniform(0.1, 10) per window takes them
    draws = rng.random((2_000, 14))
    blocks = 0.1 * draws[:, :9]
    scales = 0.1 + (10.0 - 0.1) * draws[:, 9:]
    base = center_memberships(blocks)
    scaled = center_memberships((scales[:, :, None] * blocks[:, None, :]).reshape(-1, 9)).reshape(scales.shape)
    denom = np.maximum(np.abs(base), 1e-300)[:, None]
    worst = float((np.abs(scaled - base[:, None]) / denom).max())
    ok = worst < 1e-10
    report(4, ok, f"{len(blocks)} windows x {scales.shape[1]} scales in (0.1, 10), max rel diff={worst:.3g}")


def test_criterion_5_classifier_sanity():
    rng = np.random.default_rng(105)

    # well-separated clusters: both classifiers must be perfect
    centers = {"a": np.zeros(4), "b": np.full(4, 6.0), "c": np.full(4, -6.0)}
    labels = [label for label in centers for _ in range(10)]
    vectors = np.array([centers[label] + rng.normal(0, 0.3, size=4) for label in labels])
    train, test = split_rows(labels, SplitSpec(7))
    knn_acc = evaluate(vectors, labels, train, test, ClassifierConfig(kind="knn")).accuracy
    svm_acc = evaluate(vectors, labels, train, test, ClassifierConfig(kind="svm", degree=1)).accuracy

    # xor needs the quadratic kernel; C=1 caps the multipliers below the
    # interior optimum, so the check runs at C=10
    xor = [
        LabeledSample(np.array(v, dtype=float), lab)
        for v, lab in ((([0, 0]), "a"), ([1, 1], "a"), ([0, 1], "b"), ([1, 0], "b"))
    ]
    xor_model = svm_train(xor, degree=2, c=10.0)
    xor_ok = all(svm_predict(xor_model, s.vector) == s.label for s in xor)

    # memorization: 1-NN asked about its own training points
    self_model = KnnModel(vectors[train], [labels[i] for i in train])
    self_ok = all(knn_predict(self_model, vectors[i])[0] == labels[i] for i in train)

    # no signal: 40 classes of pure noise should sit at chance (2.5%)
    chance_accs = []
    for seed in range(10):
        noise_rng = np.random.default_rng(1000 + seed)
        noise_labels = [f"c{i:02d}" for i in range(40) for _ in range(10)]
        noise = np.array([noise_rng.uniform(size=10) for _ in noise_labels])
        tr, te = split_rows(noise_labels, SplitSpec(7, shuffle_seed=seed))
        chance_accs.append(evaluate(noise, noise_labels, tr, te, ClassifierConfig(kind="knn")).accuracy)
    chance = sum(chance_accs) / len(chance_accs)

    ok = (
        knn_acc == 100.0
        and svm_acc == 100.0
        and xor_ok
        and self_ok
        and 0.5 <= chance <= 4.5
    )
    report(
        5,
        ok,
        f"separable knn={knn_acc:.4g}% svm={svm_acc:.4g}%, xor@C=10 {'4/4' if xor_ok else 'failed'}, "
        f"self-test {'ok' if self_ok else 'failed'}, 40-class chance mean={chance:.3g}%",
    )


def test_criterion_6_roc_sweep_is_monotone_with_fixed_endpoints():
    rng = np.random.default_rng(106)
    classes = [i for i in range(5) for _ in range(8)]
    vectors = np.array([np.full(4, 4.0 * i) + rng.normal(0, 0.5, size=4) for i in classes])
    labels = [f"c{i}" for i in classes]
    points = roc_far_gar(vectors, labels, *split_rows(labels, SplitSpec(5)))
    start_ok = points[0].threshold == 0.0 and points[0].far == 0.0 and points[0].gar == 0.0
    end_ok = points[-1].far == 100.0 and points[-1].gar == 100.0
    mono_ok = all(
        b.threshold > a.threshold and b.far >= a.far and b.gar >= a.gar
        for a, b in zip(points, points[1:])
    )
    ok = start_ok and end_ok and mono_ok
    report(
        6,
        ok,
        f"{len(points)} thresholds, start=({points[0].far},{points[0].gar}), "
        f"end=({points[-1].far},{points[-1].gar}), monotone={mono_ok}",
    )


def _orl_root():
    env = os.environ.get("NBLGC_ORL_DIR")
    if env:
        return Path(env)
    local = Path(__file__).resolve().parent.parent / "data" / "orl"
    return local if local.is_dir() else None


def test_criterion_7_face_dataset_reproduction():
    root = _orl_root()
    if root is None or not root.is_dir():
        print("[criterion 7] SKIP: no face dataset (set NBLGC_ORL_DIR or add ./data/orl)")
        pytest.skip("face dataset not available (set NBLGC_ORL_DIR or add ./data/orl)")
    start = time.perf_counter()
    _, labels, matrix, _ = extract_dataset(root, (63, 63), VARIANTS[0], REFS[0])
    train, test = split_rows(labels, SplitSpec(7))
    knn_acc = evaluate(matrix, labels, train, test, ClassifierConfig(kind="knn")).accuracy
    svm_acc = evaluate(matrix, labels, train, test, ClassifierConfig(kind="svm", degree=1)).accuracy
    fold_acc = kfold(matrix, labels, 10, ClassifierConfig(kind="knn")).accuracy
    elapsed = time.perf_counter() - start
    ok = (
        abs(knn_acc - 93.33) <= 5.0
        and abs(svm_acc - 95.0) <= 5.0
        and 85.0 <= fold_acc <= 100.0
        and elapsed < 60.0
    )
    report(
        7,
        ok,
        f"knn={knn_acc:.4g}% (target 93.33+-5), svm={svm_acc:.4g}% (target 95+-5), "
        f"10-fold={fold_acc:.4g}%, {elapsed:.1f}s",
    )


def test_criterion_8_reruns_are_byte_identical(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    make_pgm_tree(data, n_classes=5, per_class=6, size=(9, 9), seed=42)

    def run(cmd, out, *extra):
        argv = [cmd, "--data", str(data), "--resize", "9x9",
                "--out", str(out), "--workers", "1", *extra]
        assert cli_main(argv) == 0

    jobs = [
        ("extract", "features.csv", ()),
        ("evaluate", "report.csv", ("--train-per-class", "4")),
        ("kfold", "folds.csv", ("--folds", "3")),
        ("roc", "roc.csv", ("--train-per-class", "4")),
    ]
    mismatches = []
    for cmd, artifact, extra in jobs:
        out1, out2 = tmp_path / f"{cmd}1", tmp_path / f"{cmd}2"
        run(cmd, out1, *extra)
        run(cmd, out2, *extra)
        for name in (artifact, "config.json"):
            if (out1 / name).read_bytes() != (out2 / name).read_bytes():
                mismatches.append(f"{cmd}/{name}")

    # --workers acts on the kfold and roc distances: each must give its --workers 1 bytes
    for cmd, artifact, extra in jobs[2:]:
        out_w2 = tmp_path / f"{cmd}_w2"
        argv = [cmd, "--data", str(data), "--resize", "9x9", "--out", str(out_w2), "--workers", "2", *extra]
        assert cli_main(argv) == 0
        for name in (artifact, "config.json"):
            if (tmp_path / f"{cmd}1" / name).read_bytes() != (out_w2 / name).read_bytes():
                mismatches.append(f"{cmd}/{name}/workers=2")

    ok = not mismatches
    report(8, ok, "4 commands rerun + threaded kfold and roc, all byte-identical"
           if ok else f"mismatched: {', '.join(mismatches)}")
