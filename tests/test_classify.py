import base64
import math
import re
import tracemalloc
from dataclasses import fields, replace
from decimal import Decimal
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nblgc import (
    ClassifierConfig,
    FeatureVector,
    KnnModel,
    LabeledSample,
    SvmModel,
    check_svm_settings,
    distance_rows,
    evaluate,
    knn_predict,
    load_model,
    save_model,
    svm_predict,
    svm_train,
)
from conftest import knn_model
from nblgc import classify, evaluation
from nblgc.classify import _decision_values, _kernel, _smo_lockstep, _svm_fit
from oracles import _smo_pair


def samples(pairs):
    return [LabeledSample(np.asarray(v, dtype=float), lab) for v, lab in pairs]


def flat_svm(classes, vectors, machines, degree=1, offset=1.0):
    """An SvmModel from one (indices, coefficients, bias) per machine, in pair order."""
    return SvmModel(classes, vectors, [len(idx) for idx, _, _ in machines],
                    [i for idx, _, _ in machines for i in idx], [c for _, coef, _ in machines for c in coef],
                    [bias for _, _, bias in machines], degree, 1.0, offset, 1e-3)


def b64(values, dtype="<f8"):
    """An array as a model file stores it: the base64 of its little-endian 8-byte values."""
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


STORE = {"biases": "<f8", "sv_coef": "<f8", "sv_count": "<i8", "sv_index": "<i8"}  # svm store records, in order


def assert_same_svm(a, b):
    """Every array of two SVM models is bit-equal, with the same dtype kind."""
    for name in ("vectors", *STORE):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype.kind == y.dtype.kind and x.tobytes() == y.tobytes(), name


def distance(a, b, kind="log"):
    """The distance between two vectors: b as the query, a as the only row."""
    return distance_rows(np.asarray([a], dtype=float), np.asarray(b, dtype=float), kind)[0]


class TestDistances:
    def test_log_distance_hand_value(self):
        assert distance([1.0, 2.0], [2.0, 4.0]) == pytest.approx(
            1.791759469228055, rel=1e-12
        )

    def test_identity_is_exactly_zero(self):
        v = np.array([0.3, -2.0, 15.5])
        assert distance(v, v) == 0.0
        assert distance(v, v, "euclidean") == 0.0

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a, b = rng.normal(size=(2, 20))
            assert distance(a, b) == distance(b, a)

    def test_euclidean_hand_value(self):
        assert distance([0.0, 0.0], [3.0, 4.0], "euclidean") == 5.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            a, b, c = rng.uniform(-5, 5, size=(3, 10))
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            distance([1.0], [1.0, 2.0])

    def test_global_rescaling_can_reorder_neighbors(self):
        # ln(1+x) is concave, so one big coordinate gap can beat two medium
        # ones at full scale and lose to them after shrinking everything;
        # this pins the no-rescaling rule for the log distance
        query = np.zeros(2)
        spread_one = np.array([3.0, 0.0])
        spread_two = np.array([1.2, 1.2])
        assert distance(query, spread_one) < distance(query, spread_two)
        assert distance(query, 0.1 * spread_one) > distance(query, 0.1 * spread_two)
        train = samples([(spread_one, "one"), (spread_two, "two")])
        scaled = samples([(0.1 * spread_one, "one"), (0.1 * spread_two, "two")])
        assert knn_predict(knn_model(train), query)[0] == "one"
        assert knn_predict(knn_model(scaled), query)[0] == "two"


class TestKnn:
    def test_nearest_neighbor_default(self):
        train = samples([([0.0], "a"), ([10.0], "b")])
        label, dists = knn_predict(knn_model(train), [1.0])
        assert label == "a"
        assert len(dists) == 1
        assert dists[0] == pytest.approx(math.log(2.0))

    @pytest.mark.filterwarnings("error")  # the ValueError alone reports it
    @pytest.mark.parametrize("distance, rows, query", [
        ("euclidean", [[0.0, 0.0], [1e200, 1e200]], [1e200, 0.0]),  # both squares overflow to inf
        ("log", [[1e308], [0.0]], [-1e308]),  # the difference overflows
    ])
    def test_rejects_overflowing_distances(self, distance, rows, query):
        # an infinite distance once tied every row and the first index won
        model = knn_model(samples([(rows[0], "a"), (rows[1], "b")]), distance=distance)
        with pytest.raises(ValueError, match=f"{distance} distance overflows"):
            knn_predict(model, query)

    def test_rejects_non_finite_query(self):
        model = knn_model(samples([([0.0], "a"), ([10.0], "b")]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                knn_predict(model, [bad])

    @pytest.mark.parametrize("make", [
        lambda: LabeledSample(np.array([1.0, 2.0]), "a"),
        lambda: KnnModel(np.array([[1.0]]), ["a"]),
        lambda: FeatureVector(np.ones(2)),
        lambda: svm_train(samples([([0.0], "a"), ([1.0], "b")])).machines[0],
    ], ids=["LabeledSample", "KnnModel", "FeatureVector", "BinaryMachine"])
    def test_compares_by_identity(self, make):
        # arrays have no single truth value: == and `in` once raised ValueError, hash TypeError
        a, b = make(), make()
        assert a in [a] and b not in [a]
        assert (a == b) is False
        assert len({a, a, b}) == 2

    def test_samples_must_be_finite(self):
        for bad in (np.nan, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                LabeledSample(np.array([0.0, bad]), "a")

    def test_exact_match_wins(self):
        rng = np.random.default_rng(23)
        train = samples([(rng.normal(size=5), f"c{i}") for i in range(10)])
        model = knn_model(train)
        for s in train:
            assert knn_predict(model, s.vector)[0] == s.label

    def test_majority_vote(self):
        train = samples([([0.0], "a"), ([0.2], "b"), ([0.3], "b"), ([9.0], "a")])
        label, dists = knn_predict(knn_model(train, neighbors_k=3), [0.1])
        assert label == "b"
        assert dists == sorted(dists)

    def test_vote_tie_smallest_summed_distance(self):
        # two votes each; b's neighbors sit closer in total
        def at(d):  # place a 1-D point whose log distance to 0 is exactly d
            return [math.exp(d) - 1.0]

        train = samples([(at(0.1), "a"), (at(0.9), "a"), (at(0.3), "b"), (at(0.5), "b")])
        label, _ = knn_predict(knn_model(train, neighbors_k=4), [0.0])
        assert label == "b"

    def test_vote_tie_then_class_order(self):
        train = samples([([1.0], "z"), ([-1.0], "a")])
        label, _ = knn_predict(knn_model(train, neighbors_k=2), [0.0])
        assert label == "a"

    def test_model_validation(self):
        train = samples([([1.0], "a")])
        with pytest.raises(ValueError, match="neighbors_k"):
            knn_model(train, neighbors_k=2)
        with pytest.raises(ValueError, match="non-empty"):
            KnnModel(np.empty((0, 1)), [])
        with pytest.raises(ValueError, match="unknown distance"):
            knn_model(train, distance="cosine")
        with pytest.raises(ValueError, match="share one dimension"):
            knn_model(samples([([1.0], "a"), ([1.0, 2.0], "b")]))
        for vectors, labels in ((np.zeros((2, 1)), ["a"]), (np.zeros(2), ["a", "b"]), ([[0.0], [np.inf]], ["a", "b"])):
            with pytest.raises(ValueError, match="finite 2-D array with one row per label"):
                KnnModel(vectors, labels)

    def test_model_is_a_frozen_copy_of_its_arrays(self):
        vectors = np.array([[0.0, 1.0], [2.0, 3.0]])
        model = KnnModel(vectors, ["a", "b"])
        assert [f.name for f in fields(model)] == ["vectors", "labels", "neighbors_k", "distance"]
        assert vectors.flags.writeable and not model.vectors.flags.writeable
        vectors[0, 0] = 9.0
        assert model.vectors.tolist() == [[0.0, 1.0], [2.0, 3.0]] and model.labels == ("a", "b")

    def test_query_dimension_checked(self):
        model = knn_model(samples([([1.0, 2.0], "a"), ([0.0, 0.0], "b")]))
        with pytest.raises(ValueError, match="length mismatch"):
            knn_predict(model, [1.0])

    def test_euclidean_option(self):
        train = samples([([0.0, 0.0], "near"), ([10.0, 10.0], "far")])
        model = knn_model(train, distance="euclidean")
        assert knn_predict(model, [1.0, 1.0])[0] == "near"


class TestKernel:
    def test_values(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        assert _kernel(a, b, 0.0, 1) == 11.0
        assert _kernel(a, b, 1.0, 2) == 144.0

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        a, b = rng.normal(size=(2, 7))
        assert _kernel(a, b, 1.0, 2) == _kernel(b, a, 1.0, 2)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_gram_matrix_is_the_only_result_sized_array(self, degree):
        # the benchmark's 280 training rows of 441 features: a 627 KB Gram matrix
        x = np.random.default_rng(32).normal(size=(280, 441))
        tracemalloc.start()
        try:
            gram = _kernel(x, x.T, 0.5, degree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * gram.nbytes
        assert gram.tobytes() == ((x @ x.T + 0.5) ** degree).tobytes()


def _dual_oracle(kmat, y, c):
    """Independent route: box-constrained dual optimum via SLSQP."""
    from scipy.optimize import minimize

    res = minimize(
        lambda a: -_dual_objective(a, kmat, y),
        np.full(len(y), c / 2.0),
        bounds=[(0.0, c)] * len(y),
        constraints={"type": "eq", "fun": lambda a: a @ y},
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 2000},
    )
    return res.x


def _dual_objective(alphas, kmat, y):
    return alphas.sum() - 0.5 * (alphas * y) @ kmat @ (alphas * y)


def _dual_oracle_solves_xor(c):
    pts = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
    y = np.array([1.0, 1.0, -1.0, -1.0])
    kmat = (pts @ pts.T + 1.0) ** 2
    alphas = _dual_oracle(kmat, y, c)
    scores = (alphas * y) @ kmat
    interior = (alphas > 1e-6) & (alphas < c - 1e-6)
    if not interior.any():
        return False
    i = int(np.argmax(interior))
    bias = y[i] - scores[i]
    return bool((np.sign(scores + bias) == y).all())


def _random_dual_problems():
    """About 30 seeded two-class problems: m 4-16, degree 1 and 2, C 0.5, 1, 10."""
    rng = np.random.default_rng(40)
    for index in range(30):
        m = int(rng.integers(4, 17))
        n_pos = int(rng.integers(1, m))
        x = rng.normal(size=(m, int(rng.integers(1, 6))))
        x[:n_pos] += rng.normal(0.0, 1.0, size=x.shape[1])  # partly overlapping classes
        degree, c = 1 + index % 2, (0.5, 1.0, 10.0)[index % 3]
        yield pytest.param(x, n_pos, degree, c, id=f"{index}-m{m}-deg{degree}-C{c}")


def _reference_cases():
    """Training sets for the lockstep solver against the per-pair reference."""
    rng = np.random.default_rng(41)
    balanced = [(rng.normal(k % 40, 6.0, size=20), f"c{k % 40:02d}") for k in range(280)]
    sizes = rng.integers(1, 10, size=12)
    unequal = [(rng.normal(k, 3.0, size=6), f"c{k:02d}") for k, size in enumerate(sizes) for _ in range(size)]
    rng = np.random.default_rng(12)
    tol_zero = [(rng.normal(i % 3, 1.5, size=3), f"c{i % 3}") for i in range(30)]
    rng = np.random.default_rng(13)  # as in test_large_kernel_values_still_train
    shifts = {"a": [0, 0, 0, 0], "b": [8, 0, 0, 0], "c": [0, 8, 0, 0]}
    large = [(rng.normal(28.0, 1.0, size=4) + shift, k) for k, shift in shifts.items() for _ in range(6)]
    yield pytest.param(balanced, 1, 1e-3, id="balanced-40x7")
    yield pytest.param(unequal, 1, 1e-3, id="unequal-class-sizes")
    yield pytest.param(tol_zero, 2, 0.0, id="tol-zero")
    yield pytest.param(balanced[:70], 2, 1e-3, id="degree-2")
    yield pytest.param(large, 2, 1e-3, id="large-kernel-values")


def _positive_definite_problems():
    """30 seeded two-class problems with at least as many dimensions as
    points, so the Gram matrix is positive definite and the optimum unique."""
    rng = np.random.default_rng(43)
    for index in range(30):
        m = int(rng.integers(4, 13))
        n_pos = int(rng.integers(1, m))
        x = rng.normal(size=(m, m + int(rng.integers(0, 3))))
        x[:n_pos] += rng.normal(0.0, 1.0, size=x.shape[1])
        queries = rng.normal(size=(5, x.shape[1]))
        degree, c = 1 + index % 2, (0.5, 1.0, 10.0)[index % 3]
        yield pytest.param(x, n_pos, queries, degree, c, id=f"{index}-m{m}-deg{degree}-C{c}")


class TestSvm:
    def test_separable_two_class_degree_one(self):
        rng = np.random.default_rng(5)
        train = samples(
            [(rng.normal(0.0, 0.3, size=4), "lo") for _ in range(15)]
            + [(rng.normal(5.0, 0.3, size=4), "hi") for _ in range(15)]
        )
        model = svm_train(train, degree=1)
        assert all(svm_predict(model, s.vector) == s.label for s in train)

    def test_multipliers_bounded_and_balanced(self):
        rng = np.random.default_rng(6)
        c = 2.5
        train = samples([(rng.normal(size=3), f"c{i % 3}") for i in range(24)])
        model = svm_train(train, degree=1, c=c)
        assert len(model.machines) == 3
        for mach in model.machines:
            mags = np.abs(mach.coefficients)
            assert (mags <= c + 1e-9).all()
            assert abs(mach.coefficients.sum()) <= 1e-6

    def test_xor_degree_two(self):
        # C=10 admits the interior dual solution; at the default C=1 the
        # box-bound optimum scores (0,0) and both negatives identically,
        # which the independent solver confirms
        assert _dual_oracle_solves_xor(10.0)
        assert not _dual_oracle_solves_xor(1.0)
        xor = samples([([0, 0], "a"), ([1, 1], "a"), ([0, 1], "b"), ([1, 0], "b")])
        model = svm_train(xor, degree=2, c=10.0)
        assert [svm_predict(model, s.vector) for s in xor] == ["a", "a", "b", "b"]

    def test_three_class_one_vs_one(self):
        rng = np.random.default_rng(7)
        centers = {"a": (0, 0), "b": (6, 0), "c": (0, 6)}
        train = samples(
            [
                (np.array([cx, cy]) + rng.normal(0, 0.4, size=2), lab)
                for lab, (cx, cy) in centers.items()
                for _ in range(10)
            ]
        )
        model = svm_train(train, degree=1)
        assert model.classes == ("a", "b", "c")
        assert len(model.machines) == 3
        correct = sum(svm_predict(model, s.vector) == s.label for s in train)
        assert correct == len(train)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        train = samples([(rng.normal(size=4), f"c{i % 2}") for i in range(16)])
        a = svm_train(train, degree=1)
        b = svm_train(train, degree=1)
        for ma, mb in zip(a.machines, b.machines):
            assert np.array_equal(ma.coefficients, mb.coefficients)
            assert ma.bias == mb.bias

    def test_tol_zero_ends_within_the_cap_and_repeats(self):
        rng = np.random.default_rng(12)
        train = samples([(rng.normal(i % 3, 1.5, size=3), f"c{i % 3}") for i in range(30)])
        x = np.stack([s.vector for s in train[:20]])
        y = np.where(np.arange(20) % 3 == 0, 1.0, -1.0)
        _, _, steps = _smo_lockstep((x @ x.T + 1.0) ** 2, np.arange(20)[None, :], y[None, :], 1.0, 0.0)
        assert steps[0] < 1000 * len(y)
        a, b = svm_train(train, degree=2, tol=0.0), svm_train(train, degree=2, tol=0.0)
        for ma, mb in zip(a.machines, b.machines):
            assert np.array_equal(ma.indices, mb.indices)
            assert ma.coefficients.tobytes() == mb.coefficients.tobytes()
            assert ma.bias == mb.bias

    @pytest.mark.parametrize("pairs,degree,tol", _reference_cases())
    def test_lockstep_matches_the_per_pair_reference(self, pairs, degree, tol):
        train = samples(pairs)
        labels = [s.label for s in train]
        members = {c: [i for i, lab in enumerate(labels) if lab == c] for c in sorted(set(labels))}
        pair_rows = [(members[pos], members[neg]) for pos, neg in combinations(sorted(members), 2)]
        width = max(len(pos) + len(neg) for pos, neg in pair_rows)
        idx, y = np.zeros((len(pair_rows), width), dtype=np.intp), np.zeros((len(pair_rows), width))
        for b, (pos, neg) in enumerate(pair_rows):
            idx[b, : len(pos) + len(neg)] = pos + neg
            y[b, : len(pos) + len(neg)] = [1.0] * len(pos) + [-1.0] * len(neg)
        x = np.stack([s.vector for s in train])
        gram = (x @ x.T + 1.0) ** degree
        alphas, biases, steps = _smo_lockstep(gram, idx, y, 1.0, tol)
        model = svm_train(train, degree=degree, tol=tol)
        for b, machine in enumerate(model.machines):
            m = np.count_nonzero(y[b])
            rows, y_b = idx[b, :m], y[b, :m]
            ref_alphas, ref_bias, ref_steps = _smo_pair(gram[np.ix_(rows, rows)], y_b, 1.0, tol)
            assert alphas[b, :m].tobytes() == ref_alphas.tobytes() and not alphas[b, m:].any()
            assert steps[b] == ref_steps
            keep = ref_alphas > 0.0
            assert machine.indices.tobytes() == rows[keep].tobytes()
            assert machine.coefficients.tobytes() == (ref_alphas[keep] * y_b[keep]).tobytes()
            for bias in (biases[b], machine.bias):
                assert np.float64(bias).tobytes() == np.float64(ref_bias).tobytes()

    @pytest.mark.parametrize("x,n_pos,degree,c", _random_dual_problems())
    def test_dual_objective_matches_oracle(self, x, n_pos, degree, c):
        y = np.where(np.arange(len(x)) < n_pos, 1.0, -1.0)
        model = svm_train(samples([(row, "a" if t > 0 else "b") for row, t in zip(x, y)]), degree=degree, c=c)
        (machine,) = model.machines
        alphas = np.zeros(len(x))
        alphas[machine.indices] = machine.coefficients * y[machine.indices]
        kmat = (x @ x.T + 1.0) ** degree
        best = _dual_objective(_dual_oracle(kmat, y, c), kmat, y)
        assert abs(_dual_objective(alphas, kmat, y) - best) <= 1e-5 * max(1.0, abs(best))

    @pytest.mark.parametrize("x,n_pos,queries,degree,c", _positive_definite_problems())
    def test_held_out_decisions_match_oracle(self, x, n_pos, queries, degree, c):
        y = np.where(np.arange(len(x)) < n_pos, 1.0, -1.0)
        kmat = (x @ x.T + 1.0) ** degree
        eigenvalues = np.linalg.eigvalsh(kmat)
        assert eigenvalues[0] > 1e-4 * eigenvalues[-1]
        alphas = _dual_oracle(kmat, y, c)
        free = (alphas > 1e-6 * c) & (alphas < c - 1e-6 * c)
        bias = np.mean(y[free] - (alphas * y) @ kmat[:, free])  # the unique optimum has free multipliers here
        expected = (alphas * y) @ ((x @ queries.T + 1.0) ** degree) + bias
        # measured worst over these 30 problems: 8.0e-4 at the default tol
        # (the solver's own stopping gap) and 4.4e-6 at tol 1e-9 (SLSQP's accuracy)
        for tol, bound in ((1e-3, 1e-3), (1e-9, 1e-5)):
            model = svm_train(samples([(row, "a" if t > 0 else "b") for row, t in zip(x, y)]),
                              degree=degree, c=c, tol=tol)
            got = np.array([_decision_values(model, q)[0] for q in queries])
            assert (np.abs(got - expected) <= bound * np.maximum(1.0, np.abs(expected))).all()

    def test_flat_decision_values_match_each_machine(self):
        # the flat store sums each machine's terms in index order; a per-machine
        # dot product may sum them in another order. Measured worst relative to
        # max(1, |d|): 3.6e-15 over these models, 2.9e-14 over three more seeds
        rng = np.random.default_rng(44)
        for _ in range(40):
            classes = tuple(f"c{k}" for k in range(rng.integers(2, 7)))
            n_train, dim = int(rng.integers(1, 40)), int(rng.integers(1, 30))
            machines = []
            for _ in combinations(classes, 2):
                n_sv = int(rng.integers(0, n_train + 1))
                coefficients = rng.normal(size=n_sv) * 10.0 ** rng.uniform(-3, 1)
                machines.append((rng.choice(n_train, n_sv, replace=False), coefficients, float(rng.normal())))
            model = flat_svm(classes, rng.normal(size=(n_train, dim)), machines,
                             int(rng.integers(1, 3)), float(rng.uniform(0, 2)))
            for query in rng.normal(size=(5, dim)):
                row = (model.vectors @ query + model.offset) ** model.degree
                expected = np.array([m.coefficients @ row[m.indices] + m.bias for m in model.machines])
                got = _decision_values(model, query)
                assert (np.abs(got - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected))).all()

    def test_large_kernel_values_still_train(self):
        # degree-2 kernel values near 1e7: every multiplier of the optimum
        # is below 1e-5, yet the machines must still train
        rng = np.random.default_rng(13)
        shifts = {"a": [0, 0, 0, 0], "b": [8, 0, 0, 0], "c": [0, 8, 0, 0]}
        train = samples([(rng.normal(28.0, 1.0, size=4) + shift, k) for k, shift in shifts.items() for _ in range(6)])
        model = svm_train(train, degree=2)
        assert model.vectors[0] @ model.vectors[0] > 3000.0
        assert any(m.indices.size for m in model.machines)
        assert [svm_predict(model, s.vector) for s in train] == [s.label for s in train]

    def test_rejects_bad_input(self):
        one_class = samples([([1.0], "a"), ([2.0], "a")])
        with pytest.raises(ValueError, match="two classes"):
            svm_train(one_class)
        with pytest.raises(ValueError, match="finite"):
            svm_train(samples([([np.inf], "a"), ([1.0], "b")]))
        two = samples([([0.0], "a"), ([1.0], "b")])
        with pytest.raises(ValueError, match="degree"):
            svm_train(two, degree=3)
        for c in (0.0, float("inf")):
            with pytest.raises(ValueError, match="C must be positive"):
                svm_train(two, c=c)
        for tol in (-1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tol must be"):
                svm_train(two, tol=tol)

    def test_models_compare_by_identity(self):
        two = samples([([0.0], "a"), ([1.0], "b")])
        model = svm_train(two)
        assert model == model
        assert (model == svm_train(two)) is False

    @pytest.mark.parametrize("degree", [1, 2])
    def test_list_form_saves_the_bytes_of_the_matrix_fit(self, tmp_path, degree):
        rng = np.random.default_rng(21)
        train = samples([(rng.normal(i % 4, 0.8, size=5), f"c{i % 4}") for i in range(24)])
        save_model(svm_train(train, degree, 2.0, 0.5, 1e-4), tmp_path / "list.model")
        fitted = _svm_fit(np.stack([s.vector for s in train]), [s.label for s in train], degree, 2.0, 0.5, 1e-4)
        save_model(fitted, tmp_path / "matrix.model")
        assert (tmp_path / "list.model").read_bytes() == (tmp_path / "matrix.model").read_bytes()

    def test_vote_tie_magnitude_then_order(self):
        # hand-built machines force a 1-1-1 vote; summed magnitude decides.
        # Machines without support vectors decide by their bias alone, in
        # pair order a/b, a/c, b/c
        model = flat_svm(("a", "b", "c"), np.zeros((1, 1)), [
            ([], [], 1.0),   # a/b votes a, magnitude 1
            ([], [], -2.0),  # a/c votes c, magnitude 2
            ([], [], 1.0),   # b/c votes b, magnitude 1
        ])
        assert svm_predict(model, [0.0]) == "c"
        flat = flat_svm(("a", "b", "c"), np.zeros((1, 1)), [([], [], 1.0), ([], [], -1.0), ([], [], 1.0)])
        assert svm_predict(flat, [0.0]) == "a"

    @pytest.mark.parametrize(
        "classes,pairs,message",
        [  # pairs: one machine per entry, in pair order: its support indices
            (("a", "a"), [[]], "class labels must be distinct"),
            (("a", "b"), [[2]], "index outside vectors"),
            (("a", "b", "c"), [[]] * 4, "each pair of classes exactly once"),
            (("a", "b"), [[]] * 3, "each pair of classes exactly once"),
            (("a", "b", "c"), [[], []], "each pair of classes exactly once"),
            (("a",), [], "at least two classes"),
            (("a", "b", "c"), [], "0 machines for 3 classes"),
            # fractional support indices must not be truncated
            (("a", "b"), [[0.7, 1.9]], "indices must be integers"),
        ],
    )
    def test_malformed_machine_set_rejected(self, classes, pairs, message):
        with pytest.raises(ValueError, match=message):
            flat_svm(classes, np.zeros((2, 1)), [(idx, [1.0] * len(idx), 0.0) for idx in pairs])

    @pytest.mark.parametrize(
        "sv_count,sv_index,sv_coef,message",
        [
            ([1, 0, 0], [], [], "sv_count needs"),
            ([1, 0, 0], [0], [1.0, 2.0], "sv_count needs"),
            ([2, 0, 0], [0], [1.0], "sv_count needs"),
            ([0, 0], [], [], "sv_count needs"),
            ([-1, 1, 0], [0], [1.0], "sv_count needs"),
            ([0.5, 0, 0], [], [], "support counts and indices must be integers"),
        ],
    )
    def test_support_counts_must_match_the_store(self, sv_count, sv_index, sv_coef, message):
        with pytest.raises(ValueError, match=message):
            SvmModel(("a", "b", "c"), np.zeros((2, 1)), sv_count, sv_index, sv_coef, [0.0] * 3, 1, 1.0, 1.0, 1e-3)

    def test_rejects_non_finite_query(self):
        model = svm_train(samples([([0.0], "a"), ([1.0], "b")]))
        with pytest.raises(ValueError, match="finite"):
            svm_predict(model, [np.nan])

    def test_rejects_query_of_wrong_length(self):
        trained = svm_train(samples([([0.0, 1.0], "a"), ([1.0, 0.0], "b")]))
        no_sv = flat_svm(("a", "b"), np.zeros((1, 2)), [([], [], 0.5)])
        for model in (trained, no_sv):
            with pytest.raises(ValueError, match="length mismatch"):
                svm_predict(model, [0.0, 1.0, 2.0])

    def test_machines_slice_the_frozen_flat_store(self, tmp_path):
        rng = np.random.default_rng(16)
        trained = svm_train(samples([(rng.normal(i % 3, 0.8, size=3), f"c{i % 3}") for i in range(18)]))
        supplied = {name: getattr(trained, name).copy()
                    for name in ("vectors", "sv_count", "sv_index", "sv_coef", "biases")}
        model = SvmModel(trained.classes, **supplied, degree=1, c=1.0, offset=1.0, tol=1e-3)
        for m in model.machines:
            for kept, flat in ((m.indices, model.sv_index), (m.coefficients, model.sv_coef)):
                assert not kept.flags.writeable and np.shares_memory(kept, flat)
        assert all(a.flags.writeable for a in supplied.values())
        queries = rng.normal(1.0, 1.0, size=(6, 3))
        path = tmp_path / "m.model"
        save_model(model, path)
        saved, decisions = path.read_bytes(), [_decision_values(model, q) for q in queries]
        supplied["vectors"] += 1.0
        supplied["sv_count"][::-1] = supplied["sv_count"].copy()
        supplied["sv_index"][:] = 0
        supplied["sv_coef"][:] = 5.0
        supplied["biases"][:] = 5.0
        save_model(model, path)
        assert path.read_bytes() == saved
        assert all(np.array_equal(_decision_values(model, q), d) for q, d in zip(queries, decisions))

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError, match="each pair of classes exactly once"):
            SvmModel(("a", "b"), np.zeros((1, 1)), [], [], [], [], 1, 1.0, 1.0, 1e-3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_query_is_refused_not_voted(self):
        # (v . q + 1) ** 2 overflows to inf, and +inf and -inf entries sum to nan
        train = samples([([0.0, 1.0, 2.0], "a"), ([1.0, 0.0, 1.0], "b"), ([2.0, 2.0, 0.0], "c"),
                         ([0.5, 1.0, 1.0], "a")])
        model = svm_train(train, degree=2)
        with pytest.raises(ValueError, match="decision value overflows"):
            svm_predict(model, np.full(3, 1e160))
        assert svm_predict(model, [0.0, 1.0, 2.0]) == "a"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gram_matrix_is_refused(self):
        with pytest.raises(ValueError, match="kernel overflows"):
            svm_train(samples([([1e200, 1e200], "a"), ([-1e200, 1e200], "b")]))


_F32_INF, _NAN, _INF = np.float32("inf"), float("nan"), float("inf")


@pytest.mark.parametrize(
    "settings,message",
    [
        ((1, 1.0, 1.0, 1e-3), None),
        ((2, 1e308, -1e308, 0.0), None),
        ((1, 5e-324, 0.0, 0.0), None),
        ((1, 3, -2, 0), None),
        ((np.int64(2), np.float32(1.0), np.int64(3), np.float32(0.0)), None),
        ((0, 1.0, 1.0, 1e-3), "degree must be 1 or 2"),
        ((3, 1.0, 1.0, 1e-3), "degree must be 1 or 2"),
        ((np.int64(3), 1.0, 1.0, 1e-3), "degree must be 1 or 2"),
        ((1.5, 1.0, 1.0, 1e-3), "degree must be 1 or 2"),
        ((1, 0.0, 1.0, 1e-3), "C must be positive and finite"),
        ((1, -1.0, 1.0, 1e-3), "C must be positive and finite"),
        ((1, _INF, 1.0, 1e-3), "C must be positive and finite"),
        ((1, -_INF, 1.0, 1e-3), "C must be positive and finite"),
        ((1, _NAN, 1.0, 1e-3), "C must be positive and finite"),
        ((1, _F32_INF, 1.0, 1e-3), "C must be positive and finite"),
        ((1, np.float64(_NAN), 1.0, 1e-3), "C must be positive and finite"),
        ((1, 1.0, _INF, 1e-3), "offset must be finite"),
        ((1, 1.0, -_INF, 1e-3), "offset must be finite"),
        ((1, 1.0, _NAN, 1e-3), "offset must be finite"),
        ((1, 1.0, -_F32_INF, 1e-3), "offset must be finite"),
        ((1, 1.0, 1.0, -1e-3), "tol must be a finite number >= 0"),
        ((1, 1.0, 1.0, _NAN), "tol must be a finite number >= 0"),
        ((1, 1.0, 1.0, _INF), "tol must be a finite number >= 0"),
        ((1, 1.0, 1.0, _F32_INF), "tol must be a finite number >= 0"),
    ],
    ids=repr,
)
def test_svm_settings_verdicts(settings, message):
    if message is None:
        check_svm_settings(*settings)
    else:
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_svm_settings(*settings)


@pytest.mark.parametrize("position,name", [(1, "C"), (2, "offset"), (3, "tol")])
def test_svm_setting_beyond_float_range_names_itself(position, name):
    for huge in (10**400, -(10**400)):
        settings = [1, 1.0, 1.0, 1e-3]
        settings[position] = huge
        with pytest.raises(ValueError, match=f"^{name} "):
            check_svm_settings(*settings)


def _memory_owner(array):
    """The object whose memory array uses: the end of its chain of bases."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array if array.base is None else array.base


class TestModelOwnership:
    """The public constructors copy a caller's arrays; the module's own builders keep the fresh arrays they made."""

    def test_constructors_copy_a_callers_arrays(self):
        vectors = np.arange(6.0).reshape(3, 2)
        store = {"sv_count": np.array([1, 1, 1]), "sv_index": np.array([0, 1, 2]),
                 "sv_coef": np.array([0.5, -0.5, 1.0]), "biases": np.zeros(3)}
        knn = KnnModel(vectors, ["a", "b", "c"])
        svm = SvmModel(("a", "b", "c"), vectors, **store, degree=1, c=1.0, offset=1.0, tol=1e-3)
        for model, supplied in ((knn, {"vectors": vectors}), (svm, {"vectors": vectors, **store})):
            for name, array in supplied.items():
                assert not np.shares_memory(getattr(model, name), array), name
                assert array.flags.writeable and not getattr(model, name).flags.writeable, name

    def test_svm_train_keeps_the_matrix_it_stacks(self, monkeypatch):
        handed, fit = [], classify._svm_fit

        def spy(vectors, *rest):
            handed.append(vectors)
            return fit(vectors, *rest)

        monkeypatch.setattr(classify, "_svm_fit", spy)
        train = samples([([0.0, 1.0], "a"), ([1.0, 0.0], "b"), ([2.0, 2.0], "b")])
        model = svm_train(train)
        assert np.shares_memory(model.vectors, handed[0])
        assert not any(np.shares_memory(model.vectors, s.vector) for s in train)
        assert not any(getattr(model, name).flags.writeable for name in ("vectors", *STORE))

    def test_svm_fit_freezes_the_array_it_is_handed(self):
        vectors = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        model = _svm_fit(vectors, ["a", "b", "b"], 1, 1.0, 1.0, 1e-3)
        assert np.shares_memory(model.vectors, vectors) and not vectors.flags.writeable
        assert not any(getattr(model, name).flags.writeable for name in ("vectors", *STORE))

    @pytest.mark.parametrize("zscore", [False, True])
    def test_evaluate_trains_on_one_copy_of_the_training_rows(self, monkeypatch, zscore):
        fitted, fit = [], evaluation._svm_fit

        def spy(vectors, *rest):
            fitted.append((vectors, fit(vectors, *rest)))
            return fitted[-1][1]

        monkeypatch.setattr(evaluation, "_svm_fit", spy)
        rng = np.random.default_rng(19)
        vectors = rng.normal(size=(12, 3)) + np.repeat(np.eye(3), 4, axis=0)
        labels = [f"c{i // 4}" for i in range(12)]
        evaluate(vectors, labels, [0, 1, 4, 5, 8, 9], [2, 3, 6, 7, 10, 11], ClassifierConfig(kind="svm", zscore=zscore))
        (handed, model), = fitted
        assert np.shares_memory(model.vectors, handed) and not np.shares_memory(model.vectors, vectors)
        assert vectors.flags.writeable and not model.vectors.flags.writeable

    @pytest.mark.parametrize("kind", ["knn", "svm"])
    def test_load_model_keeps_the_arrays_it_decodes(self, tmp_path, kind):
        train = samples([([0.0, 1.0], "a"), ([1.0, 0.0], "b"), ([2.0, 2.0], "c")])
        path = tmp_path / "m.model"
        save_model(knn_model(train) if kind == "knn" else svm_train(train), path)
        loaded = load_model(path)
        for name in ("vectors",) if kind == "knn" else ("vectors", *STORE):
            array = getattr(loaded, name)
            assert isinstance(_memory_owner(array), bytes) and not array.flags.writeable, name


def _benchmark_sized(kind):
    """A model over 280 training rows of 441 features in 40 classes, as the benchmark's svm workload trains."""
    rng = np.random.default_rng(20)
    train = samples([(rng.normal(k % 40, 6.0, size=441), f"s{k % 40:02d}") for k in range(280)])
    return knn_model(train) if kind == "knn" else svm_train(train)


class TestModelSerialization:
    def test_knn_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        train = samples([(rng.normal(size=6), f"c{i % 4}") for i in range(20)])
        model = knn_model(train, neighbors_k=3, distance="euclidean")
        path = tmp_path / "knn.model"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, KnnModel)
        assert loaded.neighbors_k == 3 and loaded.distance == "euclidean"
        assert loaded.vectors.tobytes() == model.vectors.tobytes() and loaded.labels == model.labels
        for _ in range(20):
            q = rng.normal(size=6)
            assert knn_predict(loaded, q) == knn_predict(model, q)

    def test_svm_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        train = samples([(rng.normal(i % 3, 0.5, size=5), f"c{i % 3}") for i in range(24)])
        model = svm_train(train, degree=2, c=1.5, offset=0.5)
        path = tmp_path / "svm.model"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, SvmModel)
        assert loaded.classes == model.classes
        assert (loaded.degree, loaded.c, loaded.offset) == (2, 1.5, 0.5)
        assert np.array_equal(loaded.vectors.view(np.int64), model.vectors.view(np.int64))
        assert path.read_text().count("\nvectors\t") == 1
        assert_same_svm(model, loaded)
        for _ in range(20):
            q = rng.normal(size=5)
            assert svm_predict(loaded, q) == svm_predict(model, q)

    def test_refuses_former_solver_settings(self, tmp_path):
        model = svm_train(samples([([0.0, 1.0], "a"), ([1.0, 0.0], "b"), ([2.0, 2.0], "b")]))
        path = tmp_path / "svm.model"
        save_model(model, path)
        text = path.read_text()
        assert "max_passes" not in text and "\nseed " not in text
        path.write_text(text.replace("\ntol ", "\nmax_passes 100\nseed 7\ntol "))
        with pytest.raises(ValueError, match=re.escape(f"{path}: svm models have no setting 'max_passes'")):
            load_model(path)

    @pytest.mark.parametrize("label", ["a\tb", "a\nb", "a\r", "a\x85b"])
    def test_refuses_labels_that_would_not_load(self, tmp_path, label):
        pairs = [([0.0], label), ([1.0], "b")]
        knn = knn_model(samples(pairs))
        svm = svm_train(samples(pairs))
        for model in (knn, svm):
            path = tmp_path / "bad.model"
            with pytest.raises(ValueError, match="tab or line break"):
                save_model(model, path)
            assert not path.exists()

    def test_refuses_a_label_that_is_not_utf8(self, tmp_path):
        # a directory named b"s\xe9" reaches Python as "s\udce9", which no UTF-8 file can hold
        pairs = [([0.0], "s\udce9"), ([1.0], "b")]
        for model in (knn_model(samples(pairs)), svm_train(samples(pairs))):
            path = tmp_path / "bad.model"
            with pytest.raises(ValueError, match="is not UTF-8") as err:
                save_model(model, path)
            assert type(err.value) is ValueError
            assert not path.exists()

    def test_rejects_unknown_file(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_text("not a model\n")
        with pytest.raises(ValueError, match="not a recognized model"):
            load_model(path)

    def test_refuses_a_setting_named_twice(self, tmp_path):
        path = tmp_path / "knn.model"
        save_model(knn_model(samples([([0.0], "a"), ([1.0], "b")])), path)
        path.write_text(path.read_text().replace("\nneighbors_k 1\n", "\nneighbors_k 1\nneighbors_k 2\n"))
        with pytest.raises(ValueError, match="setting 'neighbors_k' is named twice"):
            load_model(path)

    def test_zero_sv_machine_survives(self, tmp_path):
        model = flat_svm(("a", "b"), np.zeros((1, 1)), [([], [], -0.75)])
        path = tmp_path / "deg.model"
        save_model(model, path)
        assert path.read_text().endswith("\nsv_coef\t\nsv_count\tAAAAAAAAAAA=\nsv_index\t\n")
        loaded = load_model(path)
        assert_same_svm(model, loaded)
        assert loaded.biases.tolist() == [-0.75] and loaded.sv_index.size == loaded.sv_coef.size == 0
        assert svm_predict(loaded, [5.0]) == "b"

    def test_svm_file_bytes(self, tmp_path):
        model = SvmModel(("a", "b", "c"), [[0.0, 1.0], [2.5, -3.0], [0.1, 1e-7]], [2, 0, 1], [0, 1, 2],
                         [0.5, -0.25, 1 / 3], [0.1, -2.0, 3.0], 2, 1.0, 0.5, 1e-3)
        path = tmp_path / "svm.model"
        save_model(model, path)
        # rows [0, 1], [2.5, -3] and [0.1, 1e-7] one after another, biases [0.1, -2, 3] and
        # coefficients [0.5, -0.25, 1/3] as base64 of little-endian float64; counts [2, 0, 1]
        # and indices [0, 1, 2] as base64 of little-endian int64
        assert path.read_bytes() == (
            b"nblgc-model 5\nkind svm\ndegree 2\nC 1\noffset 0.5\ntol 0.001\ndim 2\nclasses\ta\tb\tc\n"
            b"vectors\tAAAAAAAAAAAAAAAAAADwPwAAAAAAAARAAAAAAAAACMCamZmZmZm5P0ivvJry13o+\n"
            b"biases\tmpmZmZmZuT8AAAAAAAAAwAAAAAAAAAhA\nsv_coef\tAAAAAAAA4D8AAAAAAADQv1VVVVVVVdU/\n"
            b"sv_count\tAgAAAAAAAAAAAAAAAAAAAAEAAAAAAAAA\nsv_index\tAAAAAAAAAAABAAAAAAAAAAIAAAAAAAAA\n"
        )

    def test_knn_file_bytes(self, tmp_path):
        model = knn_model(samples([([0.0, 1.0], "a"), ([2.5, -3.0], "b"), ([0.1, 1e-7], "a b"),
                                        ([-0.0, 5e-324], "b")]), neighbors_k=2, distance="euclidean")
        path = tmp_path / "knn.model"
        save_model(model, path)
        # the fourth row, [-0, 5e-324], keeps the sign bit and the smallest subnormal
        assert path.read_bytes() == (
            b"nblgc-model 5\nkind knn\nneighbors_k 2\ndistance euclidean\ndim 2\nlabels\ta\tb\ta b\tb\n"
            b"vectors\tAAAAAAAAAAAAAAAAAADwPwAAAAAAAARAAAAAAAAACMCamZmZmZm5P0ivvJry13o+AAAAAAAAAIABAAAAAAAAAA==\n"
        )

    def test_save_holds_the_vectors_record_once(self, tmp_path):
        # the benchmark's 280 x 441 training set, encoded in pieces: the 1.3 MB record never exists whole
        model = KnnModel(np.random.default_rng(4).random((280, 441)), [f"c{i % 40}" for i in range(280)])
        path = tmp_path / "knn.model"
        tracemalloc.start()
        try:
            save_model(model, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        name, _, record = path.read_bytes().splitlines()[-1].partition(b"\t")
        assert name == b"vectors" and len(record) == 4 * 280 * 441 * 8 // 3
        assert peak < len(record) // 6

    @pytest.mark.parametrize("kind", ["knn", "svm"])
    def test_load_holds_the_file_and_its_arrays_once(self, tmp_path, kind):
        # records are decoded from slices of the file's bytes into the model's arrays, with no copy between
        path = tmp_path / "m.model"
        save_model(_benchmark_sized(kind), path)
        tracemalloc.start()
        try:
            loaded = load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = sum(getattr(loaded, name).nbytes for name in (("vectors",) if kind == "knn" else ("vectors", *STORE)))
        assert arrays >= 280 * 441 * 8
        assert peak < path.stat().st_size + 1.5 * arrays

    @pytest.mark.parametrize("kind", ["knn", "svm"])
    def test_a_long_file_is_refused_on_its_first_lines(self, tmp_path, kind):
        # a model file has at most 13 lines: the loader splits the first 16 of a longer one and never the rest
        pairs = [([0.0], "a"), ([1.0], "b")]
        path = tmp_path / "m.model"
        save_model(knn_model(samples(pairs)) if kind == "knn" else svm_train(samples(pairs)), path)
        saved = path.read_bytes()
        for data, message in ((saved + b"\n" * 100_000, "must end with the records"),
                              (saved.replace(b"\n", b"\nx 1" * 100_000 + b"\n", 1), "setting 'x' is named twice")):
            path.write_bytes(data)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=message):
                    load_model(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * path.stat().st_size

    @pytest.mark.parametrize("edit", ["crlf", "no final line end"])
    @pytest.mark.parametrize("kind", ["knn", "svm"])
    def test_line_ends_that_load_to_the_same_model(self, tmp_path, kind, edit):
        rng = np.random.default_rng(18)
        train = samples([(rng.normal(i % 3, 0.8, size=4), f"c {i % 3}") for i in range(18)])
        model = knn_model(train, neighbors_k=2, distance="euclidean") if kind == "knn" else svm_train(train, degree=2)
        path = tmp_path / "m.model"
        save_model(model, path)
        saved = path.read_bytes()
        path.write_bytes(saved.replace(b"\n", b"\r\n") if edit == "crlf" else saved[:-1])
        loaded = load_model(path)
        if kind == "knn":
            assert (loaded.labels, loaded.neighbors_k, loaded.distance) == (model.labels, 2, "euclidean")
            assert loaded.vectors.tobytes() == model.vectors.tobytes()
        else:
            assert (loaded.classes, loaded.degree, loaded.c, loaded.offset) == (model.classes, 2, 1.0, 1.0)
            assert_same_svm(model, loaded)
        save_model(loaded, path)
        assert path.read_bytes() == saved

    @pytest.mark.parametrize("separator", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_only_lf_and_crlf_end_a_line(self, tmp_path, separator):
        # str.splitlines ends a line at each of these; the loader reads the file's bytes and ends one only at "\n"
        path = tmp_path / "m.model"
        save_model(knn_model(samples([([0.0], "a"), ([1.0], "b")])), path)
        path.write_bytes(path.read_bytes().replace(b"kind knn\n", ("kind knn" + separator).encode("utf-8")))
        kind = "knn" + separator + "neighbors_k 1"
        with pytest.raises(ValueError, match=re.escape(f"unknown model kind {kind!r}")) as err:
            load_model(path)
        assert type(err.value) is ValueError

    def test_refuses_a_format_2_file(self, tmp_path):
        path = tmp_path / "old.model"
        path.write_text("nblgc-model 2\nkind knn\nneighbors_k 1\ndistance log\nsample\ta\t0\t1\n")
        with pytest.raises(ValueError, match="not a recognized model file") as err:
            load_model(path)
        assert type(err.value) is ValueError

    def test_refuses_a_format_3_file(self, tmp_path):
        path = tmp_path / "old.model"
        path.write_text("nblgc-model 3\nkind knn\nneighbors_k 1\ndistance log\nsample\ta\tAAAAAAAA8D8=\n")
        with pytest.raises(ValueError, match="not a recognized model file") as err:
            load_model(path)
        assert type(err.value) is ValueError

    def test_refuses_a_format_4_file(self, tmp_path):
        # format 4 wrote one vector record per training row, and no dim setting
        path = tmp_path / "old.model"
        path.write_text("nblgc-model 4\nkind knn\nneighbors_k 1\ndistance log\nlabels\ta\nvector\tAAAAAAAA8D8=\n")
        with pytest.raises(ValueError, match="not a recognized model file") as err:
            load_model(path)
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("kind", ["knn", "svm"])
    def test_bytes_that_are_not_utf8_are_a_value_error(self, tmp_path, kind):
        # a label stored as the byte 0xe9 alone: no UTF-8 text holds it
        pairs = [([0.0], "a"), ([1.0], "b")]
        path = tmp_path / "bad.model"
        save_model(knn_model(samples(pairs)) if kind == "knn" else svm_train(samples(pairs)), path)
        path.write_bytes(path.read_bytes().replace(b"\tb\n", b"\t\xe9\n", 1))
        with pytest.raises(ValueError, match="bad.model is not UTF-8 text") as err:
            load_model(path)
        assert type(err.value) is ValueError


# 17-digit ties: each value's exact decimal expansion has 18 significant digits, the last a 5
_TIES = [m / 4 for m in (5_000_000_000_000_001, 5_000_000_000_000_003, 7_777_777_777_777_779, 9_007_199_254_740_991)]
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 2.0**53 + 2.0, 1e16, 1e17,
                123456789012345680.0, 0.1, 1 / 3, 0.1 + 0.2, *_TIES, *(-t for t in _TIES)]


class TestModelNumbers:
    """Arrays travel as their 8-byte bits; settings as %.17g, read back with float()."""

    def test_writer_matches_str_format_on_edge_values(self, tmp_path):
        assert all(Decimal(t).as_tuple().digits[17:] == (5,) for t in _TIES)
        n = len(_EDGE_VALUES)
        knn = KnnModel([_EDGE_VALUES], ["a"])
        svm = SvmModel(("a", "b"), [_EDGE_VALUES], [n], [0] * n, _EDGE_VALUES, [-0.0], 1, 1.0, -0.0, 5e-324)
        bits = np.array([_EDGE_VALUES]).view(np.int64)
        path = tmp_path / "edge.model"
        save_model(knn, path)
        assert path.read_text().splitlines()[-3:] == [f"dim {n}", "labels\ta", f"vectors\t{b64(_EDGE_VALUES)}"]
        assert np.array_equal(load_model(path).vectors.view(np.int64), bits)
        for value in (svm.offset, svm.tol, *_EDGE_VALUES):  # every setting is written as str.format writes it
            save_model(replace(svm, offset=value), path)
            assert path.read_text().splitlines()[4] == "offset {:.17g}".format(value)
        save_model(svm, path)
        lines = path.read_text().splitlines()
        assert lines[4:6] == ["offset -0", "tol 4.9406564584124654e-324"]
        assert lines[8:] == [f"vectors\t{b64(_EDGE_VALUES)}", f"biases\t{b64([-0.0])}", f"sv_coef\t{b64(_EDGE_VALUES)}",
                             f"sv_count\t{b64([n], '<i8')}", f"sv_index\t{b64([0] * n, '<i8')}"]
        loaded = load_model(path)
        assert_same_svm(svm, loaded)
        assert np.array_equal(loaded.vectors.view(np.int64), bits)
        assert np.array_equal(loaded.sv_coef.view(np.int64), bits[0])
        assert math.copysign(1.0, loaded.biases[0]) == math.copysign(1.0, loaded.offset) == -1.0
        assert loaded.tol == 5e-324

    @pytest.mark.parametrize("kind", ["knn", "svm"])
    def test_reader_is_bit_equal_to_float(self, tmp_path, kind):
        strings = ["{:.17g}".format(v) for v in _EDGE_VALUES] + [
            "-0", "0", "1e308", "5e-324", "4.9e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
            "2.2250738585072011e-308", "1.7976931348623158e308", "9007199254740993", "0.30000000000000004",
            "1250000000000000.25", "+1.5", "1E5", "123456789012345678901234567890", ".5", "5."]
        values = [float(v) for v in strings]
        n = len(values)
        body = (f"kind knn\nneighbors_k 1\ndistance log\ndim {n}\nlabels\ta\nvectors\t{b64(values)}\n" if kind == "knn" else
                f"kind svm\ndegree 1\nC 1\noffset {{}}\ntol 0.001\ndim {n}\nclasses\ta\tb\nvectors\t{b64(values)}\n"
                f"biases\t{b64([0.0])}\nsv_coef\t{b64(values)}\nsv_count\t{b64([n], '<i8')}\n"
                f"sv_index\t{b64([0] * n, '<i8')}\n")
        path = tmp_path / "hand.model"
        bits = np.array([values]).view(np.int64)
        # the row travels as bits; on svm, so do the coefficients, and the offset setting
        # takes each string in turn, read back with float()
        for string, value in zip(strings, values):
            path.write_text("nblgc-model 5\n" + body.format(string))
            loaded = load_model(path)
            assert np.array_equal(loaded.vectors.view(np.int64), bits)
            if kind == "svm":
                assert np.array_equal(loaded.sv_coef[None].view(np.int64), bits)
                assert loaded.offset == value and math.copysign(1.0, loaded.offset) == math.copysign(1.0, value)

    @pytest.mark.parametrize("kind", ["knn", "svm"])
    def test_save_load_save_is_byte_stable_at_benchmark_size(self, tmp_path, kind):
        rng = np.random.default_rng(17)
        scale = 10.0 ** rng.integers(-30, 30, size=(280, 441))  # every row spans many magnitudes
        train = samples([(rng.normal(size=441) * scale[i], f"s{i % 40:02d}") for i in range(280)])
        model = knn_model(train) if kind == "knn" else svm_train(train)
        first, second = tmp_path / "first.model", tmp_path / "second.model"
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        if kind == "knn":
            assert loaded.vectors.tobytes() == model.vectors.tobytes() and loaded.labels == model.labels
        else:
            assert_same_svm(model, loaded)
        # 280 x 441 float64 values are 987,840 bytes, 1,317,120 base64 characters with no padding
        records = [line for line in first.read_text().splitlines() if line.startswith("vectors\t")]
        assert [len(record) for record in records] == [len("vectors\t") + 1_317_120]


def _svm_model_lines(tmp_path):
    rng = np.random.default_rng(14)
    train = samples([(rng.normal(i % 3, 0.8, size=3), f"c{i % 3}") for i in range(18)])
    path = tmp_path / "svm.model"
    save_model(svm_train(train), path)
    assert isinstance(load_model(path), SvmModel)
    return path.read_text().splitlines()


def _edit(lines, tag, field, value):
    """Set parts[field] of the first record tagged tag to value(parts[field])."""
    at = next(i for i, line in enumerate(lines) if line.startswith(tag + "\t"))
    parts = lines[at].split("\t")
    parts[field] = value(parts[field])
    return lines[:at] + ["\t".join(parts)] + lines[at + 1 :]


def _row(text, dtype="<f8"):
    """The values of a base64 array."""
    return np.frombuffer(base64.b64decode(text), dtype=dtype)


def _store(name, change):
    """An edit that sets the store record name to change(its values), written as save_model writes it."""
    return lambda lines: _edit(lines, name, 1, lambda text: b64(change(_row(text, STORE[name])), STORE[name]))


def _swap(first, second):
    """An edit that swaps the records tagged first and second."""
    def edit(lines):
        i, j = (next(k for k, line in enumerate(lines) if line.startswith(tag + "\t")) for tag in (first, second))
        lines = list(lines)
        lines[i], lines[j] = lines[j], lines[i]
        return lines
    return edit


def _one_class(lines):
    """One class and an empty store: no machines at all."""
    return ["classes\tc0" if line.startswith("classes\t") else
            line.split("\t")[0] + "\t" if line.startswith(tuple(STORE)) else line for line in lines]


def _setting(name, *values):
    """An edit that puts one 'name value' line per value where the setting's line was."""
    def edit(lines):
        at = lines.index(next(line for line in lines if line.startswith(name + " ")))
        return lines[:at] + [f"{name} {value}" for value in values] + lines[at + 1 :]
    return edit


def _after_kind(*settings):
    """An edit that puts the given setting lines right after the kind line."""
    def edit(lines):
        at = lines.index(next(line for line in lines if line.startswith("kind "))) + 1
        return lines[:at] + list(settings) + lines[at:]
    return edit


_STORE_ORDER = "must end with the records classes, vectors, biases, sv_coef, sv_count, sv_index, each array one field"
_NOT_BASE64 = "vectors record is not base64"
_CORRUPTIONS = {  # name: (edit of the saved lines, expected message)
    "missing header field": (lambda ls: [line for line in ls if not line.startswith("tol ")], "missing setting 'tol'"),
    "sv index past vectors": (_store("sv_index", lambda a: np.r_[18, a[1:]]), "index outside vectors"),
    "negative sv index": (_store("sv_index", lambda a: np.r_[-1, a[1:]]), "index outside vectors"),
    "bad coefficient": (lambda ls: _edit(ls, "sv_coef", 1, lambda v: "!" + v[1:]), "sv_coef record is not base64"),
    "coefficients of 12 bytes": (lambda ls: _edit(ls, "sv_coef", 1, lambda v: v[:16]),
                                 "sv_coef record holds 12 bytes, not whole 8-byte values"),
    "nan coefficient": (_store("sv_coef", lambda a: np.r_[np.nan, a[1:]]), "coefficients and bias must be finite"),
    "inf bias": (_store("biases", lambda a: np.r_[np.inf, a[1:]]), "coefficients and bias must be finite"),
    "count above records": (_store("sv_count", lambda a: np.r_[a[0] + 1, a[1:]]), "sv_count needs"),
    "count below records": (_store("sv_count", lambda a: np.r_[a[0] - 1, a[1:]]), "sv_count needs"),
    "too few biases": (_store("biases", lambda a: a[:-1]), "2 machines for 3 classes"),
    "too many biases": (_store("biases", lambda a: np.r_[a, 0.0]), "4 machines for 3 classes"),
    "store record missing": (lambda ls: [line for line in ls if not line.startswith("sv_index\t")], _STORE_ORDER),
    "store records reordered": (_swap("sv_count", "sv_index"), _STORE_ORDER),
    "store record with an extra field": (lambda ls: _edit(ls, "biases", 1, lambda v: v + "\t" + v), _STORE_ORDER),
    "record after the store": (lambda ls: ls + [next(line for line in ls if line.startswith("vectors\t"))],
                               _STORE_ORDER),
    "vectors record missing": (lambda ls: [line for line in ls if not line.startswith("vectors\t")], _STORE_ORDER),
    # 18 rows of 3 float64 values: 54 values, 432 bytes, 576 base64 characters with no padding
    "short vector": (lambda ls: _edit(ls, "vectors", 1, lambda v: b64(_row(v)[:-1])),
                     "vectors record holds 53 values, not whole rows of dim 3"),
    "vector with an extra field": (lambda ls: _edit(ls, "vectors", 1, lambda v: v + "\t" + v), _STORE_ORDER),
    "non-numeric vector value": (lambda ls: _edit(ls, "vectors", 1, lambda v: "x"), _NOT_BASE64),
    # base64url's underscore, whitespace and misplaced padding are each outside strict RFC 4648 base64
    "underscore in a vector value": (lambda ls: _edit(ls, "vectors", 1, lambda v: "_" + v[1:]), _NOT_BASE64),
    "space in a vector value": (lambda ls: _edit(ls, "vectors", 1, lambda v: v[:16] + " " + v[16:]), _NOT_BASE64),
    "padding inside a vector value": (lambda ls: _edit(ls, "vectors", 1, lambda v: v[:6] + "==" + v[8:]), _NOT_BASE64),
    "non-ASCII digits in a vector value": (lambda ls: _edit(ls, "vectors", 1, lambda v: "\u0967" + v[1:]), _NOT_BASE64),
    "vector of 12 bytes": (lambda ls: _edit(ls, "vectors", 1, lambda v: v[:16]),
                           "vectors record holds 12 bytes, not whole 8-byte values"),
    "vectors without values": (lambda ls: _edit(ls, "vectors", 1, lambda v: ""), "vectors must be a finite, non-empty"),
    "nan in a vector": (lambda ls: _edit(ls, "vectors", 1, lambda v: b64(np.r_[np.nan, _row(v)[1:]])),
                        "vectors must be a finite"),
    "inf in a vector": (lambda ls: _edit(ls, "vectors", 1, lambda v: b64(np.r_[_row(v)[:-1], -np.inf])),
                        "vectors must be a finite"),
    "dim 0": (_setting("dim", 0), "not whole rows of dim 0 >= 1"),
    "dim -3": (_setting("dim", -3), "not whole rows of dim -3 >= 1"),
    "dim not dividing the vectors": (_setting("dim", 4), "vectors record holds 54 values, not whole rows of dim 4"),
    "dim that is not a number": (_setting("dim", "3.0"), "invalid literal"),
    "no dim": (lambda ls: [line for line in ls if not line.startswith("dim ")], "missing setting 'dim'"),
    "no classes record": (lambda ls: [line for line in ls if not line.startswith("classes\t")], _STORE_ORDER),
    "one class, no machines": (_one_class, "at least two classes"),
    "class label twice": (lambda ls: _edit(ls, "classes", 2, lambda v: "c0"), "class labels must be distinct"),
    "degree 0": (_setting("degree", 0), "degree must be 1 or 2"),
    "degree 3": (_setting("degree", 3), "degree must be 1 or 2"),
    "C -1": (_setting("C", -1), "C must be positive"),
    "C nan": (_setting("C", "nan"), "C must be positive"),
    "offset inf": (_setting("offset", "inf"), "offset must be finite"),
    "tol nan": (_setting("tol", "nan"), "tol must be"),
    "setting named twice": (_setting("degree", 1, 2), "setting 'degree' is named twice"),
    "unknown setting": (_after_kind("color blue"), "svm models have no setting 'color'"),
    "knn setting": (_after_kind("neighbors_k 1"), "svm models have no setting 'neighbors_k'"),
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_malformed_svm_model_is_a_value_error(tmp_path, corruption):
    edit, message = _CORRUPTIONS[corruption]
    path = tmp_path / "bad.model"
    path.write_text("\n".join(edit(_svm_model_lines(tmp_path))) + "\n")
    with pytest.raises(ValueError, match=message) as err:
        load_model(path)
    assert type(err.value) is ValueError


_ROWS = "vectors must be a finite 2-D array with one row per label"
_KNN_ORDER = "knn model must end with the records labels, vectors, each array one field"
_KNN_CORRUPTIONS = {  # name: (edit of a saved file's lines: two labels, two rows of dim 2)
    "label without a vector": (lambda ls: ls[:-1] + ["vectors\t" + b64([0.0, 1.0])], _ROWS + " (2)"),
    "vector without a label": (lambda ls: ["labels\ta" if line.startswith("labels\t") else line for line in ls],
                               _ROWS + " (1)"),
    "no labels record": (lambda ls: [line for line in ls if not line.startswith("labels\t")], _KNN_ORDER),
    "short vector": (lambda ls: ls[:-1] + ["vectors\t" + b64([0.0, 1.0, 2.0])],
                     "vectors record holds 3 values, not whole rows of dim 2"),
    "vector with an extra field": (lambda ls: ls[:-1] + [ls[-1] + "\tx"], _KNN_ORDER),
    "vector without values": (lambda ls: ls[:-1] + ["vectors\t"], _ROWS + " (2)"),
    "nan in a vector": (lambda ls: ls[:-1] + ["vectors\t" + b64([0.0, 1.0, 2.0, np.nan])], _ROWS),
    "store record in a knn model": (lambda ls: ls + ["biases\t" + b64([0.0])], _KNN_ORDER),
    "missing setting": (lambda ls: [line for line in ls if not line.startswith("neighbors_k ")],
                        "missing setting 'neighbors_k'"),
    "no dim": (lambda ls: [line for line in ls if not line.startswith("dim ")], "missing setting 'dim'"),
    "dim 0": (_setting("dim", 0), "not whole rows of dim 0 >= 1"),
    "unknown setting": (_after_kind("color blue", "degree 2"), "knn models have no setting 'color'"),
    "svm setting": (_after_kind("degree 2"), "knn models have no setting 'degree'"),
}


@pytest.mark.parametrize("corruption", sorted(_KNN_CORRUPTIONS))
def test_malformed_knn_model_is_a_value_error(tmp_path, corruption):
    edit, message = _KNN_CORRUPTIONS[corruption]
    path = tmp_path / "bad.model"
    save_model(KnnModel(np.array([[0.0, 1.0], [2.0, 3.0]]), ["a", "b"]), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        load_model(path)
    assert type(err.value) is ValueError


_VALUES = st.floats(-3.0, 3.0, allow_nan=False, width=64)


@st.composite
def problems(draw):
    """A small labeled training set, and queries of the same length."""
    dim = draw(st.integers(1, 4))
    vec = st.lists(_VALUES, min_size=dim, max_size=dim)
    n_classes, per_class = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    train = samples([(draw(vec), f"c{k}") for k in range(n_classes) for _ in range(per_class)])
    return train, draw(st.lists(vec, min_size=1, max_size=5))


class TestModelRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(problem=problems(), degree=st.sampled_from([1, 2]), emptied=st.sets(st.integers(0, 5)))
    def test_svm_predicts_the_same_after_loading(self, tmp_path_factory, problem, degree, emptied):
        train, queries = problem
        model = svm_train(train, degree=degree)
        # machines listed in emptied keep their bias and lose every support vector
        keep = ~np.isin(model.sv_owner, list(emptied))
        model = replace(model, sv_count=np.bincount(model.sv_owner[keep], minlength=len(model.biases)),
                        sv_index=model.sv_index[keep], sv_coef=model.sv_coef[keep])
        path = tmp_path_factory.mktemp("svm") / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert [svm_predict(loaded, q) for q in queries] == [svm_predict(model, q) for q in queries]

    @settings(max_examples=60, deadline=None)
    @given(problem=problems(), k=st.integers(1, 8), distance=st.sampled_from(["log", "euclidean"]))
    def test_knn_predicts_the_same_after_loading(self, tmp_path_factory, problem, k, distance):
        train, queries = problem
        model = knn_model(train, min(k, len(train)), distance)
        path = tmp_path_factory.mktemp("knn") / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert [knn_predict(loaded, q) for q in queries] == [knn_predict(model, q) for q in queries]
