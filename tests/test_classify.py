import importlib.util
import math
from dataclasses import replace
from decimal import Decimal
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nblgc import (
    KnnModel,
    LabeledSample,
    SvmModel,
    check_svm_settings,
    distance_rows,
    knn_predict,
    load_model,
    save_model,
    svm_predict,
    svm_train,
)
from nblgc.classify import _decision_values, _kernel, _smo_lockstep
from oracles import _smo_pair


def samples(pairs):
    return [LabeledSample(np.asarray(v, dtype=float), lab) for v, lab in pairs]


def flat_svm(classes, vectors, machines, degree=1, offset=1.0):
    """An SvmModel from one (indices, coefficients, bias) per machine, in pair order."""
    return SvmModel(classes, vectors, [len(idx) for idx, _, _ in machines],
                    [i for idx, _, _ in machines for i in idx], [c for _, coef, _ in machines for c in coef],
                    [bias for _, _, bias in machines], degree, 1.0, offset, 1e-3)


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
        assert knn_predict(KnnModel(tuple(train)), query)[0] == "one"
        assert knn_predict(KnnModel(tuple(scaled)), query)[0] == "two"


class TestKnn:
    def test_nearest_neighbor_default(self):
        train = samples([([0.0], "a"), ([10.0], "b")])
        label, dists = knn_predict(KnnModel(tuple(train)), [1.0])
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
        model = KnnModel(tuple(samples([(rows[0], "a"), (rows[1], "b")])), distance=distance)
        with pytest.raises(ValueError, match=f"{distance} distance overflows"):
            knn_predict(model, query)

    def test_rejects_non_finite_query(self):
        model = KnnModel(tuple(samples([([0.0], "a"), ([10.0], "b")])))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                knn_predict(model, [bad])

    def test_samples_must_be_finite(self):
        for bad in (np.nan, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                LabeledSample(np.array([0.0, bad]), "a")

    def test_exact_match_wins(self):
        rng = np.random.default_rng(23)
        train = samples([(rng.normal(size=5), f"c{i}") for i in range(10)])
        model = KnnModel(tuple(train))
        for s in train:
            assert knn_predict(model, s.vector)[0] == s.label

    def test_majority_vote(self):
        train = samples([([0.0], "a"), ([0.2], "b"), ([0.3], "b"), ([9.0], "a")])
        label, dists = knn_predict(KnnModel(tuple(train), neighbors_k=3), [0.1])
        assert label == "b"
        assert dists == sorted(dists)

    def test_vote_tie_smallest_summed_distance(self):
        # two votes each; b's neighbors sit closer in total
        def at(d):  # place a 1-D point whose log distance to 0 is exactly d
            return [math.exp(d) - 1.0]

        train = samples([(at(0.1), "a"), (at(0.9), "a"), (at(0.3), "b"), (at(0.5), "b")])
        label, _ = knn_predict(KnnModel(tuple(train), neighbors_k=4), [0.0])
        assert label == "b"

    def test_vote_tie_then_class_order(self):
        train = samples([([1.0], "z"), ([-1.0], "a")])
        label, _ = knn_predict(KnnModel(tuple(train), neighbors_k=2), [0.0])
        assert label == "a"

    def test_model_validation(self):
        train = samples([([1.0], "a")])
        with pytest.raises(ValueError, match="neighbors_k"):
            KnnModel(tuple(train), neighbors_k=2)
        with pytest.raises(ValueError, match="non-empty"):
            KnnModel(())
        with pytest.raises(ValueError, match="unknown distance"):
            KnnModel(tuple(train), distance="cosine")
        with pytest.raises(ValueError, match="share one dimension"):
            KnnModel(tuple(samples([([1.0], "a"), ([1.0, 2.0], "b")])))

    def test_query_dimension_checked(self):
        model = KnnModel(tuple(samples([([1.0, 2.0], "a"), ([0.0, 0.0], "b")])))
        with pytest.raises(ValueError, match="length mismatch"):
            knn_predict(model, [1.0])

    def test_euclidean_option(self):
        train = samples([([0.0, 0.0], "near"), ([10.0, 10.0], "far")])
        model = KnnModel(tuple(train), distance="euclidean")
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

    def test_benchmark_span_counters_read_a_trained_model(self):
        # the traced benchmark counts a trained model's support vectors
        # through perfbench/spans.py, so a model it cannot read fails here
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("nblgc_bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        rng = np.random.default_rng(17)
        model = svm_train(samples([(rng.normal(i % 3, 0.8, size=3), f"c{i % 3}") for i in range(18)]))
        assert spans._svm_counts(None, None, model) == {
            "machines": 3,
            "sv_rows": model.sv_index.size,
            "sv_distinct": len(np.unique(model.sv_index)),
        }

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


class TestModelSerialization:
    def test_knn_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        train = samples([(rng.normal(size=6), f"c{i % 4}") for i in range(20)])
        model = KnnModel(tuple(train), neighbors_k=3, distance="euclidean")
        path = tmp_path / "knn.model"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, KnnModel)
        assert loaded.neighbors_k == 3 and loaded.distance == "euclidean"
        for s, l in zip(model.training, loaded.training):
            assert np.array_equal(s.vector, l.vector) and s.label == l.label
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
        assert np.array_equal(loaded.vectors, model.vectors)
        assert path.read_text().count("\nvector\t") == len(train)
        for ma, mb in zip(model.machines, loaded.machines):
            assert np.array_equal(ma.coefficients, mb.coefficients)
            assert np.array_equal(ma.indices, mb.indices)
            assert ma.bias == mb.bias
        for _ in range(20):
            q = rng.normal(size=5)
            assert svm_predict(loaded, q) == svm_predict(model, q)

    def test_ignores_former_solver_settings(self, tmp_path):
        model = svm_train(samples([([0.0, 1.0], "a"), ([1.0, 0.0], "b"), ([2.0, 2.0], "b")]))
        path = tmp_path / "svm.model"
        save_model(model, path)
        text = path.read_text()
        assert "max_passes" not in text and "\nseed " not in text
        path.write_text(text.replace("\ntol ", "\nmax_passes 100\nseed 7\ntol "))
        loaded = load_model(path)
        assert (loaded.degree, loaded.c, loaded.offset, loaded.tol) == (model.degree, model.c, model.offset, model.tol)
        assert svm_predict(loaded, [0.5, 0.5]) == svm_predict(model, [0.5, 0.5])

    @pytest.mark.parametrize("label", ["a\tb", "a\nb", "a\r", "a\x85b"])
    def test_refuses_labels_that_would_not_load(self, tmp_path, label):
        pairs = [([0.0], label), ([1.0], "b")]
        knn = KnnModel(tuple(samples(pairs)))
        svm = svm_train(samples(pairs))
        for model in (knn, svm):
            path = tmp_path / "bad.model"
            with pytest.raises(ValueError, match="tab or line break"):
                save_model(model, path)
            assert not path.exists()

    def test_rejects_unknown_file(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_text("not a model\n")
        with pytest.raises(ValueError, match="not a recognized model"):
            load_model(path)

    def test_refuses_a_setting_named_twice(self, tmp_path):
        path = tmp_path / "knn.model"
        save_model(KnnModel(tuple(samples([([0.0], "a"), ([1.0], "b")]))), path)
        path.write_text(path.read_text().replace("\nneighbors_k 1\n", "\nneighbors_k 1\nneighbors_k 2\n"))
        with pytest.raises(ValueError, match="setting 'neighbors_k' is named twice"):
            load_model(path)

    def test_zero_sv_machine_survives(self, tmp_path):
        model = flat_svm(("a", "b"), np.zeros((1, 1)), [([], [], -0.75)])
        path = tmp_path / "deg.model"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.machines[0].bias == -0.75
        assert svm_predict(loaded, [5.0]) == "b"

    def test_svm_file_bytes(self, tmp_path):
        model = SvmModel(("a", "b", "c"), [[0.0, 1.0], [2.5, -3.0], [0.1, 1e-7]], [2, 0, 1], [0, 1, 2],
                         [0.5, -0.25, 1 / 3], [0.1, -2.0, 3.0], 2, 1.0, 0.5, 1e-3)
        path = tmp_path / "svm.model"
        save_model(model, path)
        assert path.read_bytes() == (
            b"nblgc-model 2\nkind svm\ndegree 2\nC 1\noffset 0.5\ntol 0.001\nclasses\ta\tb\tc\n"
            b"vector\t0\t1\nvector\t2.5\t-3\nvector\t0.10000000000000001\t9.9999999999999995e-08\n"
            b"machine\ta\tb\t0.10000000000000001\t2\nsv\t0\t0.5\nsv\t1\t-0.25\n"
            b"machine\ta\tc\t-2\t0\n"
            b"machine\tb\tc\t3\t1\nsv\t2\t0.33333333333333331\n"
        )

    def test_knn_file_bytes(self, tmp_path):
        model = KnnModel(tuple(samples([([0.0, 1.0], "a"), ([2.5, -3.0], "b"), ([0.1, 1e-7], "a b"),
                                        ([-0.0, 5e-324], "b")])), neighbors_k=2, distance="euclidean")
        path = tmp_path / "knn.model"
        save_model(model, path)
        assert path.read_bytes() == (
            b"nblgc-model 2\nkind knn\nneighbors_k 2\ndistance euclidean\n"
            b"sample\ta\t0\t1\nsample\tb\t2.5\t-3\nsample\ta b\t0.10000000000000001\t9.9999999999999995e-08\n"
            b"sample\tb\t-0\t4.9406564584124654e-324\n"
        )


# 17-digit ties: each value's exact decimal expansion has 18 significant digits, the last a 5
_TIES = [m / 4 for m in (5_000_000_000_000_001, 5_000_000_000_000_003, 7_777_777_777_777_779, 9_007_199_254_740_991)]
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 2.0**53 + 2.0, 1e16, 1e17,
                123456789012345680.0, 0.1, 1 / 3, 0.1 + 0.2, *_TIES, *(-t for t in _TIES)]


class TestModelNumbers:
    """The writer's %-format and the reader's np.loadtxt against str.format and float()."""

    def test_writer_matches_str_format_on_edge_values(self, tmp_path):
        assert all(Decimal(t).as_tuple().digits[17:] == (5,) for t in _TIES)
        text = ["{:.17g}".format(v) for v in _EDGE_VALUES]
        n = len(text)
        knn = KnnModel((LabeledSample(_EDGE_VALUES, "a"),))
        svm = SvmModel(("a", "b"), [_EDGE_VALUES], [n], [0] * n, _EDGE_VALUES, [-0.0], 1, 1.0, -0.0, 5e-324)
        path = tmp_path / "edge.model"
        save_model(knn, path)
        assert path.read_text().splitlines()[-1] == "\t".join(["sample", "a", *text])
        save_model(svm, path)
        lines = path.read_text().splitlines()
        assert lines[4:6] == ["offset -0", "tol 4.9406564584124654e-324"]
        assert lines[7:9] == ["\t".join(["vector", *text]), f"machine\ta\tb\t-0\t{n}"]
        assert lines[9:] == [f"sv\t0\t{value}" for value in text]

    @pytest.mark.parametrize("kind", ["knn", "svm"])
    def test_reader_is_bit_equal_to_float(self, tmp_path, kind):
        strings = ["{:.17g}".format(v) for v in _EDGE_VALUES] + [
            "-0", "0", "1e308", "5e-324", "4.9e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
            "2.2250738585072011e-308", "1.7976931348623158e308", "9007199254740993", "0.30000000000000004",
            "1250000000000000.25", "+1.5", "1E5", "123456789012345678901234567890", ".5", "5."]
        values = "\t".join(strings)
        body = (f"kind knn\nneighbors_k 1\ndistance log\nsample\ta\t{values}\n" if kind == "knn" else
                f"kind svm\ndegree 1\nC 1\noffset 1\ntol 0.001\nclasses\ta\tb\nvector\t{values}\n"
                "machine\ta\tb\t0\t0\n")
        path = tmp_path / "hand.model"
        path.write_text("nblgc-model 2\n" + body)
        loaded = load_model(path)
        stored = loaded.matrix if kind == "knn" else loaded.vectors
        assert np.array_equal(stored.view(np.int64), np.array([[float(s) for s in strings]]).view(np.int64))

    @pytest.mark.parametrize("kind", ["knn", "svm"])
    def test_save_load_save_is_byte_stable_at_benchmark_size(self, tmp_path, kind):
        rng = np.random.default_rng(17)
        scale = 10.0 ** rng.integers(-30, 30, size=(280, 441))  # every row spans many magnitudes
        train = samples([(rng.normal(size=441) * scale[i], f"s{i % 40:02d}") for i in range(280)])
        model = KnnModel(tuple(train)) if kind == "knn" else svm_train(train)
        first, second = tmp_path / "first.model", tmp_path / "second.model"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()


def _svm_model_lines(tmp_path):
    rng = np.random.default_rng(14)
    train = samples([(rng.normal(i % 3, 0.8, size=3), f"c{i % 3}") for i in range(18)])
    path = tmp_path / "svm.model"
    save_model(svm_train(train), path)
    assert isinstance(load_model(path), SvmModel)
    return path.read_text().splitlines()


def _edit(lines, tag, field, value):
    """Set parts[field] of the first record tagged tag to value(parts[field]),
    dropping it when that is None. Tag 'owner' picks the machine record that
    owns the first support vector."""
    first_sv = next(i for i, line in enumerate(lines) if line.startswith("sv\t"))
    if tag == "owner":
        at = max(i for i in range(first_sv) if lines[i].startswith("machine\t"))
    else:
        at = next(i for i, line in enumerate(lines) if line.startswith(tag + "\t"))
    parts = lines[at].split("\t")
    parts[field] = value(parts[field])
    parts = [part for part in parts if part is not None]
    return lines[:at] + ["\t".join(parts)] + lines[at + 1 :]


def _swap_first_machines(lines):
    """The first two machine records, each with its sv records, in swapped order."""
    first, second, third = [i for i, line in enumerate(lines) if line.startswith("machine\t")][:3]
    return lines[:first] + lines[second:third] + lines[first:second] + lines[third:]


def _setting(name, *values):
    """An edit that puts one 'name value' line per value where the setting's line was."""
    def edit(lines):
        at = lines.index(next(line for line in lines if line.startswith(name + " ")))
        return lines[:at] + [f"{name} {value}" for value in values] + lines[at + 1 :]
    return edit


_CORRUPTIONS = {  # name: (edit of the saved lines, expected message)
    "missing header field": (lambda ls: [line for line in ls if not line.startswith("tol ")],
                             "missing field or value 'tol'"),
    "sv index past vectors": (lambda ls: _edit(ls, "sv", 1, lambda v: "18"), "index outside vectors"),
    "negative sv index": (lambda ls: _edit(ls, "sv", 1, lambda v: "-1"), "index outside vectors"),
    "bad coefficient": (lambda ls: _edit(ls, "sv", 2, lambda v: "x"), "could not convert"),
    "count above records": (lambda ls: _edit(ls, "owner", 4, lambda v: str(int(v) + 1)), "not followed by"),
    "count below records": (lambda ls: _edit(ls, "owner", 4, lambda v: str(int(v) - 1)), "unexpected record 'sv'"),
    "short vector": (lambda ls: _edit(ls, "vector", -1, lambda v: None), "differ in length"),
    "vector with an extra field": (lambda ls: _edit(ls, "vector", -1, lambda v: v + "\t1"), "differ in length"),
    "non-numeric vector value": (lambda ls: _edit(ls, "vector", 1, lambda v: "x"), "could not convert"),
    # float() takes the next two; np.loadtxt, and so load_model, reads plain ASCII decimal only
    "underscore in a vector value": (lambda ls: _edit(ls, "vector", 1, lambda v: "1_0"), "could not convert"),
    "non-ASCII digits in a vector value": (lambda ls: _edit(ls, "vector", 1, lambda v: "\u0967\u0968"),
                                           "could not convert"),
    "vectors without values": (lambda ls: ["vector\t" if line.startswith("vector\t") else line for line in ls],
                               "could not convert"),
    "label not in classes": (lambda ls: _edit(ls, "machine", 1, lambda v: "c9"), "machine 0 is c9/c1, not the class pair"),
    "cut at a machine boundary": (
        lambda ls: ls[: max(i for i, line in enumerate(ls) if line.startswith("machine\t"))],
        "2 machines for 3 classes"),
    "no classes record": (lambda ls: [line for line in ls if not line.startswith("classes\t")], "no classes record"),
    "one class, no machines": (
        lambda ls: [line if not line.startswith("classes\t") else "classes\tc0"
                    for line in ls if not line.startswith(("machine\t", "sv\t"))],
        "at least two classes"),
    "class label twice": (lambda ls: _edit(ls, "classes", 2, lambda v: "c0"), "class labels must be distinct"),
    "machine label twice": (lambda ls: _edit(ls, "machine", 2, lambda v: "c0"), "machine 0 is c0/c0, not the class pair"),
    "class pair twice": (lambda ls: _edit(ls, "machine", 2, lambda v: "c2"), "machine 0 is c0/c2, not the class pair"),
    "machines swapped": (_swap_first_machines, "machine 0 is c0/c2, not the class pair c0/c1"),
    "labels flipped": (lambda ls: _edit(_edit(ls, "machine", 1, lambda v: "c1"), "machine", 2, lambda v: "c0"),
                       "machine 0 is c1/c0, not the class pair c0/c1"),
    "degree 0": (_setting("degree", 0), "degree must be 1 or 2"),
    "degree 3": (_setting("degree", 3), "degree must be 1 or 2"),
    "C -1": (_setting("C", -1), "C must be positive"),
    "C nan": (_setting("C", "nan"), "C must be positive"),
    "offset inf": (_setting("offset", "inf"), "offset must be finite"),
    "tol nan": (_setting("tol", "nan"), "tol must be"),
    "setting named twice": (_setting("degree", 1, 2), "setting 'degree' is named twice"),
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_malformed_svm_model_is_a_value_error(tmp_path, corruption):
    edit, message = _CORRUPTIONS[corruption]
    path = tmp_path / "bad.model"
    path.write_text("\n".join(edit(_svm_model_lines(tmp_path))) + "\n")
    with pytest.raises(ValueError, match=message) as err:
        load_model(path)
    assert type(err.value) is ValueError


@pytest.mark.parametrize("record, message", [
    ("sample\tb\t1", "training vectors must share one dimension"),
    ("sample\tb\t1\tx", "could not convert"),
    ("sample\tb", "missing field or value"),
    ("vector\t1\t2", "unexpected record 'vector' in knn model"),
])
def test_malformed_knn_model_is_a_value_error(tmp_path, record, message):
    path = tmp_path / "bad.model"
    save_model(KnnModel(tuple(samples([([0.0, 1.0], "a")]))), path)
    path.write_text(path.read_text() + record + "\n")
    with pytest.raises(ValueError, match=message) as err:
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
        model = KnnModel(tuple(train), min(k, len(train)), distance)
        path = tmp_path_factory.mktemp("knn") / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert [knn_predict(loaded, q) for q in queries] == [knn_predict(model, q) for q in queries]
