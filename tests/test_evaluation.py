import math
import sys

import numpy as np
import pytest

from conftest import run_python
from nblgc import evaluation
from nblgc import (
    ClassifierConfig,
    EvalReport,
    KnnModel,
    LabeledSample,
    SplitSpec,
    evaluate,
    kfold,
    knn_predict,
    roc_far_gar,
    split_per_class,
    split_rows,
    write_folds_csv,
    write_report_csv,
    write_roc_csv,
)


def cluster_data(rng, centers, per_class, dim=4, spread=0.3):
    """(vectors, labels): per_class rows around each center, class after class."""
    labels = [label for label in centers for _ in range(per_class)]
    return np.array([centers[label] + rng.normal(0, spread, size=dim) for label in labels]), labels


def forty_by_ten(seed=0, n=400):
    """The first n rows of 40 clusters of 10."""
    rng = np.random.default_rng(seed)
    centers = {f"s{i:02d}": rng.uniform(0, 50, size=4) for i in range(40)}
    vectors, labels = cluster_data(rng, centers, per_class=10)
    return vectors[:n], labels[:n]


def joined(train, test):
    """(vectors, labels, train_rows, test_rows) for the (vector, label)
    pairs of train followed by those of test."""
    pairs = [*train, *test]
    return (np.array([vector for vector, _ in pairs], dtype=float), [label for _, label in pairs],
            list(range(len(train))), list(range(len(train), len(pairs))))


def line(n, label_of):
    """n one-value rows 0, 1, ..., n - 1, row i labelled label_of(i)."""
    return np.arange(float(n))[:, None], [label_of(i) for i in range(n)]


def rows_by_split_per_class(data, spec):
    """split_per_class on one LabeledSample per row, mapped back to row numbers."""
    samples = [LabeledSample(vector, label) for vector, label in zip(*data)]
    row_of = {id(s): i for i, s in enumerate(samples)}
    return tuple([row_of[id(s)] for s in part] for part in split_per_class(samples, spec))


# each TestSplit test runs both split functions on the same data
SPLITS = [lambda data, spec: split_rows(data[1], spec), rows_by_split_per_class]


class TestSplit:
    def test_sizes_forty_classes(self):
        vectors, labels = forty_by_ten()
        for split in SPLITS:
            train, test = split((vectors, labels), SplitSpec(n_train=7))
            assert len(train) == 280 and len(test) == 120
            for part, expect in ((train, 7), (test, 3)):
                counts = {}
                for i in part:
                    counts[labels[i]] = counts.get(labels[i], 0) + 1
                assert all(v == expect for v in counts.values())

    def test_unshuffled_takes_load_order(self):
        vectors = np.array([[float(i)] for i in range(5)] + [[float(10 + i)] for i in range(5)])
        for split in SPLITS:
            train, test = split((vectors, ["a"] * 5 + ["b"] * 5), SplitSpec(n_train=3))
            assert [vectors[i][0] for i in train] == [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
            assert [vectors[i][0] for i in test] == [3.0, 4.0, 13.0, 14.0]

    def test_shuffle_is_seeded(self):
        data = forty_by_ten()

        def ids(split):
            return [i for part in split for i in part]

        for split in SPLITS:
            a1 = split(data, SplitSpec(7, shuffle_seed=5))
            a2 = split(data, SplitSpec(7, shuffle_seed=5))
            b = split(data, SplitSpec(7, shuffle_seed=6))
            assert ids(a1) == ids(a2)
            assert ids(a1) != ids(b)
            assert sorted(ids(a1)) == sorted(ids(b))  # same multiset either way

    def test_shuffled_split_preserves_per_class_sizes(self):
        for split in SPLITS:
            train, test = split(forty_by_ten(), SplitSpec(5, shuffle_seed=11))
            assert len(train) == 200 and len(test) == 120 + 80

    def test_rejects_degenerate_requests(self):
        data = (np.array([[0.0], [1.0]]), ["a", "a"])
        for split in SPLITS:
            with pytest.raises(ValueError, match="at least 1"):
                split(data, SplitSpec(0))
            with pytest.raises(ValueError, match="no test data"):
                split(data, SplitSpec(2))
            with pytest.raises(ValueError, match="empty dataset"):
                split((np.empty((0, 1)), []), SplitSpec(1))


@pytest.mark.parametrize("seed", [None, 5])
def test_split_per_class_takes_the_samples_at_split_rows(seed):
    vectors, labels = forty_by_ten(seed=3, n=120)
    samples = [LabeledSample(vector, label) for vector, label in zip(vectors, labels)]
    train, test = split_per_class(samples, SplitSpec(4, shuffle_seed=seed))
    train_rows, test_rows = split_rows(labels, SplitSpec(4, shuffle_seed=seed))
    assert train == [samples[i] for i in train_rows]  # LabeledSample == is identity
    assert test == [samples[i] for i in test_rows]


class TestEvaluate:
    def test_separable_is_perfect_for_both_classifiers(self):
        rng = np.random.default_rng(2)
        centers = {"a": np.zeros(4), "b": np.full(4, 8.0), "c": np.full(4, -8.0)}
        vectors, labels = cluster_data(rng, centers, per_class=8)
        train, test = split_rows(labels, SplitSpec(5))
        for cfg in (
            ClassifierConfig(kind="knn", neighbors_k=1),
            ClassifierConfig(kind="knn", neighbors_k=3, distance="euclidean"),
            ClassifierConfig(kind="svm", degree=1),
        ):
            report = evaluate(vectors, labels, train, test, cfg)
            assert report.accuracy == 100.0
            assert report.per_class == {"a": (3, 3), "b": (3, 3), "c": (3, 3)}

    def test_accuracy_matches_counts(self):
        # one class trained far from its test points gets every one wrong
        data = joined([([0.0], "a"), ([100.0], "b")], [([1.0], "a"), ([2.0], "a"), ([3.0], "b")])
        report = evaluate(*data, ClassifierConfig(kind="knn"))
        assert report.per_class == {"a": (2, 2), "b": (0, 1)}
        assert report.accuracy == pytest.approx(100.0 * 2 / 3)

    def test_report_derives_accuracy_from_counts(self):
        report = EvalReport({"a": (3, 3), "b": (1, 4)})
        assert (report.correct, report.total) == (4, 7)
        assert report.accuracy == 100.0 * 4 / 7

    def test_zscore_rebalances_feature_scales(self):
        # feature 0 is large-scale noise, feature 1 carries the class;
        # plain euclidean 1-NN follows the noise, standardized does not
        data = joined(
            [([0.0, 0.0], "a"), ([200.0, 0.01], "a"), ([100.0, 1.0], "b"), ([300.0, 1.01], "b")],
            [([90.0, 0.005], "a")],
        )
        raw = ClassifierConfig(kind="knn", distance="euclidean")
        std = ClassifierConfig(kind="knn", distance="euclidean", zscore=True)
        assert evaluate(*data, raw).accuracy == 0.0
        assert evaluate(*data, std).accuracy == 100.0

    def test_rejects_empty_sets(self):
        vectors, labels = np.array([[0.0], [1.0]]), ["a", "b"]
        with pytest.raises(ValueError, match="non-empty"):
            evaluate(vectors, labels, [], [0, 1])
        with pytest.raises(ValueError, match="non-empty"):
            evaluate(vectors, labels, [0, 1], [])

    def test_rejects_unknown_classifier(self):
        with pytest.raises(ValueError, match="unknown classifier"):
            evaluate(np.array([[0.0], [1.0]]), ["a", "b"], [0, 1], [0, 1], ClassifierConfig(kind="forest"))

    @pytest.mark.parametrize("neighbors_k, distance, message", [
        (0, "log", "neighbors_k must be in"),
        (4, "log", "neighbors_k must be in"),  # one above the 3 training rows
        (1, "manhattan", "unknown distance 'manhattan'"),
    ], ids=["k zero", "k above training", "distance"])
    def test_knn_refuses_what_a_knn_model_refuses(self, neighbors_k, distance, message):
        # without the check, argsort[:k] would vote over fewer neighbours than asked
        vectors, labels = line(5, lambda i: f"c{i % 2}")
        train, test = [0, 1, 2], [3, 4]
        got = outcome(evaluate, vectors, labels, train, test, ClassifierConfig(neighbors_k=neighbors_k, distance=distance))
        assert got == outcome(KnnModel, vectors[train], [labels[i] for i in train], neighbors_k, distance)
        assert got[0] == "ValueError" and message in got[1]


_EVERY_EVALUATION = pytest.mark.parametrize("run", [
    lambda vectors, labels: evaluate(vectors, labels, [0, 1], [2, 3]),
    lambda vectors, labels: kfold(vectors, labels, 2),
    lambda vectors, labels: roc_far_gar(vectors, labels, [0, 1], [2, 3]),
], ids=["evaluate", "kfold", "roc_far_gar"])


@_EVERY_EVALUATION
@pytest.mark.parametrize("vectors", [
    np.arange(4.0),  # 1-D
    np.zeros((3, 2)),  # a row short
    np.zeros((5, 2)),  # a row over
    np.zeros((4, 2, 1)),  # 3-D
    np.array([[0.0], [1.0], [np.nan], [2.0]]),
], ids=["1-D", "3 rows", "5 rows", "3-D", "nan"])
def test_vectors_must_be_one_finite_row_per_label(run, vectors):
    with pytest.raises(ValueError, match=r"finite 2-D array with one row per label \(4\)"):
        run(vectors, ["a", "b", "a", "b"])


@_EVERY_EVALUATION
def test_ragged_rows_get_the_knn_model_message(run):
    # the one matrix rule: rows of several lengths are refused as KnnModel refuses them
    ragged = [[0.0, 1.0], [1.0], [2.0, 3.0], [3.0, 4.0]]
    for build in (run, KnnModel):
        with pytest.raises(ValueError, match="^vectors must share one dimension: ") as err:
            build(ragged, ["a", "b", "a", "b"])
        assert type(err.value) is ValueError


class TestKfold:
    def test_each_sample_tested_once(self):
        rng = np.random.default_rng(3)
        centers = {"a": np.zeros(3), "b": np.full(3, 9.0)}
        vectors, labels = cluster_data(rng, centers, per_class=6, dim=3)
        report = kfold(vectors, labels, k=3)
        assert report.fold_accuracies is not None and len(report.fold_accuracies) == 3
        assert sum(t for _, t in report.per_class.values()) == len(labels)
        assert report.per_class["a"][1] == 6 and report.per_class["b"][1] == 6

    def test_separated_clusters_score_everywhere(self):
        rng = np.random.default_rng(4)
        centers = {f"c{i}": np.full(3, 10.0 * i) for i in range(4)}
        report = kfold(*cluster_data(rng, centers, per_class=10, dim=3, spread=0.2), k=10)
        assert report.accuracy == 100.0
        assert all(acc == 100.0 for acc in report.fold_accuracies)

    def test_singleton_class_lands_in_first_fold(self):
        # a class with one sample can never be predicted when held out,
        # so it contributes exactly one guaranteed miss
        vectors, labels = np.array([[0.0], [1.0], [2.0], [50.0]]), ["a", "a", "a", "b"]
        report = kfold(vectors, labels, k=3, cfg=ClassifierConfig(kind="knn"))
        assert report.per_class["b"] == (0, 1)
        assert report.per_class["a"] == (3, 3)
        assert report.accuracy == pytest.approx(75.0)

    def test_unequal_classes(self):
        rng = np.random.default_rng(5)
        a_vectors, a_labels = cluster_data(rng, {"a": np.zeros(2)}, per_class=7, dim=2)
        b_vectors, b_labels = cluster_data(rng, {"b": np.full(2, 9.0)}, per_class=4, dim=2)
        report = kfold(np.concatenate([a_vectors, b_vectors]), a_labels + b_labels, k=2)
        assert sum(t for _, t in report.per_class.values()) == 11
        assert report.accuracy == 100.0

    def test_validation(self):
        data = line(3, lambda i: "a")
        with pytest.raises(ValueError, match="at least 2"):
            kfold(*data, k=1)
        with pytest.raises(ValueError, match="at least k"):
            kfold(*data, k=5)

    @pytest.mark.parametrize("zscore", [False, True])
    def test_empty_fold_is_refused_before_any_training(self, monkeypatch, zscore):
        calls = []
        monkeypatch.setattr(evaluation, "_svm_fit", lambda *args: calls.append(args))
        data = line(6, lambda i: f"c{i % 3}")  # 2 per class
        with pytest.raises(ValueError, match="fold 2 is empty"):
            kfold(*data, 3, ClassifierConfig(kind="svm", zscore=zscore))
        assert calls == []

    def test_knn_scores_each_pair_once(self, monkeypatch):
        # one shrinking upper-triangle row per sample: n - 1 calls over n - 1, n - 2, ..., 1 rows,
        # in row order on one thread and in two interleaved stripes on two
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)  # 2 threads on 1 core too
        real = evaluation.distance_rows
        vectors, labels = forty_by_ten(seed=9, n=50)
        cfg = ClassifierConfig(neighbors_k=3)
        expected = per_fold_knn_kfold(vectors, labels, 5, cfg)
        for workers in (1, 2):
            rows = []
            monkeypatch.setattr(evaluation, "distance_rows", lambda m, q, d: rows.append(len(m)) or real(m, q, d))
            assert kfold(vectors, labels, 5, cfg, workers) == expected
            assert sorted(rows, reverse=True) == list(range(len(labels) - 1, 0, -1))
            if workers == 1:
                assert rows == list(range(len(labels) - 1, 0, -1))

    def test_more_threads_than_cores_agree_with_one(self, monkeypatch):
        # 8 stripes on however many cores, switching threads every microsecond: a lost or misplaced row shows
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(8)), raising=False)
        vectors, labels = forty_by_ten(seed=11, n=60)
        train, test = split_rows(labels, SplitSpec(6))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = kfold(vectors, labels, 5, workers=8), roc_far_gar(vectors, labels, train, test, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == (kfold(vectors, labels, 5), roc_far_gar(vectors, labels, train, test))

    def test_deterministic(self):
        data = forty_by_ten(seed=6, n=80)  # 8 classes x 10
        r1 = kfold(*data, k=10)
        r2 = kfold(*data, k=10)
        assert r1.fold_accuracies == r2.fold_accuracies
        assert r1.accuracy == r2.accuracy


def per_fold_knn_kfold(vectors, labels, k, cfg):
    """KNN k-fold as it ran before the pair walk: one KnnModel and one
    knn_predict per test sample, fold by fold."""
    positions = {}
    for i, label in enumerate(labels):
        positions.setdefault(label, []).append(i)
    fold_of = [0] * len(labels)
    for label in sorted(positions):
        for j, i in enumerate(positions[label]):
            fold_of[i] = j % k
    per_class, fold_accuracies = {}, []
    for fold in range(k):
        train = [i for i in range(len(labels)) if fold_of[i] != fold]
        test = [i for i in range(len(labels)) if fold_of[i] == fold]
        if not test:
            raise ValueError(f"fold {fold} is empty; reduce k")
        model = KnnModel(vectors[train], [labels[i] for i in train], cfg.neighbors_k, cfg.distance)
        hits = 0
        for i in test:
            hit = knn_predict(model, vectors[i])[0] == labels[i]
            counts = per_class.setdefault(labels[i], [0, 0])
            counts[0] += hit
            counts[1] += 1
            hits += hit
        fold_accuracies.append(100.0 * hits / len(test))
    return EvalReport({c: tuple(v) for c, v in sorted(per_class.items())}, tuple(fold_accuracies))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return ("ValueError", str(err))


def _tied_data(seed):
    # 40 samples over at most 8 distinct vectors with unrelated labels:
    # most distances tie, and the tie order decides which labels vote
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 4, size=(8, 2)).astype(float)
    return np.array([points[rng.integers(8)] for _ in range(40)]), [f"c{i % 4}" for i in range(40)]


def _small_classes(seed):
    # classes of 1-3 samples beside one of 5, under k=5: most folds miss most classes
    rng = np.random.default_rng(seed)
    labels = ["big"] * 5 + [f"c{i % 5}" for i in range(13)]
    return np.array([rng.normal(size=4) for _ in labels]), labels


# the data sets and settings on which the KNN paths must match one knn_predict per test row
KNN_DISTANCES = pytest.mark.parametrize("distance", ["log", "euclidean"])
KNN_NEIGHBORS = pytest.mark.parametrize("neighbors_k", [1, 2, 3, 5])
KNN_DATA = pytest.mark.parametrize("data, k", [
    (forty_by_ten(seed=8, n=120), 10),
    (_tied_data(1), 3),
    (_tied_data(2), 3),
    (_small_classes(2), 5),
], ids=["clusters", "ties", "more ties", "small classes"])


class TestKfoldMatchesPerFoldKnn:
    @KNN_DISTANCES
    @KNN_NEIGHBORS
    @KNN_DATA
    def test_same_report(self, data, k, neighbors_k, distance):
        cfg = ClassifierConfig(neighbors_k=neighbors_k, distance=distance)
        expected = per_fold_knn_kfold(*data, k, cfg)
        assert kfold(*data, k, cfg) == expected

    @pytest.mark.parametrize("distance", ["log", "euclidean"])
    def test_neighbors_k_equal_to_the_smallest_training_fold(self, distance):
        data = _small_classes(3)  # fold 0 holds 6 of 18 samples: 12 train
        for neighbors_k in (12, 13):
            cfg = ClassifierConfig(neighbors_k=neighbors_k, distance=distance)
            assert outcome(kfold, *data, 5, cfg) == outcome(per_fold_knn_kfold, *data, 5, cfg)
        assert kfold(*data, 5, ClassifierConfig(neighbors_k=12, distance=distance)).total == 18

    @pytest.mark.parametrize("data, k, cfg, message", [
        (line(6, lambda i: f"c{i % 3}"), 3, ClassifierConfig(), "fold 2 is empty"),
        (line(6, lambda i: f"c{i % 2}"), 3, ClassifierConfig(neighbors_k=5), "neighbors_k must be in"),
        (line(6, lambda i: f"c{i % 3}"), 3,
         ClassifierConfig(neighbors_k=4), "neighbors_k must be in"),  # before fold 2 is found empty
        (line(6, lambda i: f"c{i % 2}"), 3, ClassifierConfig(distance="manhattan"), "unknown distance 'manhattan'"),
        (line(3, lambda i: f"c{i}"), 2, ClassifierConfig(), "training set must be non-empty"),
    ], ids=["empty fold", "k above training", "k above training first", "distance", "no training"])
    def test_same_errors(self, data, k, cfg, message):
        got = outcome(kfold, *data, k, cfg)
        assert got == outcome(per_fold_knn_kfold, *data, k, cfg)
        assert got[0] == "ValueError" and message in got[1]


def per_row_knn_evaluate(vectors, labels, train, test, cfg):
    """KNN evaluate as it ran before the test × train table: one KnnModel
    and one knn_predict per test row."""
    if cfg.zscore:
        mean, std = vectors[train].mean(axis=0), vectors[train].std(axis=0)
        std[std == 0.0] = 1.0
        vectors = (vectors - mean) / std
    model = KnnModel(vectors[train], [labels[i] for i in train], cfg.neighbors_k, cfg.distance)
    per_class = {}
    for i in test:
        counts = per_class.setdefault(labels[i], [0, 0])
        counts[0] += knn_predict(model, vectors[i])[0] == labels[i]
        counts[1] += 1
    return EvalReport({c: tuple(v) for c, v in sorted(per_class.items())})


@pytest.mark.parametrize("zscore", [False, True])
@KNN_DISTANCES
@KNN_NEIGHBORS
@KNN_DATA
def test_evaluate_knn_matches_per_row_knn_predict(data, k, neighbors_k, distance, zscore):
    # every k-th row tests; the rest train in reverse row order, so equal distances rank by training order
    vectors, labels = data
    test = list(range(0, len(labels), k))
    train = [i for i in reversed(range(len(labels))) if i % k]
    cfg = ClassifierConfig(neighbors_k=neighbors_k, distance=distance, zscore=zscore)
    assert evaluate(vectors, labels, train, test, cfg) == per_row_knn_evaluate(vectors, labels, train, test, cfg)


class TestRoc:
    def hand_sets(self):
        return joined([([0.0], "a"), ([10.0], "b")], [([1.0], "a"), ([9.0], "b")])

    def test_hand_counts(self):
        # both genuine scores are ln 2, both impostor scores ln 10
        points = roc_far_gar(*self.hand_sets())
        thresholds = [p.threshold for p in points]
        assert math.log(2.0) in thresholds
        assert math.log(10.0) in thresholds
        for p in points:
            if p.threshold < math.log(2.0):
                assert (p.far, p.gar) == (0.0, 0.0)
            elif p.threshold < math.log(10.0):
                assert (p.far, p.gar) == (0.0, 100.0)
            else:
                assert (p.far, p.gar) == (100.0, 100.0)

    def test_monotone_and_endpoints(self):
        rng = np.random.default_rng(7)
        centers = {f"c{i}": np.full(4, 4.0 * i) for i in range(5)}
        vectors, labels = cluster_data(rng, centers, per_class=8)
        points = roc_far_gar(vectors, labels, *split_rows(labels, SplitSpec(5)))
        assert points[0].threshold == 0.0
        assert (points[-1].far, points[-1].gar) == (100.0, 100.0)
        for prev, cur in zip(points, points[1:]):
            assert cur.threshold > prev.threshold
            assert cur.far >= prev.far
            assert cur.gar >= prev.gar

    def test_thresholds_are_the_distinct_grid_and_scores(self):
        # integer rows tie many scores with each other and with the grid, and a
        # test row equal to a training row scores 0.0, the grid's first value
        vectors = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 3.0], [4.0, 3.0],
                            [0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [4.0, 4.0]])
        labels, train, test = list("aabbaabb"), [0, 1, 2, 3], [4, 5, 6, 7]
        points = roc_far_gar(vectors, labels, train, test, "euclidean", 6)
        scores = [min(math.dist(vectors[t], vectors[r]) for r in train if labels[r] == c) for t in test for c in "ab"]
        candidates = np.concatenate([np.linspace(0.0, max(scores), 6), scores])
        assert [p.threshold for p in points] == np.unique(candidates).tolist()
        assert 0.0 in scores and len(points) < len(candidates)

    def test_sweep_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on first use, about 17 ms of a roc command
        proc = run_python("-c", "import sys, numpy as np; from nblgc import roc_far_gar; "
                                "roc_far_gar(np.array([[0.0], [10.0], [1.0], [9.0]]), ['a', 'b', 'a', 'b'], [0, 1], [2, 3]); "
                                "print('numpy.ma' in sys.modules)")
        assert proc.stdout == "False\n", proc.stderr

    def test_trial_counts_scale_with_classes(self):
        # every test sample yields one genuine and n_classes-1 impostor
        # trials; with 3 classes the 100% far step sizes reveal the 2:1
        # impostor-to-genuine ratio
        points = roc_far_gar(*joined([([0.0], "a"), ([10.0], "b"), ([20.0], "c")], [([0.5], "a")]))
        fars = {p.far for p in points}
        assert fars == {0.0, 50.0, 100.0}
        gars = {p.gar for p in points}
        assert gars == {0.0, 100.0}

    def test_requires_two_classes(self):
        with pytest.raises(ValueError, match="impostor"):
            roc_far_gar(*joined([([0.0], "a")], [([1.0], "a")]))

    def test_rejects_unknown_distance(self):
        with pytest.raises(ValueError, match="unknown distance 'manhattan'"):
            roc_far_gar(*self.hand_sets(), distance="manhattan")

    def test_rejects_empty(self):
        vectors, labels = np.array([[0.0]]), ["a"]
        with pytest.raises(ValueError, match="non-empty"):
            roc_far_gar(vectors, labels, [], [0])
        with pytest.raises(ValueError, match="non-empty"):
            roc_far_gar(vectors, labels, [0], [])

    @pytest.mark.filterwarnings("error")  # the ValueError alone reports it
    def test_rejects_overflowing_distances(self):
        # finite vectors whose squared difference overflows once gave threshold=nan
        data = joined([([0.0, 1e200], "a"), ([1e200, 0.0], "b")], [([0.0, 1e200], "a"), ([1e200, 0.0], "b")])
        with pytest.raises(ValueError, match="euclidean distance overflows"):
            roc_far_gar(*data, distance="euclidean")
        assert all(not math.isnan(p.threshold) for p in roc_far_gar(*data, distance="log"))

    def test_threads_give_the_same_points(self, monkeypatch):
        # one distance_rows call per training sample, the training rows striped over two threads
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)  # 2 threads on 1 core too
        vectors, labels = forty_by_ten(seed=4, n=70)
        train, test = split_rows(labels, SplitSpec(6))
        real = evaluation.distance_rows
        results = []
        for workers in (1, 2):
            queries = []
            monkeypatch.setattr(evaluation, "distance_rows",
                                lambda m, q, d: queries.append(q.tobytes()) or real(m, q, d))
            results.append(roc_far_gar(vectors, labels, train, test, "log", 50, workers))
            assert sorted(queries) == sorted(vectors[i].tobytes() for i in train)
        assert results[0] == results[1]


class TestCsvWriters:
    def sample_report(self):
        return EvalReport({"a": (3, 3), "b": (2, 3)}, fold_accuracies=(100.0, 100.0 * 2 / 3))

    config = {"seed": 0, "classifier": "knn", "neighbors_k": 1}

    def test_report_csv_layout(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(self.sample_report(), self.config, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# classifier=knn"
        assert lines[1] == "# neighbors_k=1"
        assert lines[2] == "# seed=0"
        assert lines[3] == "class,correct,total,accuracy"
        assert lines[4] == "a,3,3,100"
        assert lines[5] == "b,2,3,66.6667"
        assert lines[6] == "overall,5,6,83.3333"

    def test_report_csv_refuses_a_class_named_overall(self, tmp_path):
        # the total row keeps its name, so a class of that name would read as a second total
        path = tmp_path / "report.csv"
        with pytest.raises(ValueError, match="'overall'"):
            write_report_csv(EvalReport({"a": (1, 1), "overall": (1, 1)}), self.config, path)
        assert not path.exists()

    def test_folds_csv_layout(self, tmp_path):
        path = tmp_path / "folds.csv"
        write_folds_csv(self.sample_report(), self.config, path)
        lines = path.read_text().splitlines()
        assert lines[:3] == ["# classifier=knn", "# neighbors_k=1", "# seed=0"]
        assert "fold,accuracy" in lines
        assert "1,100" in lines
        assert "2,66.6667" in lines
        assert lines[-1] == "# mean_accuracy=83.3333"

    def test_folds_csv_requires_folds(self, tmp_path):
        report = EvalReport({"a": (1, 1)})
        with pytest.raises(ValueError, match="no fold accuracies"):
            write_folds_csv(report, {}, tmp_path / "folds.csv")

    def test_roc_csv_layout(self, tmp_path):
        points = roc_far_gar(*joined([([0.0], "a"), ([9.0], "b")], [([1.0], "a")]))
        path = tmp_path / "roc.csv"
        write_roc_csv(points, {"distance": "log"}, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# distance=log"
        assert lines[1] == "threshold,far,gar"
        assert lines[-1] == "# gar counts accepted genuine trials directly; it is not 100-far"

    def test_byte_stable_across_reruns(self, tmp_path):
        report = self.sample_report()
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        write_report_csv(report, self.config, p1)
        write_report_csv(report, self.config, p2)
        assert p1.read_bytes() == p2.read_bytes()
        f1, f2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        write_folds_csv(report, self.config, f1)
        write_folds_csv(report, self.config, f2)
        assert f1.read_bytes() == f2.read_bytes()
