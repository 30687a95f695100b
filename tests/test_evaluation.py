import math
import sys

import numpy as np
import pytest

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
    write_folds_csv,
    write_report_csv,
    write_roc_csv,
)


def cluster_data(rng, centers, per_class, dim=4, spread=0.3):
    data = []
    for label, center in centers.items():
        for _ in range(per_class):
            data.append(LabeledSample(center + rng.normal(0, spread, size=dim), label))
    return data


def forty_by_ten(seed=0):
    rng = np.random.default_rng(seed)
    centers = {f"s{i:02d}": rng.uniform(0, 50, size=4) for i in range(40)}
    return cluster_data(rng, centers, per_class=10)


class TestSplit:
    def test_sizes_forty_classes(self):
        data = forty_by_ten()
        train, test = split_per_class(data, SplitSpec(n_train=7))
        assert len(train) == 280 and len(test) == 120
        for part, expect in ((train, 7), (test, 3)):
            counts = {}
            for s in part:
                counts[s.label] = counts.get(s.label, 0) + 1
            assert all(v == expect for v in counts.values())

    def test_unshuffled_takes_load_order(self):
        data = [LabeledSample(np.array([float(i)]), "a") for i in range(5)]
        data += [LabeledSample(np.array([float(10 + i)]), "b") for i in range(5)]
        train, test = split_per_class(data, SplitSpec(n_train=3))
        assert [s.vector[0] for s in train] == [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
        assert [s.vector[0] for s in test] == [3.0, 4.0, 13.0, 14.0]

    def test_shuffle_is_seeded(self):
        data = forty_by_ten()
        a1 = split_per_class(data, SplitSpec(7, shuffle_seed=5))
        a2 = split_per_class(data, SplitSpec(7, shuffle_seed=5))
        b = split_per_class(data, SplitSpec(7, shuffle_seed=6))

        def ids(split):
            return [id(s) for part in split for s in part]

        assert ids(a1) == ids(a2)
        assert ids(a1) != ids(b)
        assert sorted(ids(a1)) == sorted(ids(b))  # same multiset either way

    def test_shuffled_split_preserves_per_class_sizes(self):
        data = forty_by_ten()
        train, test = split_per_class(data, SplitSpec(5, shuffle_seed=11))
        assert len(train) == 200 and len(test) == 120 + 80

    def test_rejects_degenerate_requests(self):
        data = [LabeledSample(np.array([0.0]), "a"), LabeledSample(np.array([1.0]), "a")]
        with pytest.raises(ValueError, match="at least 1"):
            split_per_class(data, SplitSpec(0))
        with pytest.raises(ValueError, match="no test data"):
            split_per_class(data, SplitSpec(2))
        with pytest.raises(ValueError, match="empty dataset"):
            split_per_class([], SplitSpec(1))


class TestEvaluate:
    def test_separable_is_perfect_for_both_classifiers(self):
        rng = np.random.default_rng(2)
        centers = {"a": np.zeros(4), "b": np.full(4, 8.0), "c": np.full(4, -8.0)}
        data = cluster_data(rng, centers, per_class=8)
        train, test = split_per_class(data, SplitSpec(5))
        for cfg in (
            ClassifierConfig(kind="knn", neighbors_k=1),
            ClassifierConfig(kind="knn", neighbors_k=3, distance="euclidean"),
            ClassifierConfig(kind="svm", degree=1),
        ):
            report = evaluate(train, test, cfg)
            assert report.accuracy == 100.0
            assert report.per_class == {"a": (3, 3), "b": (3, 3), "c": (3, 3)}

    def test_accuracy_matches_counts(self):
        # one class trained far from its test points gets every one wrong
        train = [
            LabeledSample(np.array([0.0]), "a"),
            LabeledSample(np.array([100.0]), "b"),
        ]
        test = [
            LabeledSample(np.array([1.0]), "a"),
            LabeledSample(np.array([2.0]), "a"),
            LabeledSample(np.array([3.0]), "b"),
        ]
        report = evaluate(train, test, ClassifierConfig(kind="knn"))
        assert report.per_class == {"a": (2, 2), "b": (0, 1)}
        assert report.accuracy == pytest.approx(100.0 * 2 / 3)

    def test_report_derives_accuracy_from_counts(self):
        report = EvalReport({"a": (3, 3), "b": (1, 4)})
        assert (report.correct, report.total) == (4, 7)
        assert report.accuracy == 100.0 * 4 / 7

    def test_zscore_rebalances_feature_scales(self):
        # feature 0 is large-scale noise, feature 1 carries the class;
        # plain euclidean 1-NN follows the noise, standardized does not
        train = [
            LabeledSample(np.array([0.0, 0.0]), "a"),
            LabeledSample(np.array([200.0, 0.01]), "a"),
            LabeledSample(np.array([100.0, 1.0]), "b"),
            LabeledSample(np.array([300.0, 1.01]), "b"),
        ]
        test = [LabeledSample(np.array([90.0, 0.005]), "a")]
        raw = ClassifierConfig(kind="knn", distance="euclidean")
        std = ClassifierConfig(kind="knn", distance="euclidean", zscore=True)
        assert evaluate(train, test, raw).accuracy == 0.0
        assert evaluate(train, test, std).accuracy == 100.0

    def test_rejects_empty_sets(self):
        s = [LabeledSample(np.array([0.0]), "a"), LabeledSample(np.array([1.0]), "b")]
        with pytest.raises(ValueError, match="non-empty"):
            evaluate([], s)
        with pytest.raises(ValueError, match="non-empty"):
            evaluate(s, [])

    def test_rejects_unknown_classifier(self):
        s = [LabeledSample(np.array([0.0]), "a"), LabeledSample(np.array([1.0]), "b")]
        with pytest.raises(ValueError, match="unknown classifier"):
            evaluate(s, s, ClassifierConfig(kind="forest"))


class TestKfold:
    def test_each_sample_tested_once(self):
        rng = np.random.default_rng(3)
        centers = {"a": np.zeros(3), "b": np.full(3, 9.0)}
        data = cluster_data(rng, centers, per_class=6, dim=3)
        report = kfold(data, k=3)
        assert report.fold_accuracies is not None and len(report.fold_accuracies) == 3
        assert sum(t for _, t in report.per_class.values()) == len(data)
        assert report.per_class["a"][1] == 6 and report.per_class["b"][1] == 6

    def test_separated_clusters_score_everywhere(self):
        rng = np.random.default_rng(4)
        centers = {f"c{i}": np.full(3, 10.0 * i) for i in range(4)}
        data = cluster_data(rng, centers, per_class=10, dim=3, spread=0.2)
        report = kfold(data, k=10)
        assert report.accuracy == 100.0
        assert all(acc == 100.0 for acc in report.fold_accuracies)

    def test_singleton_class_lands_in_first_fold(self):
        # a class with one sample can never be predicted when held out,
        # so it contributes exactly one guaranteed miss
        data = [LabeledSample(np.array([float(i)]), "a") for i in range(3)]
        data.append(LabeledSample(np.array([50.0]), "b"))
        report = kfold(data, k=3, cfg=ClassifierConfig(kind="knn"))
        assert report.per_class["b"] == (0, 1)
        assert report.per_class["a"] == (3, 3)
        assert report.accuracy == pytest.approx(75.0)

    def test_unequal_classes(self):
        rng = np.random.default_rng(5)
        data = cluster_data(rng, {"a": np.zeros(2)}, per_class=7, dim=2)
        data += cluster_data(rng, {"b": np.full(2, 9.0)}, per_class=4, dim=2)
        report = kfold(data, k=2)
        assert sum(t for _, t in report.per_class.values()) == 11
        assert report.accuracy == 100.0

    def test_validation(self):
        data = [LabeledSample(np.array([float(i)]), "a") for i in range(3)]
        with pytest.raises(ValueError, match="at least 2"):
            kfold(data, k=1)
        with pytest.raises(ValueError, match="at least k"):
            kfold(data, k=5)

    @pytest.mark.parametrize("zscore", [False, True])
    def test_empty_fold_is_refused_before_any_training(self, monkeypatch, zscore):
        calls = []
        monkeypatch.setattr(evaluation, "svm_train", lambda *args: calls.append(args))
        data = [LabeledSample(np.array([float(i)]), f"c{i % 3}") for i in range(6)]  # 2 per class
        with pytest.raises(ValueError, match="fold 2 is empty"):
            kfold(data, 3, ClassifierConfig(kind="svm", zscore=zscore))
        assert calls == []

    def test_knn_scores_each_pair_once(self, monkeypatch):
        # one shrinking upper-triangle row per sample: n - 1 calls over n - 1, n - 2, ..., 1 rows,
        # in row order on one thread and in two interleaved stripes on two
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)  # 2 threads on 1 core too
        real = evaluation.distance_rows
        data = forty_by_ten(seed=9)[:50]
        cfg = ClassifierConfig(neighbors_k=3)
        expected = per_fold_knn_kfold(data, 5, cfg)
        for workers in (1, 2):
            rows = []
            monkeypatch.setattr(evaluation, "distance_rows", lambda m, q, d: rows.append(len(m)) or real(m, q, d))
            assert kfold(data, 5, cfg, workers) == expected
            assert sorted(rows, reverse=True) == list(range(len(data) - 1, 0, -1))
            if workers == 1:
                assert rows == list(range(len(data) - 1, 0, -1))

    def test_more_threads_than_cores_agree_with_one(self, monkeypatch):
        # 8 stripes on however many cores, switching threads every microsecond: a lost or misplaced row shows
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(8)), raising=False)
        data = forty_by_ten(seed=11)[:60]
        train, test = split_per_class(data, SplitSpec(6))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = kfold(data, 5, workers=8), roc_far_gar(train, test, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == (kfold(data, 5), roc_far_gar(train, test))

    def test_deterministic(self):
        data = forty_by_ten(seed=6)[:80]  # 8 classes x 10
        r1 = kfold(data, k=10)
        r2 = kfold(data, k=10)
        assert r1.fold_accuracies == r2.fold_accuracies
        assert r1.accuracy == r2.accuracy


def per_fold_knn_kfold(data, k, cfg):
    """KNN k-fold as it ran before the pair walk: one KnnModel and one
    knn_predict per test sample, fold by fold."""
    positions = {}
    for i, sample in enumerate(data):
        positions.setdefault(sample.label, []).append(i)
    fold_of = [0] * len(data)
    for label in sorted(positions):
        for j, i in enumerate(positions[label]):
            fold_of[i] = j % k
    per_class, fold_accuracies = {}, []
    for fold in range(k):
        train = [s for i, s in enumerate(data) if fold_of[i] != fold]
        test = [s for i, s in enumerate(data) if fold_of[i] == fold]
        if not test:
            raise ValueError(f"fold {fold} is empty; reduce k")
        model = KnnModel([s.vector for s in train], [s.label for s in train], cfg.neighbors_k, cfg.distance)
        hits = 0
        for sample in test:
            hit = knn_predict(model, sample.vector)[0] == sample.label
            counts = per_class.setdefault(sample.label, [0, 0])
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
    return [LabeledSample(points[rng.integers(8)], f"c{i % 4}") for i in range(40)]


def _small_classes(seed):
    # classes of 1-3 samples beside one of 5, under k=5: most folds miss most classes
    rng = np.random.default_rng(seed)
    labels = ["big"] * 5 + [f"c{i % 5}" for i in range(13)]
    return [LabeledSample(rng.normal(size=4), label) for label in labels]


class TestKfoldMatchesPerFoldKnn:
    @pytest.mark.parametrize("distance", ["log", "euclidean"])
    @pytest.mark.parametrize("neighbors_k", [1, 2, 3, 5])
    @pytest.mark.parametrize("data, k", [
        (forty_by_ten(seed=8)[:120], 10),
        (_tied_data(1), 3),
        (_tied_data(2), 3),
        (_small_classes(2), 5),
    ], ids=["clusters", "ties", "more ties", "small classes"])
    def test_same_report(self, data, k, neighbors_k, distance):
        cfg = ClassifierConfig(neighbors_k=neighbors_k, distance=distance)
        expected = per_fold_knn_kfold(data, k, cfg)
        assert kfold(data, k, cfg) == expected

    @pytest.mark.parametrize("distance", ["log", "euclidean"])
    def test_neighbors_k_equal_to_the_smallest_training_fold(self, distance):
        data = _small_classes(3)  # fold 0 holds 6 of 18 samples: 12 train
        for neighbors_k in (12, 13):
            cfg = ClassifierConfig(neighbors_k=neighbors_k, distance=distance)
            assert outcome(kfold, data, 5, cfg) == outcome(per_fold_knn_kfold, data, 5, cfg)
        assert kfold(data, 5, ClassifierConfig(neighbors_k=12, distance=distance)).total == 18

    @pytest.mark.parametrize("data, k, cfg, message", [
        ([LabeledSample(np.array([float(i)]), f"c{i % 3}") for i in range(6)], 3,
         ClassifierConfig(), "fold 2 is empty"),
        ([LabeledSample(np.array([float(i)]), f"c{i % 2}") for i in range(6)], 3,
         ClassifierConfig(neighbors_k=5), "neighbors_k must be in"),
        ([LabeledSample(np.array([float(i)]), f"c{i % 3}") for i in range(6)], 3,
         ClassifierConfig(neighbors_k=4), "neighbors_k must be in"),  # before fold 2 is found empty
        ([LabeledSample(np.array([float(i)]), f"c{i % 2}") for i in range(6)], 3,
         ClassifierConfig(distance="manhattan"), "unknown distance 'manhattan'"),
        ([LabeledSample(np.array([float(i)]), f"c{i}") for i in range(3)], 2,
         ClassifierConfig(), "training set must be non-empty"),
        ([LabeledSample(np.zeros(1 + i % 2), f"c{i % 2}") for i in range(6)], 3,
         ClassifierConfig(), "training vectors must share one dimension"),
    ], ids=["empty fold", "k above training", "k above training first", "distance",
            "no training", "mixed lengths"])
    def test_same_errors(self, data, k, cfg, message):
        got = outcome(kfold, data, k, cfg)
        assert got == outcome(per_fold_knn_kfold, data, k, cfg)
        assert got[0] == "ValueError" and message in got[1]


class TestRoc:
    def hand_sets(self):
        train = [
            LabeledSample(np.array([0.0]), "a"),
            LabeledSample(np.array([10.0]), "b"),
        ]
        test = [
            LabeledSample(np.array([1.0]), "a"),
            LabeledSample(np.array([9.0]), "b"),
        ]
        return train, test

    def test_hand_counts(self):
        # both genuine scores are ln 2, both impostor scores ln 10
        train, test = self.hand_sets()
        points = roc_far_gar(train, test)
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
        data = cluster_data(rng, centers, per_class=8)
        train, test = split_per_class(data, SplitSpec(5))
        points = roc_far_gar(train, test)
        assert points[0].threshold == 0.0
        assert (points[-1].far, points[-1].gar) == (100.0, 100.0)
        for prev, cur in zip(points, points[1:]):
            assert cur.threshold > prev.threshold
            assert cur.far >= prev.far
            assert cur.gar >= prev.gar

    def test_trial_counts_scale_with_classes(self):
        # every test sample yields one genuine and n_classes-1 impostor
        # trials; with 3 classes the 100% far step sizes reveal the 2:1
        # impostor-to-genuine ratio
        train = [
            LabeledSample(np.array([0.0]), "a"),
            LabeledSample(np.array([10.0]), "b"),
            LabeledSample(np.array([20.0]), "c"),
        ]
        test = [LabeledSample(np.array([0.5]), "a")]
        points = roc_far_gar(train, test)
        fars = {p.far for p in points}
        assert fars == {0.0, 50.0, 100.0}
        gars = {p.gar for p in points}
        assert gars == {0.0, 100.0}

    def test_requires_two_classes(self):
        train = [LabeledSample(np.array([0.0]), "a")]
        test = [LabeledSample(np.array([1.0]), "a")]
        with pytest.raises(ValueError, match="impostor"):
            roc_far_gar(train, test)

    def test_rejects_test_vector_of_wrong_length(self):
        # a one-value test vector would broadcast against every training row
        train = [LabeledSample(np.array([0.0, 0.0]), "a"), LabeledSample(np.array([9.0, 9.0]), "b")]
        test = [LabeledSample(np.array([1.0]), "a")]
        with pytest.raises(ValueError, match="length mismatch"):
            roc_far_gar(train, test)

    def test_rejects_unknown_distance(self):
        train, test = self.hand_sets()
        with pytest.raises(ValueError, match="unknown distance 'manhattan'"):
            roc_far_gar(train, test, distance="manhattan")

    def test_rejects_empty(self):
        s = [LabeledSample(np.array([0.0]), "a")]
        with pytest.raises(ValueError, match="non-empty"):
            roc_far_gar([], s)
        with pytest.raises(ValueError, match="non-empty"):
            roc_far_gar(s, [])

    @pytest.mark.filterwarnings("error")  # the ValueError alone reports it
    def test_rejects_overflowing_distances(self):
        # finite vectors whose squared difference overflows once gave threshold=nan
        train = [LabeledSample(np.array([0.0, 1e200]), "a"), LabeledSample(np.array([1e200, 0.0]), "b")]
        test = [LabeledSample(np.array([0.0, 1e200]), "a"), LabeledSample(np.array([1e200, 0.0]), "b")]
        with pytest.raises(ValueError, match="euclidean distance overflows"):
            roc_far_gar(train, test, distance="euclidean")
        assert all(not math.isnan(p.threshold) for p in roc_far_gar(train, test, distance="log"))

    def test_threads_give_the_same_points(self, monkeypatch):
        # one distance_rows call per training sample, in class stripes on two threads
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)  # 2 threads on 1 core too
        train, test = split_per_class(forty_by_ten(seed=4)[:70], SplitSpec(6))
        real = evaluation.distance_rows
        results = []
        for workers in (1, 2):
            queries = []
            monkeypatch.setattr(evaluation, "distance_rows", lambda m, q, d: queries.append(id(q)) or real(m, q, d))
            results.append(roc_far_gar(train, test, "log", 50, workers))
            assert sorted(queries) == sorted(id(s.vector) for s in train)
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
        points = roc_far_gar(
            [LabeledSample(np.array([0.0]), "a"), LabeledSample(np.array([9.0]), "b")],
            [LabeledSample(np.array([1.0]), "a")],
        )
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
