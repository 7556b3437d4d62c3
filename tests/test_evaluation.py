import tracemalloc

import numpy as np
import pytest

import tck.evaluation as evaluation
from tck.data import Dataset
from tck.evaluation import (classification_metrics, kfold_evaluate,
                            knn_predict, kpca, select_k)


def pairwise_distances(coords):
    return np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))


def centred(kernel):
    """H K H with H = I - 11'/n: the kernel of the mean-centred features."""
    h = np.eye(len(kernel)) - 1.0 / len(kernel)
    return h @ kernel @ h


class TestKpca:
    def test_identity_kernel_has_equidistant_embedding(self):
        # Centring keeps feature-space distances; rank drops by one.
        emb, _ = kpca(np.eye(4), d=3)
        np.testing.assert_allclose(emb.eigenvalues, 1.0)
        dist = pairwise_distances(emb.coords)
        off = dist[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, np.sqrt(2.0), atol=1e-12)

    def test_rank_one_kernel(self):
        v = np.array([1.0, 2.0, 3.0])
        emb, _ = kpca(np.outer(v, v), d=3)
        centred_v = v - v.mean()
        assert emb.eigenvalues[0] == pytest.approx(centred_v @ centred_v)
        assert np.abs(emb.eigenvalues[1:]).max() < 1e-12

    def test_reconstruction_of_the_centred_kernel(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 6))
        kernel = a @ a.T
        emb, _ = kpca(kernel, d=5)
        recon = emb.coords @ emb.coords.T
        np.testing.assert_allclose(recon, centred(kernel), atol=1e-8)

    def test_projector_reproduces_training_coordinates(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(8, 5))
        kernel = a @ a.T
        emb, proj = kpca(kernel, d=4)
        again = proj.transform(kernel)
        np.testing.assert_allclose(again, emb.coords, atol=1e-8)

    def test_truncation_warning_on_indefinite_input(self):
        kernel = np.array([[0.0, 1.0], [1.0, 0.0]])  # centred eigenvalues 0, -1
        with pytest.warns(UserWarning, match="truncating"):
            emb, _ = kpca(kernel, d=2)
        assert emb.coords.shape[1] == 1

    @pytest.mark.parametrize("d", [0, -1, 5])
    def test_dimension_outside_one_to_n_rejected(self, d):
        with pytest.raises(ValueError, match=rf"^embedding dimension {d} must "
                                             r"lie in 1\.\.4"):
            kpca(np.eye(4), d=d)

    def test_negative_band_clamped(self):
        # Centred already, with eigenvalues 1, 0 and -1e-12 (numerically PSD).
        u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        w = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
        kernel = np.outer(u, u) - 1e-12 * np.outer(w, w)
        assert np.linalg.eigvalsh(centred(kernel))[0] < 0
        emb, _ = kpca(kernel, d=3)
        assert (emb.eigenvalues >= 0).all()
        assert emb.eigenvalues[-1] == 0.0


class TestKnn:
    def test_coincident_point_takes_its_label(self):
        train = np.array([[0.0, 0.0], [5.0, 5.0]])
        preds = knn_predict(train, [1, 2], np.array([[5.0, 5.0]]), k=1)
        assert preds.tolist() == [2]

    def test_two_blob_embedding_is_perfectly_classified(self):
        rng = np.random.default_rng(2)
        train = np.vstack([rng.normal(5.0, 0.1, size=(20, 3)),
                           rng.normal(-5.0, 0.1, size=(20, 3))])
        labels = np.array([1] * 20 + [2] * 20)
        test = np.vstack([rng.normal(5.0, 0.1, size=(10, 3)),
                          rng.normal(-5.0, 0.1, size=(10, 3))])
        preds = knn_predict(train, labels, test, k=1)
        assert preds.tolist() == [1] * 10 + [2] * 10

    def test_vote_tie_breaks_by_mean_distance_then_index(self):
        # k=4 sees two of each class; class 2 sits closer on average
        train = np.array([[1.0], [1.2], [3.0], [-3.0]])
        labels = np.array([2, 2, 1, 1])
        preds = knn_predict(train, labels, np.array([[0.0]]), k=4)
        assert preds.tolist() == [2]
        # perfectly symmetric: counts tie, mean distances tie -> lowest class
        train = np.array([[1.0], [-1.0]])
        labels = np.array([2, 1])
        preds = knn_predict(train, labels, np.array([[0.0]]), k=2)
        assert preds.tolist() == [1]

    def test_bad_k(self):
        with pytest.raises(ValueError):
            knn_predict(np.zeros((3, 1)), [1, 1, 2], np.zeros((1, 1)), k=4)

    @pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
    def test_matches_per_row_loop_on_random_inputs(self, k):
        rng = np.random.default_rng(k)
        for n_classes, dim in ((2, 1), (3, 2), (4, 5)):
            train = rng.normal(size=(40, dim))
            labels = rng.integers(1, n_classes + 1, size=40)
            test = rng.normal(size=(60, dim))
            np.testing.assert_array_equal(knn_predict(train, labels, test, k=k),
                                          loop_knn_predict(train, labels, test, k))

    @pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
    def test_matches_per_row_loop_on_constructed_ties(self, k):
        # Points on a small integer lattice: many equal distances (so the
        # stable order decides who is among the k nearest), vote ties
        # between classes, and equal mean distances among the tied classes.
        rng = np.random.default_rng(100 + k)
        for n_classes in (2, 3, 4):
            train = rng.integers(-2, 3, size=(30, 2)).astype(float)
            labels = rng.integers(1, n_classes + 1, size=30)
            test = rng.integers(-2, 3, size=(50, 2)).astype(float)
            got = knn_predict(train, labels, test, k=k)
            np.testing.assert_array_equal(got, loop_knn_predict(train, labels, test, k))
        # A class pair symmetric about every test point: votes and mean
        # distances tie exactly, so the lowest class wins.
        train = np.array([[1.0], [-1.0], [2.0], [-2.0], [3.0], [-3.0],
                          [4.0], [-4.0], [5.0], [-5.0]])
        labels = np.array([2, 1] * 5)
        got = knn_predict(train, labels, np.array([[0.0]]), k=k)
        np.testing.assert_array_equal(got, loop_knn_predict(train, labels,
                                                            np.array([[0.0]]), k))


def test_knn_memory_is_bounded_by_the_block():
    """At M = N = 600 and d = 10 the whole (M, N, d) difference tensor is
    28.8 MB; knn_predict holds a block of it at a time, besides a few (M, N)
    arrays, and predicts as the per-row reference does."""
    rng = np.random.default_rng(7)
    train, test = rng.normal(size=(600, 10)), rng.normal(size=(600, 10))
    labels = rng.integers(1, 3, size=600)
    tracemalloc.start()
    try:
        preds = knn_predict(train, labels, test, k=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 600 * 600 * 8 + 2 * evaluation._KNN_BLOCK_BYTES
    np.testing.assert_array_equal(preds, loop_knn_predict(train, labels, test, 5))


def loop_knn_predict(train, labels, test, k):
    """Reference kNN: one stable argsort and one vote per test row."""
    labels = np.asarray(labels, dtype=np.int64)
    dist = np.sqrt(np.maximum(
        ((test[:, None, :] - train[None, :, :]) ** 2).sum(axis=2), 0.0))
    preds = np.empty(test.shape[0], dtype=np.int64)
    for m in range(test.shape[0]):
        order = np.argsort(dist[m], kind="stable")[:k]
        neigh_labels = labels[order]
        neigh_dist = dist[m][order]
        classes, votes = np.unique(neigh_labels, return_counts=True)
        best = classes[votes == votes.max()]
        if len(best) == 1:
            preds[m] = best[0]
            continue
        means = np.array([neigh_dist[neigh_labels == c].mean() for c in best])
        close = best[means == means.min()]
        preds[m] = close.min()
    return preds


class TestMetrics:
    def test_harmonic_mean_case(self):
        # precision 0.5, sensitivity 1.0
        pred = np.array([2, 2, 1])
        truth = np.array([2, 1, 1])
        got = classification_metrics(pred, truth, positive_class=2)
        assert got.sensitivity == pytest.approx(1.0)
        assert got.f1 == pytest.approx(2.0 / 3.0)

    def test_perfect_predictions(self):
        truth = np.array([1, 2, 1, 2])
        got = classification_metrics(truth, truth, positive_class=1)
        assert (got.accuracy, got.f1, got.sensitivity, got.specificity) == (1, 1, 1, 1)

    def test_all_negative_predictions(self):
        pred = np.array([1, 1, 1, 1])
        truth = np.array([1, 1, 2, 2])
        got = classification_metrics(pred, truth, positive_class=2)
        assert got.specificity == 1.0
        assert got.sensitivity == 0.0
        assert got.f1 == 0.0

    def test_accuracy_consistency_identity(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(1, 3, size=50)
        pred = rng.integers(1, 3, size=50)
        got = classification_metrics(pred, truth, positive_class=1)
        p = (truth == 1).sum()
        n = (truth != 1).sum()
        np.testing.assert_allclose(
            got.accuracy, (got.sensitivity * p + got.specificity * n) / (p + n))

    def test_absent_positive_class(self):
        with pytest.raises(ValueError, match="absent"):
            classification_metrics(np.array([1]), np.array([1]), positive_class=2)

    def test_multiclass_accuracy_only(self):
        got = classification_metrics(np.array([1, 2, 3]), np.array([1, 2, 1]))
        assert got.accuracy == pytest.approx(2.0 / 3.0)
        assert got.f1 is None


class TestSelectK:
    def test_separable_data_picks_small_k(self):
        rng = np.random.default_rng(5)
        coords = np.vstack([rng.normal(4.0, 0.1, size=(20, 2)),
                            rng.normal(-4.0, 0.1, size=(20, 2))])
        labels = np.array([1] * 20 + [2] * 20)
        assert select_k(coords, labels, seed=0) == 1

    def test_noisy_data_prefers_larger_k(self):
        # one noisy dimension: singleton neighbors flip, local majorities don't
        rng = np.random.default_rng(6)
        labels = np.tile([1, 2], 40)
        coords = (labels[:, None] - 1.5) * 0.4 + rng.normal(size=(80, 1))
        picked = select_k(coords, labels, seed=1)
        assert picked > 1

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        coords = rng.normal(size=(30, 3))
        labels = (np.arange(30) % 2 + 1).astype(np.int64)
        assert select_k(coords, labels, seed=3) == select_k(coords, labels, seed=3)


def tiny_dataset(n=12, seed=4):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, 1, 3))
    labels = (np.arange(n) % 2 + 1).astype(np.int64)
    values[labels == 1] += 3.0
    return Dataset(values, np.ones_like(values, dtype=np.uint8), labels, 2,
                   np.arange(1, n + 1))


class TestKFold:
    def test_leave_one_out_runs(self):
        data = tiny_dataset(n=8)
        seen_sizes = []

        def pipeline(train, test):
            seen_sizes.append(test.n)
            return np.full(test.n, 1)

        result = kfold_evaluate(data, pipeline, folds=8, seed=0)
        assert seen_sizes == [1] * 8
        assert len(result.per_fold) == 8

    def test_majority_pipeline_accuracy(self):
        data = tiny_dataset(n=20)

        def majority(train, test):
            classes, counts = np.unique(train.labels, return_counts=True)
            return np.full(test.n, classes[np.argmax(counts)])

        result = kfold_evaluate(data, majority, folds=5, seed=1)
        assert abs(result.mean["accuracy"] - 0.5) < 0.2

    def test_mean_and_standard_error(self):
        data = tiny_dataset(n=9)
        fold_accs = iter([0.8, 0.9, 1.0])

        def canned(train, test):
            acc = next(fold_accs)
            wrong = round((1 - acc) * test.n)
            preds = test.labels.copy()
            preds[:wrong] = 3 - preds[:wrong]
            return preds

        result = kfold_evaluate(data, canned, folds=3, seed=2)
        # three folds of 3 series: accuracies realize exactly
        got = sorted(m.accuracy for m in result.per_fold)
        assert got == pytest.approx([2 / 3, 1.0, 1.0])

    def test_aggregation_matches_hand_computation(self):
        vals = np.array([0.8, 0.9, 1.0])
        assert vals.std(ddof=1) / np.sqrt(3) == pytest.approx(0.05773502691896258)

    def test_no_leakage_between_folds(self):
        data = tiny_dataset(n=15, seed=5)
        train_means = []

        def recorder(train, test):
            train_means.append(train.values.mean())
            return np.full(test.n, 1)

        kfold_evaluate(data, recorder, folds=5, seed=3)
        assert len(set(train_means)) == 5  # each fold sees different data

    def test_deterministic_assignment(self):
        data = tiny_dataset(n=15, seed=6)
        orders = []

        def recorder(train, test):
            orders.append(tuple(test.ids.tolist()))
            return np.full(test.n, 1)

        kfold_evaluate(data, recorder, folds=3, seed=7)
        first = list(orders)
        orders.clear()
        kfold_evaluate(data, recorder, folds=3, seed=7)
        assert orders == first

    def test_single_class_training_fold_rejected(self):
        values = np.zeros((3, 1, 2))
        data = Dataset(values, np.ones_like(values, dtype=np.uint8),
                       np.array([1, 1, 2]), 2, np.arange(1, 4))
        with pytest.raises(ValueError, match="single class"):
            kfold_evaluate(data, lambda tr, te: np.full(te.n, 1), folds=3,
                           seed=0)
