import numpy as np
import pytest

from tck.data import labels_to_onehot
from tck.mixture import GAUSSIAN_ONLY, MixtureParams
from tck.transform import (apply_transform, semisupervised_transform,
                           supervised_transform, TransformMatrix)

from em_reference import symmetric_kl


def gaussian_line_params(means, sigma2=1.0):
    """1x1-grid components placed at the given means."""
    g = len(means)
    return MixtureParams(GAUSSIAN_ONLY, np.full(g, 1.0 / g),
                         np.asarray(means, dtype=float).reshape(g, 1, 1),
                         np.full((g, 1), sigma2), None)


class TestSupervised:
    def test_aligned_one_hot_posteriors_give_identity(self):
        post = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        labels = labels_to_onehot(np.array([1, 2, 1]), 2)
        tm = supervised_transform(post, labels)
        np.testing.assert_allclose(tm.weights, np.eye(2))

    def test_uniform_posteriors_give_uniform_rows(self):
        post = np.full((6, 4), 0.25)
        labels = labels_to_onehot(np.array([1, 1, 2, 2, 3, 3]), 3)
        tm = supervised_transform(post, labels)
        np.testing.assert_allclose(tm.weights, 1.0 / 3.0)

    def test_hand_worked_class_counts(self):
        post = np.array([[0.9, 0.1], [0.2, 0.8], [0.3, 0.7]])
        labels = labels_to_onehot(np.array([1, 2, 2]), 2)
        tm = supervised_transform(post, labels)
        np.testing.assert_allclose(tm.row_evidence, [1.15, 0.85], atol=1e-12)
        np.testing.assert_allclose(
            tm.weights,
            [[0.9 / 1.15, 0.25 / 1.15], [0.1 / 0.85, 0.75 / 0.85]], atol=1e-12)

    def test_empty_class_rejected(self):
        post = np.array([[0.5, 0.5], [0.5, 0.5]])
        labels = labels_to_onehot(np.array([1, 1]), 2)
        with pytest.raises(ValueError, match="class 2"):
            supervised_transform(post, labels)

    def test_partial_labels_rejected(self):
        post = np.array([[0.5, 0.5], [0.5, 0.5]])
        labels = labels_to_onehot(np.array([1, 0]), 2)
        with pytest.raises(ValueError, match="every series"):
            supervised_transform(post, labels)

    def test_duplicating_labeled_series_changes_nothing(self):
        rng = np.random.default_rng(0)
        post = rng.dirichlet(np.ones(4), size=10)
        labels = np.array([1, 2, 1, 2, 1, 2, 1, 2, 1, 2])
        tm = supervised_transform(post, labels_to_onehot(labels, 2))
        doubled = supervised_transform(np.vstack([post, post]),
                                       labels_to_onehot(np.tile(labels, 2), 2))
        np.testing.assert_allclose(doubled.weights, tm.weights, atol=1e-12)


class TestSemisupervised:
    def test_all_anchored_equals_supervised_on_labeled(self):
        rng = np.random.default_rng(1)
        post = rng.dirichlet(np.ones(3), size=8)
        labels = np.array([1, 2, 1, 2, 1, 2, 1, 2])
        params = gaussian_line_params([0.0, 1.0, 2.0])
        semi = semisupervised_transform(post, labels_to_onehot(labels, 2),
                                        params, h=1e-6)
        sup = supervised_transform(post, labels_to_onehot(labels, 2))
        np.testing.assert_array_equal(semi.weights, sup.weights)

    def test_zero_responsibility_clone_copies_its_twin(self):
        # component 2 never fires for labeled series and equals component 1
        post = np.array([[1.0, 0.0], [1.0, 0.0]])
        labels = labels_to_onehot(np.array([1, 2]), 2)
        params = gaussian_line_params([0.0, 0.0])
        tm = semisupervised_transform(post, labels, params, h=0.1)
        np.testing.assert_array_equal(tm.weights[1], tm.weights[0])

    def test_nearest_anchor_in_divergence(self):
        # anchors at means 0 and 10; the orphan at 2 copies the near anchor
        post = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        labels = labels_to_onehot(np.array([1, 2]), 2)
        params = gaussian_line_params([0.0, 2.0, 10.0])
        tm = semisupervised_transform(post, labels, params, h=0.1)
        np.testing.assert_array_equal(tm.weights[1], tm.weights[0])
        assert not np.array_equal(tm.weights[1], tm.weights[2])

    def test_no_anchor_is_an_error(self):
        post = np.full((2, 3), 1.0 / 3.0)
        labels = labels_to_onehot(np.array([1, 0]), 1)
        params = gaussian_line_params([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="no anchored"):
            semisupervised_transform(post * 1e-3, labels, params, h=0.9)

    def test_rows_are_own_estimate_or_anchor_copy(self):
        rng = np.random.default_rng(2)
        post = rng.dirichlet(np.ones(5), size=12)
        labeled = np.array([1, 2] + [0] * 10)
        params = gaussian_line_params(rng.normal(size=5))
        onehot = labels_to_onehot(labeled, 2)
        tm = semisupervised_transform(post, onehot, params, h=0.1)
        raw = post.T @ onehot / onehot.sum(axis=0)
        for k in range(5):
            own = raw[k].sum() >= 0.1 and np.allclose(
                tm.weights[k], raw[k] / raw[k].sum())
            copied = any(np.array_equal(tm.weights[k], tm.weights[a])
                         for a in np.nonzero(raw.sum(axis=1) >= 0.1)[0])
            assert own or copied

    def test_matches_per_pair_anchoring(self):
        # Components 1 and 4 are clones, so a starved component's divergences
        # to them tie exactly and the lower index must win, as before.
        rng = np.random.default_rng(3)
        for h in (0.2, 0.3, 0.4):
            params = random_gaussian_params(rng, 8, 2, 6)
            params.mu[4], params.sigma2[4] = params.mu[1], params.sigma2[1]
            post = rng.dirichlet(np.full(8, 0.3), size=20)
            onehot = labels_to_onehot(np.array([1, 2, 3, 1] + [0] * 16), 3)
            got = semisupervised_transform(post, onehot, params, h)
            want = per_pair_semisupervised(post, onehot, params, h)
            np.testing.assert_array_equal(got.weights, want.weights)
            np.testing.assert_array_equal(got.row_evidence, want.row_evidence)

    def test_bad_threshold(self):
        post = np.full((2, 2), 0.5)
        labels = labels_to_onehot(np.array([1, 2]), 2)
        params = gaussian_line_params([0.0, 1.0])
        with pytest.raises(ValueError, match="threshold"):
            semisupervised_transform(post, labels, params, h=1.5)


class TestApply:
    def test_identity_matrix_keeps_posterior(self):
        tm = TransformMatrix(np.eye(3), np.ones(3))
        pi = np.array([0.2, 0.3, 0.5])
        np.testing.assert_array_equal(apply_transform(tm, pi), pi)

    def test_uniform_rows_flatten_everything(self):
        tm = TransformMatrix(np.full((3, 2), 0.5), np.ones(3))
        np.testing.assert_allclose(apply_transform(tm, np.array([0.9, 0.05, 0.05])),
                                   [0.5, 0.5])

    def test_component_mass_pools_by_row(self):
        weights = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        tm = TransformMatrix(weights, np.ones(3))
        out = apply_transform(tm, np.array([0.2, 0.3, 0.5]))
        np.testing.assert_allclose(out, [0.7, 0.3])

    def test_simplex_preserved_for_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g, c = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            weights = rng.dirichlet(np.ones(c), size=g)
            tm = TransformMatrix(weights, weights.sum(axis=1))
            pi = rng.dirichlet(np.ones(g))
            out = apply_transform(tm, pi)
            assert (out >= -1e-15).all()
            assert abs(out.sum() - 1.0) < 1e-10

    def test_matrix_of_posteriors(self):
        rng = np.random.default_rng(4)
        weights = rng.dirichlet(np.ones(2), size=4)
        tm = TransformMatrix(weights, weights.sum(axis=1))
        post = rng.dirichlet(np.ones(4), size=6)
        out = apply_transform(tm, post)
        assert out.shape == (6, 2)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-10)

    def test_dimension_mismatch(self):
        tm = TransformMatrix(np.eye(3), np.ones(3))
        with pytest.raises(ValueError):
            apply_transform(tm, np.array([0.5, 0.5]))


def random_gaussian_params(rng, g, v, t):
    return MixtureParams(GAUSSIAN_ONLY, rng.dirichlet(np.ones(g)),
                         rng.normal(size=(g, v, t)),
                         rng.uniform(0.5, 2.0, size=(g, v)), None)


def per_pair_semisupervised(post, onehot, params, h):
    """Reference anchoring: one symmetric_kl call per (starved, anchored) pair."""
    raw = post.T @ onehot / onehot.sum(axis=0)[None, :]
    sums = raw.sum(axis=1)
    anchored = np.nonzero(sums >= h)[0]
    for k in np.nonzero(sums < h)[0]:
        divergences = [symmetric_kl(params, k, int(l)) for l in anchored]
        raw[k] = raw[anchored[int(np.argmin(divergences))]]
    sums = raw.sum(axis=1)
    return TransformMatrix(raw / sums[:, None], sums)
