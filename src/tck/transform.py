"""Linear maps from mixture-component posteriors to class posteriors.

A transform is a row-stochastic matrix W with one row per mixture component
and one column per class; applying it pools component responsibilities into
class probabilities.  W is learned from labeled series, either from a fully
labeled set or from a partially labeled one where label-starved components
borrow the row of their nearest labeled component (symmetrized KL between
the component Gaussians).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixture import MixtureParams, _symmetric_kls


@dataclass
class TransformMatrix:
    """Row-stochastic component-to-class map plus anchoring diagnostics."""

    weights: np.ndarray        # (G, n_classes), rows sum to 1
    row_evidence: np.ndarray   # (G,) unnormalized row sums before normalization


def _class_evidence(post: np.ndarray, labels_onehot: np.ndarray) -> np.ndarray:
    """Unnormalized W: class-count-normalized responsibility mass per class."""
    post = np.asarray(post, dtype=float)
    labels_onehot = np.asarray(labels_onehot, dtype=float)
    if post.shape[0] != labels_onehot.shape[0]:
        raise ValueError("posteriors and labels must cover the same series")
    n_classes = labels_onehot.shape[1]
    if post.shape[1] < n_classes:
        raise ValueError("need at least as many components as classes")
    counts = labels_onehot.sum(axis=0)                     # (n_classes,)
    empty = np.nonzero(counts == 0)[0]
    if empty.size:
        raise ValueError(f"class {empty[0] + 1} has no labeled members")
    return post.T @ labels_onehot / counts[None, :]


def _normalize(raw: np.ndarray) -> TransformMatrix:
    sums = raw.sum(axis=1)
    if (sums <= 0).any():
        bad = int(np.nonzero(sums <= 0)[0][0])
        raise ValueError(f"component {bad + 1} accumulated no class evidence")
    return TransformMatrix(raw / sums[:, None], sums)


def supervised_transform(post: np.ndarray, labels_onehot: np.ndarray) -> TransformMatrix:
    """Learn W from a fully labeled set of posteriors.

    Every row of ``labels_onehot`` must be a one-hot vector; each class needs
    at least one member.
    """
    labels_onehot = np.asarray(labels_onehot, dtype=float)
    if not np.allclose(labels_onehot.sum(axis=1), 1.0):
        raise ValueError("supervised transform requires every series to be labeled")
    return _normalize(_class_evidence(post, labels_onehot))


def semisupervised_transform(post: np.ndarray, labels_onehot: np.ndarray,
                             params: MixtureParams, h: float = 0.1) -> TransformMatrix:
    """Learn W from partial labels (zero rows in ``labels_onehot`` = unlabeled).

    Components whose unnormalized row sum falls below the threshold ``h`` copy
    the row of the nearest anchored component, nearest in symmetrized KL
    between the component Gaussians; ties break toward the lowest component
    index.
    """
    if not (0.0 < h < 1.0):
        raise ValueError("threshold h must lie in (0, 1)")
    raw = _class_evidence(post, labels_onehot)
    sums = raw.sum(axis=1)
    anchored = np.nonzero(sums >= h)[0]
    if anchored.size == 0:
        raise ValueError("no anchored components: every row sum is below h")
    for k in np.nonzero(sums < h)[0]:
        nearest = anchored[int(np.argmin(_symmetric_kls(params, k, anchored)))]
        raw[k] = raw[nearest]
    return _normalize(raw)


def apply_transform(tm: TransformMatrix, post: np.ndarray) -> np.ndarray:
    """Map component posteriors (vector or row-matrix) to class posteriors."""
    post = np.asarray(post, dtype=float)
    if post.shape[-1] != tm.weights.shape[0]:
        raise ValueError("posterior dimension does not match the transform")
    return post @ tm.weights


def make_supervised_factory(labels_onehot: np.ndarray):
    """Per-base-model factory: (posteriors, params) -> TransformMatrix."""
    def factory(post, params):
        return supervised_transform(post, labels_onehot)
    return factory


def make_semisupervised_factory(labels_onehot: np.ndarray, h: float = 0.1):
    """Per-base-model factory using partial labels and KL anchoring."""
    def factory(post, params):
        return semisupervised_transform(post, labels_onehot, params, h)
    return factory
