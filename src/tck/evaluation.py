"""Kernel PCA embeddings, nearest-neighbor classification and metrics."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .ensemble import KernelMatrix


# Upper bound on the coordinate differences that ``knn_predict`` holds at once.
_KNN_BLOCK_BYTES = 1 << 20


@dataclass
class Embedding:
    """Kernel PCA coordinates with their (non-increasing) eigenvalues."""

    coords: np.ndarray       # (N, d)
    eigenvalues: np.ndarray  # (d,)


@dataclass
class KernelProjector:
    """Out-of-sample embedding of kernel columns against the training fit."""

    eigvecs: np.ndarray       # (N, d)
    eigenvalues: np.ndarray   # (d,)
    col_means: np.ndarray     # (N,) per-row mean of the training kernel
    grand_mean: float

    def transform(self, kernel) -> np.ndarray:
        """Embed test columns, centred like the training kernel; ``kernel``
        is (N_train, M)."""
        k = kernel.values if isinstance(kernel, KernelMatrix) else np.asarray(kernel)
        k = (k - k.mean(axis=0, keepdims=True)
             - self.col_means[:, None] + self.grand_mean)
        safe = np.where(self.eigenvalues > 0, self.eigenvalues, np.inf)
        return k.T @ (self.eigvecs / np.sqrt(safe)[None, :])


def kpca(kernel, d: int = 10) -> tuple[Embedding, KernelProjector]:
    """Embed a symmetric PSD-up-to-tolerance kernel into d dimensions.

    Coordinates are eigenvectors of the kernel centred in feature space,
    scaled by sqrt(eigenvalue); eigenvalues in the negative tolerance band
    are clamped to 0. Asking for more dimensions than there are nonnegative
    eigenvalues warns and truncates.
    """
    k = kernel.values if isinstance(kernel, KernelMatrix) else np.asarray(kernel, dtype=float)
    n = k.shape[0]
    if k.shape != (n, n):
        raise ValueError("kernel must be square")
    if not 1 <= d <= n:
        raise ValueError(f"embedding dimension {d} must lie in 1..{n}, the "
                         f"number of series")
    col_means = k.mean(axis=1)
    grand_mean = float(k.mean())
    k = k - col_means[None, :] - col_means[:, None] + grand_mean
    k = 0.5 * (k + k.T)
    eigenvalues, eigvecs = np.linalg.eigh(k)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues, eigvecs = eigenvalues[order], eigvecs[:, order]
    band = 1e-8 * max(abs(np.trace(k)) / max(n, 1), np.finfo(float).tiny)
    nonneg = int(np.sum(eigenvalues >= -band))
    if d > nonneg:
        warnings.warn(f"only {nonneg} nonnegative eigenvalues; truncating "
                      f"embedding from {d} to {nonneg} dimensions")
        d = nonneg
    top = np.maximum(eigenvalues[:d], 0.0)
    coords = eigvecs[:, :d] * np.sqrt(top)[None, :]
    projector = KernelProjector(eigvecs[:, :d], top, col_means, grand_mean)
    return Embedding(coords, top), projector


def knn_predict(train_coords, train_labels, test_coords, k: int = 1) -> np.ndarray:
    """Majority vote among the k nearest training points (Euclidean); the
    coordinates are (N, d) and (M, d) arrays.

    Vote ties break toward the tied class with the smallest mean neighbor
    distance, then toward the lowest class index.
    """
    x_train, x_test = np.asarray(train_coords), np.asarray(test_coords)
    labels = np.asarray(train_labels, dtype=np.int64)
    n_train = x_train.shape[0]
    if not (1 <= k <= n_train):
        raise ValueError(f"k must lie in [1, {n_train}]")
    d2 = np.empty((len(x_test), n_train))
    step = max(1, _KNN_BLOCK_BYTES // max(1, 8 * x_train.size))
    for i in range(0, len(x_test), step):
        d2[i:i + step] = ((x_test[i:i + step, None] - x_train) ** 2).sum(axis=2)
    dist = np.sqrt(np.maximum(d2, 0.0))

    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    neigh_dist = np.take_along_axis(dist, order, axis=1)      # (M, k)
    classes = np.unique(labels)
    hits = labels[order][:, :, None] == classes               # (M, k, C)
    votes = hits.sum(axis=1)
    # Summed neighbour by neighbour, in distance order, as np.mean of a
    # class's few neighbour distances does, so exact ties stay exact.
    dist_sums = np.zeros(votes.shape)
    for j in range(k):
        dist_sums += np.where(hits[:, j], neigh_dist[:, j, None], 0.0)
    best = votes == votes.max(axis=1, keepdims=True)
    means = np.where(best, dist_sums / np.maximum(votes, 1), np.inf)
    close = best & (means == means.min(axis=1, keepdims=True))
    return classes[np.argmax(close, axis=1)]


@dataclass
class Metrics:
    """Classification scores; the binary ones are None for multi-class runs."""

    accuracy: float
    f1: float | None = None
    sensitivity: float | None = None
    specificity: float | None = None
    tp: int | None = None
    fp: int | None = None
    tn: int | None = None
    fn: int | None = None

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


def classification_metrics(pred, truth, positive_class=None) -> Metrics:
    """Accuracy for any label set; F1/sensitivity/specificity for binary runs.

    Binary scores are computed one-vs-rest against ``positive_class``, which
    must occur in the truth labels.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.size == 0:
        raise ValueError("pred and truth must be equal-length, nonempty")
    accuracy = float((pred == truth).mean())
    if positive_class is None:
        return Metrics(accuracy)
    if not (truth == positive_class).any():
        raise ValueError(f"positive class {positive_class} absent from truth; "
                         "sensitivity is undefined")
    pos_p, pos_t = pred == positive_class, truth == positive_class
    tp = int(np.sum(pos_p & pos_t))
    fp = int(np.sum(pos_p & ~pos_t))
    tn = int(np.sum(~pos_p & ~pos_t))
    fn = int(np.sum(~pos_p & pos_t))
    sensitivity = tp / (tp + fn)
    specificity = tn / (tn + fp) if (tn + fp) else 1.0
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    f1 = (2 * precision * sensitivity / (precision + sensitivity)
          if precision + sensitivity > 0 else 0.0)
    return Metrics(accuracy, f1, sensitivity, specificity, tp, fp, tn, fn)


def select_k(train_coords, train_labels, seed: int = 0) -> int:
    """Pick a neighbor count from {1, 3, 5, 7, 9} by 5-fold cross-validation
    on the (N, d) embedding coordinates.

    Ties on accuracy resolve toward the smaller k.
    """
    coords = np.asarray(train_coords)
    labels = np.asarray(train_labels, dtype=np.int64)
    folds = min(5, len(labels))
    splits = _stratified_folds(labels, folds, np.random.default_rng(seed))
    best_k, best_acc = None, -1.0
    for k in (1, 3, 5, 7, 9):
        hits = total = 0
        for train_rows, test_rows in splits:
            if k > len(train_rows) or len(test_rows) == 0:
                continue
            preds = knn_predict(coords[train_rows], labels[train_rows],
                                coords[test_rows], k=k)
            hits += int((preds == labels[test_rows]).sum())
            total += len(test_rows)
        acc = hits / total if total else 0.0
        if acc > best_acc:
            best_k, best_acc = k, acc
    if best_k is None:
        raise ValueError("no usable k in the grid")
    return best_k


@dataclass
class KFoldResult:
    per_fold: list
    mean: dict
    se: dict


def _stratified_folds(labels: np.ndarray, folds, rng) -> list[tuple]:
    """Each fold's (training rows, held-out rows), from a round-robin
    assignment of shuffled indices, class by class. A fold's training rows
    are the other folds' rows, concatenated in fold order."""
    assignment = np.empty(len(labels), dtype=np.int64)
    pools = [np.nonzero(labels == c)[0] for c in np.unique(labels)]
    slot = 0
    for pool in pools:
        pool = rng.permutation(pool)
        for idx in pool:
            assignment[idx] = slot % folds
            slot += 1
    held_out = [np.nonzero(assignment == f)[0] for f in range(folds)]
    return [(np.concatenate(held_out[:f] + held_out[f + 1:]), rows)
            for f, rows in enumerate(held_out)]


def kfold_evaluate(data: Dataset, pipeline, folds: int = 5, seed: int = 0,
                   positive_class=None) -> KFoldResult:
    """Cross-validate a pipeline: ``pipeline(train, test) -> predictions``.

    Folds are stratified by label where labels exist and are deterministic
    given the seed. Everything learned (standardization, ensembles, ...) must
    happen inside the pipeline, which only ever sees the training split.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if folds > data.n:
        raise ValueError("more folds than series")
    if data.labels is None:
        raise ValueError("cross-validation requires labels")
    splits = _stratified_folds(data.labels, folds, np.random.default_rng(seed))
    per_fold = []
    for f, (train_rows, test_rows) in enumerate(splits):
        train_rows.sort()
        train, test = data.take(train_rows), data.take(test_rows)
        if len(np.unique(train.labels)) < 2:
            raise ValueError(
                f"fold {f}: training split contains a single class; "
                "stratification impossible at this fold count")
        preds = pipeline(train, test)
        per_fold.append(classification_metrics(preds, test.labels, positive_class))
    keys = per_fold[0].as_dict().keys()
    mean, se = {}, {}
    for key in keys:
        vals = np.array([m.as_dict()[key] for m in per_fold], dtype=float)
        mean[key] = float(vals.mean())
        se[key] = float(vals.std(ddof=1) / np.sqrt(folds)) if folds > 1 else 0.0
    return KFoldResult(per_fold, mean, se)
