"""Kernel PCA embeddings, nearest-neighbor classification and metrics."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .ensemble import KernelMatrix


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
    centered: bool
    col_means: np.ndarray     # (N,) per-row mean of the training kernel
    grand_mean: float

    def transform(self, kernel) -> np.ndarray:
        """Embed test columns; ``kernel`` is (N_train, M)."""
        k = kernel.values if isinstance(kernel, KernelMatrix) else np.asarray(kernel)
        if self.centered:
            k = (k - k.mean(axis=0, keepdims=True)
                 - self.col_means[:, None] + self.grand_mean)
        safe = np.where(self.eigenvalues > 0, self.eigenvalues, np.inf)
        return k.T @ (self.eigvecs / np.sqrt(safe)[None, :])


def kpca(kernel, d: int = 10, center: bool = True) -> tuple[Embedding, KernelProjector]:
    """Embed a symmetric PSD-up-to-tolerance kernel into d dimensions.

    Coordinates are eigenvectors scaled by sqrt(eigenvalue); eigenvalues in
    the negative tolerance band are clamped to 0. Asking for more dimensions
    than there are nonnegative eigenvalues warns and truncates.
    """
    k = kernel.values if isinstance(kernel, KernelMatrix) else np.asarray(kernel, dtype=float)
    n = k.shape[0]
    if k.shape != (n, n):
        raise ValueError("kernel must be square")
    if d > n:
        raise ValueError("embedding dimension cannot exceed the number of series")
    col_means = k.mean(axis=1)
    grand_mean = float(k.mean())
    if center:
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
    projector = KernelProjector(eigvecs[:, :d], top, center, col_means, grand_mean)
    return Embedding(coords, top), projector


def knn_predict(train_emb, train_labels, test_emb, k: int = 1,
                exclude_self: bool = False) -> np.ndarray:
    """Majority vote among the k nearest training points (Euclidean).

    Vote ties break toward the tied class with the smallest mean neighbor
    distance, then toward the lowest class index. ``exclude_self`` masks the
    diagonal for train-on-train scoring.
    """
    x_train = train_emb.coords if isinstance(train_emb, Embedding) else np.asarray(train_emb)
    x_test = test_emb.coords if isinstance(test_emb, Embedding) else np.asarray(test_emb)
    labels = np.asarray(train_labels, dtype=np.int64)
    n_train = x_train.shape[0]
    if not (1 <= k <= n_train - (1 if exclude_self else 0)):
        raise ValueError(f"k must lie in [1, {n_train}]")
    d2 = ((x_test[:, None, :] - x_train[None, :, :]) ** 2).sum(axis=2)
    dist = np.sqrt(np.maximum(d2, 0.0))
    if exclude_self:
        if x_test.shape[0] != n_train:
            raise ValueError("exclude_self requires test set == training set")
        np.fill_diagonal(dist, np.inf)

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


def select_k(train_emb, train_labels, grid=(1, 3, 5, 7, 9), folds: int = 5,
             seed: int = 0) -> int:
    """Pick a neighbor count from a grid by cross-validating on the embedding.

    Ties on accuracy resolve toward the smaller k.
    """
    coords = train_emb.coords if isinstance(train_emb, Embedding) else np.asarray(train_emb)
    labels = np.asarray(train_labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    folds = min(folds, len(labels))
    fold_idx = _stratified_folds(labels, len(labels), folds, rng)
    best_k, best_acc = None, -1.0
    for k in grid:
        hits = total = 0
        for f in range(folds):
            test_rows = fold_idx[f]
            train_rows = np.concatenate(
                [fold_idx[g] for g in range(folds) if g != f])
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


def _stratified_folds(labels, n, folds, rng) -> list[np.ndarray]:
    """Round-robin assignment of shuffled indices, per class when labeled."""
    assignment = np.empty(n, dtype=np.int64)
    if labels is None:
        pools = [np.arange(n)]
    else:
        labels = np.asarray(labels)
        pools = [np.nonzero(labels == c)[0] for c in np.unique(labels)]
    slot = 0
    for pool in pools:
        pool = rng.permutation(pool)
        for idx in pool:
            assignment[idx] = slot % folds
            slot += 1
    return [np.nonzero(assignment == f)[0] for f in range(folds)]


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
    rng = np.random.default_rng(seed)
    fold_idx = _stratified_folds(data.labels, data.n, folds, rng)
    per_fold = []
    for f in range(folds):
        test_rows = fold_idx[f]
        train_rows = np.concatenate([fold_idx[g] for g in range(folds) if g != f])
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
