"""Randomized ensembles of mixture models and the cluster kernel they induce.

Each base model sees a random contiguous time segment, a random attribute
subset, a random subsample of series and randomly drawn prior hyperparameters,
and is fitted for one entry of a grid of component counts.  The kernel matrix
accumulates, over base models, the inner products of l2-normalized posterior
vectors; out-of-sample columns are obtained by scoring new series under the
stored per-model parameters.  One accumulator sums both: the training unit
rows against themselves, or against the test unit rows of each model.
Training and test posteriors come from one blocked pass of a scoring plan
over the fitted models, which scores a batch of series under a block of
models and runs the softmax once per count. A batch of a few series is
scored under all models at once instead, in a few array calls per
feature-row length and per component count.
"""
from __future__ import annotations

import io
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, asdict, replace
from functools import cached_property

import numpy as np

from .data import Dataset
from .mixture import (HyperParams, MixtureParams, fit_map_em, GAUSSIAN_ONLY,
                      MIXED_MODE, _component_weights, _feature_grid,
                      _normalize_rows)
from .transform import TransformMatrix, apply_transform


# Ranges of the prior hyperparameters a0, b0 and n0 drawn for each base model.
A0_RANGE = (0.001, 1.0)
B0_RANGE = (0.05, 0.8)
N0_RANGE = (0.001, 0.2)


@dataclass
class EnsembleConfig:
    """What a caller chooses of the ensemble; ``sample_configs`` draws the
    rest of each base model from fixed rules.

    ``component_counts=None`` resolves against the dataset at training time
    to {base, ..., base + 20} with base = max(2, n_classes). ``t_min`` is the
    shortest time segment a base model sees, ``em_max_iter`` the most EM
    sweeps of one fit.
    """

    n_init: int = 30                      # random restarts per component count
    component_counts: tuple | None = None
    t_min: int = 6
    seed: int = 0
    mode: str = GAUSSIAN_ONLY
    normalize_by_models: bool = False
    em_max_iter: int = 30


@dataclass
class BaseModelSpec:
    """One base model's sampled configuration."""

    q1: int                    # restart index, 1-based
    q2: int                    # number of mixture components
    hp: HyperParams
    t_start: int               # segment [t_start, t_stop), 0-based
    t_stop: int
    attributes: np.ndarray     # 0-based attribute indices, sorted
    subsample_ids: np.ndarray  # series ids used for fitting
    sub_seed: int              # seed of the model's own RNG stream


@dataclass
class KernelMatrix:
    """Accumulated similarity matrix and the number of contributing models."""

    values: np.ndarray
    model_count: int


# Upper bound on the score buffers (and so on the test unit rows) that a
# scoring pass keeps for one block of consecutive base models, and on the
# buffer of kernel products that the small-batch path folds at once.
_BLOCK_BYTES = 1 << 20

# Batches of at most this many series take the small-batch path of
# ``kernel_test``; larger ones score block by block, model by model. Timed
# in pairs on a 168-model ensemble, the small-batch path took 0.60x the
# per-model time for one series, 0.68x for two, 0.74x to 0.78x for four and
# 0.95x to 1.20x for eight, while its memory grows with the batch.
_SMALL_BATCH = 4


def _groups(keys: np.ndarray):
    """(key, indices of the key in ascending order) per distinct key, keys
    in ascending order."""
    order = np.argsort(keys, kind="stable")
    values, starts = np.unique(keys[order], return_index=True)
    return zip(values.tolist(), np.split(order, starts[1:]))


class _ScoringPlan:
    """How to score a batch of series under each base model of an ensemble.

    A batch is scored from one ``_feature_grid`` over every distinct model
    window. Each model keeps the grid columns that are its ``_features``
    on its attributes and window, its weight rows and its constants. The
    plan is derived from specs and parameters, which it does not keep, so
    ensembles that share a model's parameters share the plan.

    Models are stored by feature-row length d: the columns of the k models
    of one length as one C-contiguous (k, d) array, their weight rows as
    one (sum of G, d) stack and their constants as one stack, in model
    order. ``cols[m]``, ``weights[m]`` and ``consts[m]`` are C-contiguous
    views into these stacks. ``by_count`` lists, per component count G in
    ascending order, the models with G components in model order.
    """

    def __init__(self, specs: list, params: list, n_attributes: int,
                 length: int):
        self.q2 = np.array([s.q2 for s in specs], dtype=np.int64)
        self.windows = sorted({(s.t_start, s.t_stop) for s in specs})
        window_col = {w: i for i, w in enumerate(self.windows)}
        v_dim, t_dim, n_win = n_attributes, length, len(self.windows)
        q2, n_models = self.q2.tolist(), len(specs)
        self.cols, self.weights = [None] * n_models, [None] * n_models
        self.by_width = []          # (models, (k, d) columns, weight rows, rows)
        self.const_rows = np.empty(sum(q2))
        row_of = np.zeros(n_models, dtype=np.int64)      # first score row of m
        row = 0
        width = np.array([2 * len(s.attributes) * (s.t_stop - s.t_start + 1)
                          for s in specs], dtype=np.int64)
        for d, models in _groups(width):
            col_stack = np.empty((len(models), d), dtype=np.int64)
            weight_stack = np.empty((int(self.q2[models].sum()), d))
            start = 0
            for j, m in enumerate(models.tolist()):
                s, stop = specs[m], start + q2[m]
                a = s.attributes
                cells = (a[:, None] * t_dim + np.arange(s.t_start, s.t_stop)).ravel()
                sums = 2 * v_dim * t_dim + a * n_win + window_col[s.t_start, s.t_stop]
                self.cols[m] = np.concatenate([cells, v_dim * t_dim + cells, sums,
                                               sums + v_dim * n_win], out=col_stack[j])
                self.weights[m] = weight_stack[start:stop]
                _, self.const_rows[row + start:row + stop] = _component_weights(
                    params[m], out=self.weights[m])
                row_of[m] = row + start
                start = stop
            self.by_width.append((models, col_stack, weight_stack,
                                  slice(row, row + start)))
            row += start
        self.consts = [self.const_rows[r:r + g] for r, g in zip(row_of.tolist(), q2)]
        self.by_count = []          # (G, models, (k, G) score rows)
        self.count_slots = [None] * n_models        # (G, j): m is model j of G
        for g, models in _groups(self.q2):
            self.by_count.append((g, models, row_of[models][:, None] + np.arange(g)))
            for j, m in enumerate(models.tolist()):
                self.count_slots[m] = (g, j)
        # count_rank[m, i]: how many models before m have the i-th count
        counts = np.array([g for g, _, _ in self.by_count], dtype=np.int64)
        self.count_rank = np.zeros((n_models + 1, len(counts)), dtype=np.int64)
        np.cumsum(self.q2[:, None] == counts, axis=0, out=self.count_rank[1:])

    def block_posteriors(self, values: np.ndarray, mask: np.ndarray):
        """Yield (models, post) for each component-count group of each block
        of consecutive models, blocks in model order: ``post`` holds the
        (k, n, G) posteriors of the n series under the k models whose
        indices are ``models``, and slab j is, bit for bit, the ``e_step`` of
        model ``models[j]`` on its window of the series. A block is the
        longest run of models whose (n, G) score buffers hold at most
        ``_BLOCK_BYTES`` together, or a single model.

        Each score einsum reads C-contiguous feature rows and writes one
        C-contiguous slab, and the softmax reduces the contiguous last axis,
        so a slab carries the bits that ``_log_component_scores`` and
        ``_normalize_rows`` give for that model alone.
        """
        grid = _feature_grid(values, mask, self.windows)
        ends = np.cumsum(self.q2) * (8 * len(grid))     # bytes through each model
        start = 0
        while start < len(ends):
            before = ends[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, before + _BLOCK_BYTES,
                                                      side="right")))
            q2 = self.q2[start:stop]
            for g in np.unique(q2):
                models = start + np.flatnonzero(q2 == g)
                post = np.empty((len(models), len(grid), g))
                for slab, m in zip(post, models):  # as in _log_component_scores
                    np.einsum("nd,gd->ng", grid.take(self.cols[m], axis=1),
                              self.weights[m], out=slab)
                post += np.array([self.consts[m] for m in models])[:, None, :]
                _normalize_rows(post)
                yield models, post
            start = stop

    def count_posteriors(self, values: np.ndarray, mask: np.ndarray):
        """Yield (models, post) once per component count G, over all models:
        ``post`` holds the (k, n, G) posteriors of the n series under the k
        models with G components, with the bits of ``block_posteriors``.

        Scoring takes one gather and one einsum per feature-row length d
        (``_scores``); the softmax then runs once per count. The repeated
        (n, sum of G, d) feature rows make this a path for small batches.
        """
        scores = self._scores(_feature_grid(values, mask, self.windows))
        for _, models, rows in self.by_count:
            post = np.ascontiguousarray(scores.take(rows, axis=1).transpose(1, 0, 2))
            _normalize_rows(post)
            yield models, post

    def _scores(self, grid: np.ndarray) -> np.ndarray:
        """(n, sum of G) component scores, models ordered by d.

        Each series' (k, d) feature rows are repeated G times per model and
        contracted row by row with the (sum of G, d) weight stack. The sums
        have the bits of the per-model einsum only while both operands are
        C-contiguous with the contracted axis last: then einsum sums each
        row's d products in one contiguous inner loop, in the same order.
        ``np.repeat`` writes the repeated rows C-contiguous, and so are the
        weight stacks. A column-major operand, which a gather through an
        index array that is not C-contiguous can give, makes the einsum
        return other last bits.
        """
        scores = np.empty((len(grid), len(self.const_rows)))
        for models, cols, weights, rows in self.by_width:
            feats = np.repeat(grid.take(cols, axis=1), self.q2[models], axis=1)
            np.einsum("nrd,rd->nr", feats, weights, out=scores[:, rows])
        scores += self.const_rows
        return scores


@dataclass
class TrainedEnsemble:
    """Per-model specs, fitted parameters and training posteriors.

    The scoring plan (handed over by ``train_ensemble`` or built on first
    use) and the training rows are cached, never persisted, so the fields
    must not change once the ensemble is used."""

    config: EnsembleConfig
    n_series: int
    n_attributes: int
    length: int
    specs: list                                   # successful BaseModelSpec
    params: list                                  # MixtureParams per success
    posteriors: list                              # (N, q2) raw responsibilities
    transforms: list | None = None                # TransformMatrix per success
    failed: list = field(default_factory=list)    # (q1, q2, reason)

    @property
    def model_count(self) -> int:
        return len(self.specs)

    @cached_property
    def _plan(self) -> _ScoringPlan:
        return _ScoringPlan(self.specs, self.params, self.n_attributes,
                            self.length)

    @cached_property
    def _train_rows(self) -> list:
        """Each model's side of the kernel: (unit rows, None) if transformed,
        a view into ``_unit_stacks``, else (posteriors, their row norms)."""
        if self.transforms is None:
            return [(post, _row_norms(post)) for post in self.posteriors]
        return [(self._unit_stacks[g][j], None) for g, j in self._plan.count_slots]

    @cached_property
    def _unit_stacks(self) -> dict:
        """{G: (k, N, C) training unit rows of the k models with G
        components, in model order}, with C = G, or the class count if
        transformed. Slab j has the bits of that model's rows divided by
        their norms, as ``_accumulate`` divides them.
        An untransformed ensemble builds them only for the small-batch
        path of ``kernel_test``."""
        stacks = {}
        for g, models, _ in self._plan.by_count:
            width = (g if self.transforms is None
                     else self.transforms[models[0]].weights.shape[1])
            stacks[g] = np.empty((len(models), self.n_series, width))
            for slab, m in zip(stacks[g], models):
                rows = self.posteriors[m]
                if self.transforms is not None:
                    rows = apply_transform(self.transforms[m], rows)
                np.divide(rows, _row_norms(rows)[:, None], out=slab)
        return stacks

    @cached_property
    def _transform_stacks(self) -> dict:
        """{G: (k, G, C) transform weights of the k models with G
        components, in model order}."""
        return {g: np.array([self.transforms[m].weights for m in models])
                for g, models, _ in self._plan.by_count}


def _row_norms(post: np.ndarray) -> np.ndarray:
    """l2 norms over the last axis; a zero norm is an error."""
    norms = np.linalg.norm(post, axis=-1)
    if (norms == 0).any():
        raise ValueError("posterior row with zero norm")
    return norms


def sample_configs(cfg: EnsembleConfig, v: int, t: int,
                   ids) -> list[BaseModelSpec]:
    """Draw one BaseModelSpec per (restart, component count) pair.

    Each pair gets its own RNG stream keyed by (seed, q1, q2), so the list is
    deterministic and independent of iteration order. From it a model draws,
    in this order and uniformly: a0, b0 and n0 from ``A0_RANGE``,
    ``B0_RANGE`` and ``N0_RANGE``; a segment length in t_min..T and its
    start; min(2, V)..V attributes; a subsample of ceil(0.8 N)..N of the
    N = len(ids) series ids, keyed by the sorted ids, not by position; and
    the seed of its own fit. A config that gives no base model or a model
    without components, a t_min outside 1..T, and V = 0 or N = 0 fail here,
    before any fit.
    """
    counts = cfg.component_counts
    if counts is None:
        raise ValueError("component_counts must be resolved before sampling")
    if cfg.n_init < 1:
        raise ValueError(f"n_init must be at least 1, got {cfg.n_init}")
    if not counts or min(counts) < 1:
        raise ValueError(f"component_counts must be a nonempty list of counts "
                         f">= 1, got {tuple(counts)}")
    sorted_ids = np.sort(np.asarray(ids))
    n, t_min = len(sorted_ids), cfg.t_min
    if t_min < 1:
        raise ValueError(f"t_min must be at least 1, got {t_min}")
    if t < t_min:
        raise ValueError(
            f"series length {t} is shorter than t_min={t_min}; lower t_min")
    if v < 1 or n < 1:
        raise ValueError(f"base models need at least one attribute and one "
                         f"series, got V={v} and N={n}")
    v_min, n_min = min(2, v), math.ceil(0.8 * n)

    specs = []
    for q1 in range(1, cfg.n_init + 1):
        for q2 in counts:
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, q1, q2)))
            hp = HyperParams(rng.uniform(*A0_RANGE), rng.uniform(*B0_RANGE),
                             rng.uniform(*N0_RANGE))
            seg_len = int(rng.integers(t_min, t + 1))
            t_start = int(rng.integers(0, t - seg_len + 1))
            v_count = int(rng.integers(v_min, v + 1))
            attributes = np.sort(rng.choice(v, size=v_count, replace=False))
            n_sub = int(rng.integers(n_min, n + 1))
            subsample = np.sort(rng.choice(sorted_ids, size=n_sub, replace=False))
            sub_seed = int(rng.integers(0, 2**63))
            specs.append(BaseModelSpec(q1, int(q2), hp, t_start,
                                       t_start + seg_len, attributes,
                                       subsample, sub_seed))
    return specs


def _resolve_counts(cfg: EnsembleConfig, data: Dataset) -> EnsembleConfig:
    if cfg.component_counts is not None:
        return cfg
    base = max(2, data.n_classes)
    return replace(cfg, component_counts=tuple(range(base, base + 21)))


def asdict_config(cfg: EnsembleConfig) -> dict:
    d = asdict(cfg)
    if d["component_counts"] is not None:
        d["component_counts"] = tuple(int(c) for c in d["component_counts"])
    return d


def _fit_one(spec: BaseModelSpec, data: Dataset, cfg: EnsembleConfig) -> tuple:
    """Fit one base model on its subsample, attributes and window.

    Returns ("ok", params), or ("failed", reason) when the fit fails; the
    serial loop and the pool workers both go through here.
    """
    try:
        # rows in the order of the sorted subsample ids, whatever the data order
        order = np.argsort(data.ids)
        rows = order[np.searchsorted(data.ids, spec.subsample_ids, sorter=order)]
        cells = (slice(None), spec.attributes, slice(spec.t_start, spec.t_stop))
        sub = Dataset(data.values[rows][cells], data.mask[rows][cells], None,
                      data.n_classes, spec.subsample_ids)
        params, _ = fit_map_em(sub, spec.q2, spec.hp, spec.sub_seed,
                               mode=cfg.mode, max_iter=cfg.em_max_iter)
        return "ok", params
    except (np.linalg.LinAlgError, ValueError, FloatingPointError) as exc:
        return "failed", str(exc)


_WORKER_STATE: dict = {}


def _worker_init(data, cfg):
    _WORKER_STATE["args"] = (data, cfg)


def _worker_fit(spec):
    return _fit_one(spec, *_WORKER_STATE["args"])


def train_ensemble(data: Dataset, cfg: EnsembleConfig,
                   n_jobs: int = 1) -> tuple[TrainedEnsemble, KernelMatrix]:
    """Fit the ensemble on standardized data and accumulate the train kernel.

    Workers only fit; this process then scores the training series under
    all fitted models in one blocked pass. Base models that fail to fit are
    skipped and recorded; more than 10% failures aborts training before
    scoring. ``Dataset``'s bound on observed values keeps every score of a
    fitted model finite. Label transforms are attached afterwards with
    ``apply_posterior_transform``.
    """
    cfg = _resolve_counts(cfg, data)
    specs = sample_configs(cfg, data.n_attributes, data.length, ids=data.ids)
    if data.n < max(cfg.component_counts):
        raise ValueError(
            f"dataset has {data.n} series but the largest base model needs "
            f"{max(cfg.component_counts)}; shrink component_counts or add data")
    if n_jobs > 1:      # forked workers, whatever the platform default
        with ProcessPoolExecutor(max_workers=n_jobs, initializer=_worker_init,
                                 initargs=(data, cfg),
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            outcomes = list(pool.map(_worker_fit, specs, chunksize=8))
    else:
        outcomes = [_fit_one(spec, data, cfg) for spec in specs]

    failed = [(spec.q1, spec.q2, reason)
              for spec, (status, reason) in zip(specs, outcomes) if status == "failed"]
    if len(failed) > 0.1 * len(specs):
        raise RuntimeError(
            f"{len(failed)} of {len(specs)} base models failed; first failure: "
            f"{failed[0]}")

    fit_specs = [spec for spec, (status, _) in zip(specs, outcomes) if status == "ok"]
    fit_params = [params for status, params in outcomes if status == "ok"]
    plan = _ScoringPlan(fit_specs, fit_params, data.n_attributes, data.length)
    posts = [None] * len(fit_specs)
    for models, post in plan.block_posteriors(data.values, data.mask):
        for m, slab in zip(models, post):
            posts[m] = slab
    ens = TrainedEnsemble(cfg, data.n, data.n_attributes, data.length,
                          fit_specs, fit_params, posts, failed=failed)
    ens._plan = plan
    return ens, _accumulate(ens, ens.n_series)


def _accumulate(ens: TrainedEnsemble, n: int, columns=None) -> KernelMatrix:
    """The (N, n) kernel: over models in order, the sum of each model's
    training unit rows times the unit rows that ``columns`` yields for it.

    Without ``columns`` this is the train kernel: each model adds ``u @ u.T``,
    which BLAS (syrk) returns exactly symmetric, and the diagonal, a
    self-similarity of 1 per model, is set to the model count at the end.
    """
    total = np.zeros((ens.n_series, n))
    if n:                   # an empty batch has no columns to score
        for rows, norms in ens._train_rows:
            unit = rows if norms is None else rows / norms[:, None]
            total += unit @ (unit if columns is None else next(columns)).T
    if columns is None:
        np.fill_diagonal(total, ens.model_count)
    return _kernel_matrix(ens, total)


def _kernel_matrix(ens: TrainedEnsemble, total: np.ndarray) -> KernelMatrix:
    if ens.config.normalize_by_models and ens.model_count:
        total /= ens.model_count
    return KernelMatrix(total, ens.model_count)


def apply_posterior_transform(ens: TrainedEnsemble,
                              transform_factory) -> tuple[TrainedEnsemble, KernelMatrix]:
    """Attach per-model label transforms to a fitted ensemble and re-derive
    its kernel, without fitting again.

    ``transform_factory`` is called per base model with that model's training
    posteriors and parameters and returns a TransformMatrix; posteriors are
    mapped through it before normalization, in the training and test kernels.
    """
    out = replace(ens, transforms=[transform_factory(post, params) for post, params
                                   in zip(ens.posteriors, ens.params)])
    out._plan = ens._plan
    return out, _accumulate(out, out.n_series)


def _test_unit_rows(ens: TrainedEnsemble, models: np.ndarray,
                    post: np.ndarray) -> np.ndarray:
    """The (k, n, C) unit rows of the (k, n, G) test posteriors ``post`` of
    the models ``models``, consecutive among the models with G components:
    mapped through their transforms, if any, and divided by their norms."""
    if ens.transforms is not None:
        g, j = ens._plan.count_slots[models[0]]
        post = post @ ens._transform_stacks[g][j:j + len(models)]
    post /= _row_norms(post)[:, :, None]
    return post


def _test_units(ens: TrainedEnsemble, test: Dataset):
    """Yield the (n, G) unit rows of the test series under each model, in
    model order.

    Models are scored in blocks of consecutive models. In a block the
    softmax, transform and norms run once per component count; per model
    there remain the feature gather and the score einsum. The batch itself
    is never split, because BLAS takes gemv for one series and GEMM for
    more, and the two differ in the last bits.
    """
    units, done = {}, 0
    for models, post in ens._plan.block_posteriors(test.values, test.mask):
        units.update(zip(models.tolist(), _test_unit_rows(ens, models, post)))
        while done in units:
            yield units.pop(done)
            done += 1


def _small_batch_columns(ens: TrainedEnsemble, test: Dataset) -> np.ndarray:
    """The (N, n) kernel columns of a small batch, with the bits of
    ``_accumulate`` over ``_test_units``.

    Scoring runs once per feature-row length and the softmax, transform,
    norms and products once per component count, on (k, n, G) stacks. Each
    product ``train[j] @ test[j].T`` of a stacked matmul is the same BLAS
    call, on the same strides, as the per-model product. The products of a
    run of consecutive models, computed count by count, are put in model
    order into a buffer of at most ``_BLOCK_BYTES``, behind the running
    total in its first row; one reduction over the first axis then adds
    them in that order, as ``total += product`` model by model would.
    """
    plan, stacks = ens._plan, ens._unit_stacks
    units = {g: _test_unit_rows(ens, models, post) for (g, _, _), (models, post)
             in zip(plan.by_count, plan.count_posteriors(test.values, test.mask))}
    total = np.zeros((ens.n_series, test.n))
    per = max(1, _BLOCK_BYTES // max(total.nbytes, 1) - 1)   # products per buffer
    buf = np.empty((min(per, ens.model_count) + 1,) + total.shape)
    products = np.empty_like(buf[1:])
    for start in range(0, ens.model_count, per):
        stop = min(start + per, ens.model_count)
        done, order = 0, []
        for (g, models, _), a, b in zip(plan.by_count, plan.count_rank[start].tolist(),
                                        plan.count_rank[stop].tolist()):
            if a < b:
                np.matmul(stacks[g][a:b], units[g][a:b].transpose(0, 2, 1),
                          out=products[done:done + b - a])
                order.append(models[a:b])
                done += b - a
        buf[0] = total
        np.take(products[:done], np.argsort(np.concatenate(order)), axis=0,
                out=buf[1:done + 1], mode="clip")
        np.add.reduce(buf[:done + 1], axis=0, out=total)
    return total


def kernel_test(ens: TrainedEnsemble, test: Dataset) -> KernelMatrix:
    """Kernel columns between training series and new series.

    The test data must be preprocessed with the training statistics and share
    the training schema. Failed base models are skipped, matching training.

    A batch of more than ``_SMALL_BATCH`` series is scored block by block
    and fed, model by model, to the accumulator of the train kernel, so its
    numpy calls grow with the model count and its memory with the block. A
    smaller batch is scored in a few calls per feature-row length and per
    component count (``_small_batch_columns``), at the cost of memory that
    grows with the batch. Both paths give every column the bits of scoring
    the batch one model at a time: each score einsum and each product
    reads C-contiguous operands laid out as the per-model call reads them,
    and the products are summed in model order.
    """
    if test.n_attributes != ens.n_attributes or test.length != ens.length:
        raise ValueError(
            f"test schema (V={test.n_attributes}, T={test.length}) does not match "
            f"training schema (V={ens.n_attributes}, T={ens.length})")
    if 0 < test.n <= _SMALL_BATCH:
        return _kernel_matrix(ens, _small_batch_columns(ens, test))
    return _accumulate(ens, test.n, _test_units(ens, test))


# ------------------------------------------------------------
# Persistence
# ------------------------------------------------------------

def save_kernel(km: KernelMatrix, path) -> None:
    """Dense CSV: a header line, a dims line (n, m, model_count), then rows."""
    n, m = km.values.shape
    with open(path, "w") as fh:
        fh.write("n,m,model_count\n")
        fh.write(f"{n},{m},{km.model_count}\n")
        for row in km.values:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def load_kernel(path) -> KernelMatrix:
    """Read a file written by ``save_kernel``, of any shape.

    Raises ValueError naming the path, and the line where it is known, when
    a header line is wrong, when the file ends inside a row, when it holds
    more or fewer rows than it declares, or when a row is not m numbers.
    """
    with open(path) as fh:
        header, dims, body = fh.readline(), fh.readline(), fh.read()
    if header.strip() != "n,m,model_count":
        raise ValueError(f"{path}: expected kernel header 'n,m,model_count'")
    try:
        n, m, count = (int(x) for x in dims.split(","))
    except ValueError:
        raise ValueError(f"{path}:2: expected three integers n,m,model_count, "
                         f"found {dims.strip()!r}") from None
    if min(n, m, count) < 0:
        raise ValueError(f"{path}:2: negative kernel dimension in {dims.strip()!r}")
    rows = body.count("\n")
    if body and not body.endswith("\n"):
        raise ValueError(f"{path}:{rows + 3}: truncated kernel row")
    if rows != n:
        raise ValueError(f"{path}: declares {n} kernel rows, holds {rows}")
    if n == 0 or m == 0:
        if body.strip():
            raise ValueError(f"{path}: declares an empty {n} x {m} kernel, "
                             f"holds values")
        return KernelMatrix(np.zeros((n, m)), count)
    try:
        values = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2,
                            comments=None)
    except ValueError:
        values = None
    if values is None or values.shape != (n, m):
        raise _kernel_row_error(path, body.split("\n")[:n], m)
    return KernelMatrix(values, count)


def _kernel_row_error(path, lines: list, m: int) -> ValueError:
    """The error for the first of a kernel's row lines that is not m numbers."""
    for ln_no, line in enumerate(lines, start=3):
        fields = line.split(",")
        if len(fields) != m:
            return ValueError(f"{path}:{ln_no}: expected {m} kernel values, "
                              f"found {len(fields)}")
        try:
            list(map(float, fields))
        except ValueError:
            return ValueError(f"{path}:{ln_no}: malformed kernel row")
    return ValueError(f"{path}: kernel rows are not {len(lines)} rows of {m} "
                      f"numbers")


def _param_shapes(q2: int, v: int, t: int, mode: str) -> list:
    """Shapes of theta, mu, sigma2 and (mixed mode only) beta of one model."""
    shapes = [(q2,), (q2, v, t), (q2, v)]
    if mode == MIXED_MODE:
        shapes.append((q2, v, t))
    return shapes


def _flat(parts, dtype) -> np.ndarray:
    """The parts raveled and concatenated in order, as one 1-D array."""
    if not parts:
        return np.zeros(0, dtype)
    return np.concatenate([np.ravel(p) for p in parts]).astype(dtype, copy=False)


def save_ensemble(ens: TrainedEnsemble, directory) -> None:
    """Write the ensemble as a fixed set of files, whatever its model count.

    * ``manifest.json``: config, dimensions, each model's spec scalars (q1,
      q2, hp, window, attributes, subsample size and sub_seed), whether
      and with how many classes the ensemble carries transforms, and the
      failed models;
    * ``params.npy``: theta | mu | sigma2 | beta (mixed mode only) of every
      model, raveled and concatenated in model order;
    * ``subsamples.npy``: every model's subsample ids, concatenated;
    * ``transforms.npy``: weights | row_evidence per model, only when the
      ensemble carries transforms;
    * ``posteriors.npy``: the (N, sum of q2) training posteriors side by side.

    Each model's array shapes follow from its spec, so neither the flat files
    nor the posteriors need offsets of their own.
    """
    os.makedirs(directory, exist_ok=True)
    arrays = {
        "params.npy": _flat([a for p in ens.params
                             for a in (p.theta, p.mu, p.sigma2, p.beta)
                             if a is not None], np.float64),
        "subsamples.npy": _flat([s.subsample_ids for s in ens.specs], np.int64),
    }
    if ens.transforms is not None:
        arrays["transforms.npy"] = _flat(
            [a for tm in ens.transforms for a in (tm.weights, tm.row_evidence)],
            np.float64)
    arrays["posteriors.npy"] = (np.concatenate(ens.posteriors, axis=1)
                                if ens.posteriors else np.zeros((ens.n_series, 0)))
    for name, array in arrays.items():
        np.save(os.path.join(directory, name), array)
    manifest = {
        "config": asdict_config(ens.config),
        "n_series": ens.n_series,
        "n_attributes": ens.n_attributes,
        "length": ens.length,
        "models": [{
            "q1": spec.q1, "q2": spec.q2,
            "hp": {"a0": spec.hp.a0, "b0": spec.hp.b0, "n0": spec.hp.n0},
            "t_start": spec.t_start, "t_stop": spec.t_stop,
            "attributes": [int(a) for a in spec.attributes],
            "n_subsample": len(spec.subsample_ids),
            "sub_seed": spec.sub_seed,
        } for spec in ens.specs],
        "has_transforms": ens.transforms is not None,
        "transform_classes": (ens.transforms[0].weights.shape[1]
                              if ens.transforms else None),
        "failed": [[q1, q2, reason] for q1, q2, reason in ens.failed],
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)


def _load_array(directory, name: str, shape: tuple,
                dtype=np.float64) -> np.ndarray:
    """np.load of one saved array file, which must have the shape and dtype
    that the manifest.json beside it implies."""
    path = os.path.join(directory, name)
    try:
        array = np.load(path)
    except FileNotFoundError:
        raise ValueError(f"{path} is missing; {directory} is incomplete or "
                         f"was written by an older tck; retrain it") from None
    except (ValueError, EOFError) as exc:   # truncated or not an .npy file
        raise ValueError(f"{path}: {exc}") from None
    if array.shape != shape or array.dtype != dtype:
        raise ValueError(f"{path}: manifest.json implies shape {shape} and "
                         f"dtype {np.dtype(dtype)}, found {array.dtype} "
                         f"{array.shape}")
    return array


def _load_parts(directory, name: str, shapes: list, dtype=np.float64):
    """Iterator over consecutive reshaped views of one flat ensemble file,
    one per shape; the file must hold exactly their total size."""
    flat = _load_array(directory, name, (sum(math.prod(s) for s in shapes),),
                       dtype)
    parts, pos = [], 0
    for shape in shapes:
        size = math.prod(shape)
        parts.append(flat[pos:pos + size].reshape(shape))
        pos += size
    return iter(parts)


def _load_json_object(path) -> dict:
    """The JSON object that the file at ``path`` holds; ValueError naming
    the file when it is not valid JSON or holds another JSON value."""
    with open(path) as fh:
        try:
            value = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path} must hold a JSON object; found "
                         f"{type(value).__name__}")
    return value


def load_ensemble(directory) -> TrainedEnsemble:
    """Read a directory written by ``save_ensemble``.

    Raises ValueError when a file is missing, when the manifest is not a
    JSON object, lacks a key or has an unknown config key, when an array's
    size or dtype disagrees with what the manifest's model specs imply, or
    when an older tck wrote the directory (one JSON file per base model, or
    a manifest that still carries posterior offsets).
    """
    path = os.path.join(directory, "manifest.json")
    try:
        manifest = _load_json_object(path)
    except FileNotFoundError:
        raise ValueError(f"{path} is missing; not an ensemble directory") from None
    if "model_files" in manifest or "posterior_offsets" in manifest:
        raise ValueError(f"{path} was written by an older tck and cannot be "
                         f"read; retrain it")
    try:
        return _ensemble_from_manifest(directory, path, manifest)
    except KeyError as exc:
        raise ValueError(f"{path} has no {exc} key") from None


def _ensemble_from_manifest(directory, path: str, manifest: dict) -> TrainedEnsemble:
    cfg_dict = dict(manifest["config"])
    unknown = sorted(set(cfg_dict) - {f.name for f in fields(EnsembleConfig)})
    if unknown:
        raise ValueError(f"{path}: unknown config key {unknown[0]!r}")
    if cfg_dict.get("component_counts") is not None:
        cfg_dict["component_counts"] = tuple(cfg_dict["component_counts"])
    cfg = EnsembleConfig(**cfg_dict)
    models = manifest["models"]
    offsets = np.cumsum([0] + [m["q2"] for m in models]).tolist()
    stacked = _load_array(directory, "posteriors.npy",
                          (manifest["n_series"], offsets[-1]))
    params = _load_parts(directory, "params.npy", [
        s for m in models for s in _param_shapes(
            m["q2"], len(m["attributes"]), m["t_stop"] - m["t_start"], cfg.mode)])
    ids = _load_parts(directory, "subsamples.npy",
                      [(m["n_subsample"],) for m in models], np.int64)
    transforms = None
    if manifest["has_transforms"]:
        parts = _load_parts(directory, "transforms.npy", [
            s for m in models
            for s in ((m["q2"], manifest["transform_classes"]), (m["q2"],))])
        transforms = [TransformMatrix(next(parts), next(parts)) for _ in models]

    specs, fitted = [], []
    for m in models:
        specs.append(BaseModelSpec(m["q1"], m["q2"], HyperParams(**m["hp"]),
                                   m["t_start"], m["t_stop"],
                                   np.asarray(m["attributes"]), next(ids),
                                   m["sub_seed"]))
        theta, mu, sigma2 = next(params), next(params), next(params)
        beta = next(params) if cfg.mode == MIXED_MODE else None
        fitted.append(MixtureParams(cfg.mode, theta, mu, sigma2, beta))
    posts = [stacked[:, a:b] for a, b in zip(offsets, offsets[1:])]
    return TrainedEnsemble(cfg, manifest["n_series"], manifest["n_attributes"],
                           manifest["length"], specs, fitted, posts, transforms,
                           [tuple(f) for f in manifest["failed"]])
