"""Randomized ensembles of mixture models and the cluster kernel they induce.

Each base model sees a random contiguous time segment, a random attribute
subset, a random subsample of series and randomly drawn prior hyperparameters,
and is fitted for one entry of a grid of component counts.  The kernel matrix
accumulates, over base models, the inner products of l2-normalized posterior
vectors; out-of-sample columns are obtained by scoring new series under the
stored per-model parameters.  One accumulator sums both: the training unit
rows against themselves, or against the test unit rows of each model.
Training and test posteriors come from one pass of a scoring plan over the
fitted models, which builds the batch's feature grid once and then yields
one model's posteriors at a time, in model order, as the accumulator adds
them. A batch of a few series is scored under all models at once instead:
its posteriors lie side by side as model segments of one array, and one
product with the training unit rows, laid out alike, gives its columns.
"""
from __future__ import annotations

import ctypes
import glob
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


# Batches of at most this many series take the small-batch path of
# ``kernel_test``; larger ones are scored model by model. Timed in pairs
# (``bench/ab.py``, 168-model ensemble, 2-vCPU VM), the small-batch path
# took 0.26x to 0.27x the per-model time for one series, 0.30x to 0.31x for
# two, 0.37x to 0.39x for four and 0.75x to 0.76x for eight, while its
# memory grows with the batch.
_SMALL_BATCH = 4


class _ScoringPlan:
    """How to score a batch of series under each base model of an ensemble.

    A batch is scored from one ``_feature_grid`` over every distinct model
    window. Each model keeps the grid columns that are the feature rows of
    its attributes and window, its weight rows and its constants. The
    plan is derived from specs and parameters, which it does not keep, so
    ensembles that share a model's parameters share the plan.

    Models are stored by feature-row length d: the columns of the k models
    of one length as one C-contiguous (k, d) array, their weight rows as
    one (sum of G, d) stack and their constants as one stack, in model
    order. ``cols[m]``, ``weights[m]`` and ``consts[m]`` are C-contiguous
    views into these stacks. ``_scores`` lays the models' score columns
    side by side in this order of lengths: ``order`` lists the models in
    it and ``starts`` gives each one's first column.
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
        for d in np.unique(width).tolist():
            models = np.flatnonzero(width == d)
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
        self.order = np.argsort(row_of)
        self.starts = row_of[self.order]

    def posteriors(self, values: np.ndarray, mask: np.ndarray):
        """Yield the (n, G) posteriors of the n series under each model, in
        model order; each is, bit for bit, the ``e_step`` of that model on
        its window of the series.

        The feature grid is built once. Per model, the score einsum reads
        C-contiguous feature rows and weight rows, and the softmax reduces
        the contiguous last axis, as ``e_step`` does for that model alone.
        """
        grid = _feature_grid(values, mask, self.windows)
        for cols, weights, consts in zip(self.cols, self.weights, self.consts):
            post = np.einsum("nd,gd->ng", grid.take(cols, axis=1), weights)
            post += consts
            _normalize_rows(post)
            yield post

    def _scores(self, grid: np.ndarray) -> np.ndarray:
        """(n, sum of G) component scores, the models' columns side by side
        in ``order``.

        Per feature-row length d, each series' (k, d) feature rows are
        repeated G times per model and contracted row by row with the
        (sum of G, d) weight stack, in one einsum.
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
        else (posteriors, their row norms)."""
        if self.transforms is None:
            return [(post, _row_norms(post)) for post in self.posteriors]
        rows = [apply_transform(tm, post)
                for tm, post in zip(self.transforms, self.posteriors)]
        return [(r / _row_norms(r)[:, None], None) for r in rows]

    @cached_property
    def _train_units(self) -> np.ndarray:
        """(N, sum of C) training unit rows of every model side by side, in
        the plan's ``order``, with C = G, or the class count if transformed.
        Built only for the small-batch path of ``kernel_test``."""
        rows = [self._train_rows[m] for m in self._plan.order.tolist()]
        return np.concatenate([u if norms is None else u / norms[:, None]
                               for u, norms in rows], axis=1)

    @cached_property
    def _transform_rows(self) -> np.ndarray:
        """(sum of G, C) transform weights of every model stacked, in the
        plan's ``order``."""
        return np.concatenate([self.transforms[m].weights
                               for m in self._plan.order.tolist()])


def _row_norms(post: np.ndarray, starts: np.ndarray | None = None) -> np.ndarray:
    """l2 norms over the last axis, by the arithmetic of ``np.linalg.norm``
    without its per-call checks, or over each segment of it that begins at
    an index of ``starts``; a zero norm is an error."""
    squares = post * post
    norms = np.sqrt(np.add.reduce(squares, axis=-1) if starts is None
                    else np.add.reduceat(squares, starts, axis=-1))
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
        empty = ~sub.mask.any(axis=(0, 2))
        if empty.any():     # named by its dataset number, not its subset position
            return "failed", (f"attribute {spec.attributes[empty.argmax()] + 1} has "
                              f"no observed entries in the subset")
        params, _ = fit_map_em(sub, spec.q2, spec.hp, spec.sub_seed,
                               mode=cfg.mode, max_iter=cfg.em_max_iter)
        return "ok", params
    except (np.linalg.LinAlgError, ValueError, FloatingPointError) as exc:
        return "failed", str(exc)


_WORKER_STATE: dict = {}


def _openblas_function(*symbols):
    """The first of ``symbols`` exported by the OpenBLAS bundled with numpy's
    wheel, or None when there is no such library or symbol."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


def _worker_init(data, cfg):
    # One BLAS thread per worker: the pool already keeps every core busy.
    set_threads = _openblas_function("scipy_openblas_set_num_threads64_",
                                     "openblas_set_num_threads")
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
    _WORKER_STATE["args"] = (data, cfg)


def _worker_fit(spec):
    return _fit_one(spec, *_WORKER_STATE["args"])


def train_ensemble(data: Dataset, cfg: EnsembleConfig,
                   n_jobs: int = 1) -> tuple[TrainedEnsemble, KernelMatrix]:
    """Fit the ensemble on standardized data and accumulate the train kernel.

    Workers only fit; this process then scores the training series under
    all fitted models in one pass. An attribute with no observed cell is
    refused before any fit. Base models that fail to fit are skipped and
    recorded; more than 10% failures aborts training before scoring.
    ``Dataset``'s bound on observed values keeps every score of a fitted
    model finite. Label transforms are attached afterwards with
    ``apply_posterior_transform``.
    """
    cfg = _resolve_counts(cfg, data)
    specs = sample_configs(cfg, data.n_attributes, data.length, ids=data.ids)
    if data.n < max(cfg.component_counts):
        raise ValueError(
            f"dataset has {data.n} series but the largest base model needs "
            f"{max(cfg.component_counts)}; shrink component_counts or add data")
    unobserved = np.flatnonzero(~data.mask.any(axis=(0, 2)))
    if unobserved.size:
        raise ValueError(f"attribute {unobserved[0] + 1} has no observed entries "
                         f"in the training data")
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
    posts = list(plan.posteriors(data.values, data.mask))
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


def _test_units(ens: TrainedEnsemble, test: Dataset):
    """Yield the (n, C) unit rows of the test series under each model, in
    model order. The batch is never split, because BLAS takes gemv for one
    series and GEMM for more, and the two differ in the last bits."""
    for m, post in enumerate(ens._plan.posteriors(test.values, test.mask)):
        if ens.transforms is not None:
            post = post @ ens.transforms[m].weights
        post /= _row_norms(post)[:, None]
        yield post


def _small_batch_columns(ens: TrainedEnsemble, test: Dataset) -> np.ndarray:
    """The (N, n) kernel columns of a small batch: the training unit rows of
    every model side by side (``_train_units``) times the batch's unit rows,
    laid out alike.

    Scoring takes one gather and one einsum per feature-row length
    (``_scores``), which lays the models' scores side by side in the plan's
    ``order``. The softmax, the transform (through each model's rows of
    ``_transform_rows``) and the norms then run on all model segments at
    once, by ``reduceat`` over the plan's ``starts``. The repeated (n, sum
    of G, d) feature rows make this a path for small batches. One product
    sums over all models at once, so the columns equal those that
    ``_accumulate`` sums model by model to rounding, not in their last bits.
    """
    plan = ens._plan
    units = plan._scores(_feature_grid(test.values, test.mask, plan.windows))
    widths = plan.q2[plan.order]
    peak = np.maximum.reduceat(units, plan.starts, axis=1)
    finite = np.isfinite(peak)
    if not finite.all():
        raise ValueError(f"posterior underflow for series index "
                         f"{np.argwhere(~finite)[0, 0]}")
    units -= np.repeat(peak, widths, axis=1)
    np.exp(units, out=units)
    units /= np.repeat(np.add.reduceat(units, plan.starts, axis=1), widths, axis=1)
    if ens.transforms is None:
        units /= np.repeat(_row_norms(units, plan.starts), widths, axis=1)
    else:
        units = np.add.reduceat(units[:, :, None] * ens._transform_rows,
                                plan.starts, axis=1)
        units /= _row_norms(units)[..., None]
    return ens._train_units @ units.reshape(test.n, -1).T


def kernel_test(ens: TrainedEnsemble, test: Dataset) -> KernelMatrix:
    """Kernel columns between training series and new series.

    The test data must be preprocessed with the training statistics and share
    the training schema. Failed base models are skipped, matching training.

    A batch of more than ``_SMALL_BATCH`` series is scored one model at a
    time and fed, in model order, to the accumulator of the train kernel,
    so its numpy calls grow with the model count while it holds one
    model's posteriors at a time; its columns have the bits of scoring the
    batch one model at a time. A smaller batch is scored in a few calls
    per feature-row length and multiplied in one product
    (``_small_batch_columns``), at the cost of memory that grows with the
    batch; its columns equal the per-model ones to rtol 1e-12. Either way
    a column is bit-identical from call to call for the same batch.
    """
    if test.n_attributes != ens.n_attributes or test.length != ens.length:
        raise ValueError(
            f"test schema (V={test.n_attributes}, T={test.length}) does not match "
            f"training schema (V={ens.n_attributes}, T={ens.length})")
    if 0 < test.n <= _SMALL_BATCH and ens.model_count:
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
    JSON object, lacks a key, has an unknown config or hp key or a value of the
    wrong type, when a model's
    attributes, window or component count do not fit the manifest's series
    shape, when an array's size or dtype disagrees with what the manifest's
    model specs imply, or when an older tck wrote the directory (one JSON
    file per base model, or a manifest that still carries posterior
    offsets).
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
    except TypeError as exc:
        raise ValueError(f"{path}: a value has the wrong type: {exc}") from None


def _check_model(path: str, i: int, m: dict, v_dim: int, t_dim: int) -> None:
    """ValueError naming the manifest and model ``i`` unless the model's
    spec can score series of ``v_dim`` attributes and length ``t_dim``."""
    a, t_start, t_stop, q2 = m["attributes"], m["t_start"], m["t_stop"], m["q2"]
    if not (isinstance(a, list) and a and all(type(x) is int for x in a)
            and 0 <= a[0] and all(x < y for x, y in zip(a, a[1:]))
            and a[-1] < v_dim):
        raise ValueError(f"{path}: model {i}: attributes {a!r} are not strictly "
                         f"increasing indices in 0..{v_dim - 1}")
    if not (type(t_start) is int and type(t_stop) is int
            and 0 <= t_start < t_stop <= t_dim):
        raise ValueError(f"{path}: model {i}: window [{t_start!r}, {t_stop!r}) "
                         f"is not a nonempty segment of 0..{t_dim}")
    if not (type(q2) is int and q2 >= 1):
        raise ValueError(f"{path}: model {i}: q2={q2!r} is not an integer >= 1")


def _ensemble_from_manifest(directory, path: str, manifest: dict) -> TrainedEnsemble:
    cfg_dict = dict(manifest["config"])
    unknown = sorted(set(cfg_dict) - {f.name for f in fields(EnsembleConfig)})
    if unknown:
        raise ValueError(f"{path}: unknown config key {unknown[0]!r}")
    if cfg_dict.get("component_counts") is not None:
        cfg_dict["component_counts"] = tuple(cfg_dict["component_counts"])
    cfg = EnsembleConfig(**cfg_dict)
    models = manifest["models"]
    for i, m in enumerate(models):
        _check_model(path, i, m, manifest["n_attributes"], manifest["length"])
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
    hp_keys = [f.name for f in fields(HyperParams)]
    for i, m in enumerate(models):
        unknown = sorted(set(m["hp"]) - set(hp_keys)) if isinstance(m["hp"], dict) else []
        if unknown:     # a missing key raises KeyError below, naming it
            raise ValueError(f"{path}: model {i}: unknown hp key {unknown[0]!r}")
        specs.append(BaseModelSpec(m["q1"], m["q2"],
                                   HyperParams(*(m["hp"][k] for k in hp_keys)),
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
