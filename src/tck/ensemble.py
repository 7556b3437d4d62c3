"""Randomized ensembles of mixture models and the cluster kernel they induce.

Each base model sees a random contiguous time segment, a random attribute
subset, a random subsample of series and randomly drawn prior hyperparameters,
and is fitted for one entry of a grid of component counts.  The kernel matrix
accumulates, over base models, the inner products of l2-normalized posterior
vectors; out-of-sample columns are obtained by scoring new series under the
stored per-model parameters.  Training and test kernels read one per-model
scoring state, derived once per ensemble.
"""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, asdict
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .mixture import (HyperParams, MixtureParams, fit_map_em, GAUSSIAN_ONLY,
                      MIXED_MODE, _component_weights, _feature_rows,
                      _masked_arrays, _normalize_rows, _score_rows)
from .transform import TransformMatrix, apply_transform


@dataclass
class EnsembleConfig:
    """Randomization ranges for the ensemble.

    ``None`` bounds are resolved against the dataset at training time:
    component_counts -> {base, ..., base + 20} with base = max(2, n_classes),
    t_max -> T, v_min -> 2 (1 when V = 1), v_max -> V, n_min -> ceil(0.8 N).
    """

    n_init: int = 30                      # random restarts per component count
    component_counts: tuple | None = None
    t_min: int = 6
    t_max: int | None = None
    v_min: int | None = None
    v_max: int | None = None
    n_min: int | None = None
    a0_range: tuple = (0.001, 1.0)
    b0_range: tuple = (0.05, 0.8)
    n0_range: tuple = (0.001, 0.2)
    seed: int = 0
    mode: str = GAUSSIAN_ONLY
    normalize_by_models: bool = False
    em_max_iter: int = 30
    em_tol: float = 1e-6


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

    @property
    def shape(self):
        return self.values.shape


@dataclass
class _ModelScorer:
    """Scores series under one base model.

    The component weight rows and constants of ``params`` are built on the
    first call and kept; ensembles that share a model's parameters share its
    scorer.
    """

    spec: BaseModelSpec
    params: MixtureParams
    _weights: tuple | None = None

    def posteriors(self, x0: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Rows for the series of masked (N, V, T) grids x0, r: bit for bit the
        ``e_step`` of their restriction to the model's window."""
        if self._weights is None:
            self._weights = _component_weights(self.params)
        a, w = self.spec.attributes, slice(self.spec.t_start, self.spec.t_stop)
        return _normalize_rows(_score_rows(_feature_rows(x0[:, a, w], r[:, a, w]),
                                           *self._weights))


class _TrainRows(NamedTuple):
    """One model's side of the kernel inside an ensemble."""

    transform: np.ndarray | None   # (G, n_classes) transform weights
    post: np.ndarray               # training posteriors, transformed
    norms: np.ndarray              # (N,) l2 norms of their rows

    def unit(self) -> np.ndarray:
        return self.post / self.norms[:, None]


@dataclass
class TrainedEnsemble:
    """Per-model specs, fitted parameters and training posteriors."""

    config: EnsembleConfig
    n_series: int
    n_attributes: int
    length: int
    specs: list                                   # successful BaseModelSpec
    params: list                                  # MixtureParams per success
    posteriors: list                              # (N, q2) raw responsibilities
    transforms: list | None = None                # TransformMatrix per success
    failed: list = field(default_factory=list)    # (q1, q2, reason)
    # Scoring state derived on first use from the fields above, which are
    # therefore not to change once the ensemble is used; never persisted.
    _scorers: list | None = field(default=None, init=False, repr=False,
                                  compare=False)
    _train_rows: list | None = field(default=None, init=False, repr=False,
                                     compare=False)

    @property
    def model_count(self) -> int:
        return len(self.specs)

    def _model_scorers(self) -> list:
        if self._scorers is None:
            self._scorers = [_ModelScorer(spec, params)
                             for spec, params in zip(self.specs, self.params)]
        return self._scorers

    def _model_train_rows(self) -> list:
        if self._train_rows is None:
            rows = []
            for i, post in enumerate(self.posteriors):
                weights = None
                if self.transforms is not None:
                    weights = self.transforms[i].weights
                    post = apply_transform(self.transforms[i], post)
                rows.append(_TrainRows(weights, post, _row_norms(post)))
            self._train_rows = rows
        return self._train_rows


def _row_norms(post: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(post, axis=1)
    if (norms == 0).any():
        raise ValueError("posterior row with zero norm")
    return norms


def _unit_rows(post: np.ndarray) -> np.ndarray:
    return post / _row_norms(post)[:, None]


def sample_configs(cfg: EnsembleConfig, n: int, v: int, t: int,
                   ids=None) -> list[BaseModelSpec]:
    """Draw one BaseModelSpec per (restart, component count) pair.

    Each pair gets its own RNG stream keyed by (seed, q1, q2), so the list is
    deterministic and independent of iteration order.  When series ids are
    supplied, subsampling is keyed by sorted id rather than by position.
    """
    counts = cfg.component_counts
    if counts is None:
        raise ValueError("component_counts must be resolved before sampling")
    t_min = cfg.t_min
    if t < t_min:
        raise ValueError(
            f"series length {t} is shorter than t_min={t_min}; lower t_min")
    t_max = min(cfg.t_max if cfg.t_max is not None else t, t)
    v_min = cfg.v_min if cfg.v_min is not None else (2 if v >= 2 else 1)
    v_max = min(cfg.v_max if cfg.v_max is not None else v, v)
    n_min = cfg.n_min if cfg.n_min is not None else math.ceil(0.8 * n)
    if not (1 <= t_min <= t_max <= t):
        raise ValueError("segment bounds must satisfy 1 <= t_min <= t_max <= T")
    if not (1 <= v_min <= v_max <= v):
        raise ValueError("attribute bounds must satisfy 1 <= v_min <= v_max <= V")
    if not (1 <= n_min <= n):
        raise ValueError("subsample bound must satisfy 1 <= n_min <= N")
    sorted_ids = np.sort(np.asarray(ids)) if ids is not None else np.arange(n)

    specs = []
    for q1 in range(1, cfg.n_init + 1):
        for q2 in counts:
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, q1, q2)))
            hp = HyperParams(rng.uniform(*cfg.a0_range),
                             rng.uniform(*cfg.b0_range),
                             rng.uniform(*cfg.n0_range))
            seg_len = int(rng.integers(t_min, t_max + 1))
            t_start = int(rng.integers(0, t - seg_len + 1))
            v_count = int(rng.integers(v_min, v_max + 1))
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
    counts = tuple(range(base, base + 21))
    return EnsembleConfig(**{**asdict_config(cfg), "component_counts": counts})


def asdict_config(cfg: EnsembleConfig) -> dict:
    d = asdict(cfg)
    if d["component_counts"] is not None:
        d["component_counts"] = tuple(int(c) for c in d["component_counts"])
    return d


def _fit_one(spec: BaseModelSpec, data: Dataset, cfg: EnsembleConfig,
             row_of_id: dict) -> tuple:
    """Fit one base model and score every series of the full dataset.

    Returns ("ok", (params, posteriors)), or ("failed", reason) when the fit
    fails; the serial loop and the pool workers both go through here.
    """
    try:
        rows = np.array([row_of_id[i] for i in spec.subsample_ids])
        window = (spec.t_start, spec.t_stop)
        sub = data.take(rows).restrict(attributes=spec.attributes, time=window)
        params, _ = fit_map_em(sub, spec.q2, spec.hp, spec.sub_seed,
                               mode=cfg.mode, max_iter=cfg.em_max_iter,
                               tol=cfg.em_tol)
        return "ok", (params, _ModelScorer(spec, params).posteriors(
            *_masked_arrays(data.values, data.mask)))
    except (np.linalg.LinAlgError, ValueError, FloatingPointError) as exc:
        return "failed", str(exc)


_WORKER_STATE: dict = {}


def _worker_init(data, cfg, row_of_id):
    _WORKER_STATE["args"] = (data, cfg, row_of_id)


def _worker_fit(spec):
    return _fit_one(spec, *_WORKER_STATE["args"])


def train_ensemble(data: Dataset, cfg: EnsembleConfig,
                   n_jobs: int = 1) -> tuple[TrainedEnsemble, KernelMatrix]:
    """Fit the ensemble on standardized data and accumulate the train kernel.

    Base models that fail to fit are skipped and recorded; more than 10%
    failures aborts training. Label transforms are attached afterwards with
    ``apply_posterior_transform``.
    """
    cfg = _resolve_counts(cfg, data)
    if data.n < max(cfg.component_counts):
        raise ValueError(
            f"dataset has {data.n} series but the largest base model needs "
            f"{max(cfg.component_counts)}; shrink component_counts or add data")
    specs = sample_configs(cfg, data.n, data.n_attributes, data.length,
                           ids=data.ids)
    row_of_id = {int(i): r for r, i in enumerate(data.ids)}

    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs, initializer=_worker_init,
                                 initargs=(data, cfg, row_of_id)) as pool:
            outcomes = list(pool.map(_worker_fit, specs, chunksize=8))
    else:
        outcomes = [_fit_one(spec, data, cfg, row_of_id) for spec in specs]

    kept_specs, kept_params, kept_posts, failed = [], [], [], []
    for spec, (status, payload) in zip(specs, outcomes):
        if status == "ok":
            params, post = payload
            kept_specs.append(spec)
            kept_params.append(params)
            kept_posts.append(post)
        else:
            failed.append((spec.q1, spec.q2, payload))
    if len(failed) > 0.1 * len(specs):
        raise RuntimeError(
            f"{len(failed)} of {len(specs)} base models failed; first failure: "
            f"{failed[0]}")

    ens = TrainedEnsemble(cfg, data.n, data.n_attributes, data.length,
                          kept_specs, kept_params, kept_posts, failed=failed)
    return ens, _train_kernel(ens)


def _train_kernel(ens: TrainedEnsemble) -> KernelMatrix:
    total = np.zeros((ens.n_series, ens.n_series))
    for rows in ens._model_train_rows():
        unit = rows.unit()
        gram = unit @ unit.T
        np.fill_diagonal(gram, 1.0)     # self-similarity is 1 by definition
        total += 0.5 * (gram + gram.T)  # exact symmetry
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
    transforms = [transform_factory(post, params)
                  for post, params in zip(ens.posteriors, ens.params)]
    out = TrainedEnsemble(ens.config, ens.n_series, ens.n_attributes,
                          ens.length, ens.specs, ens.params, ens.posteriors,
                          transforms, ens.failed)
    out._scorers = ens._model_scorers()
    return out, _train_kernel(out)


def kernel_test(ens: TrainedEnsemble, test: Dataset) -> KernelMatrix:
    """Kernel columns between training series and new series.

    The test data must be preprocessed with the training statistics and share
    the training schema. Failed base models are skipped, matching training.
    """
    if test.n_attributes != ens.n_attributes or test.length != ens.length:
        raise ValueError(
            f"test schema (V={test.n_attributes}, T={test.length}) does not match "
            f"training schema (V={ens.n_attributes}, T={ens.length})")
    total = np.zeros((ens.n_series, test.n))
    if test.n:
        x0, r = _masked_arrays(test.values, test.mask)
        for scorer, rows in zip(ens._model_scorers(), ens._model_train_rows()):
            post = scorer.posteriors(x0, r)
            if rows.transform is not None:
                post = post @ rows.transform
            total += rows.unit() @ _unit_rows(post).T
    if ens.config.normalize_by_models and ens.model_count:
        total /= ens.model_count
    return KernelMatrix(total, ens.model_count)


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
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "n,m,model_count":
            raise ValueError(f"{path}: expected kernel header 'n,m,model_count'")
        n, m, count = (int(x) for x in fh.readline().split(","))
        values = np.array([[float(x) for x in fh.readline().split(",")]
                           for _ in range(n)])
    if values.shape != (n, m):
        raise ValueError(f"{path}: kernel shape mismatch")
    return KernelMatrix(values, count)


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
      q2, hp, window, attributes, subsample size, seeds), the posterior
      offsets and the failed models;
    * ``params.npy``: theta | mu | sigma2 | beta (mixed mode only) of every
      model, raveled and concatenated in model order;
    * ``subsamples.npy``: every model's subsample ids, concatenated;
    * ``transforms.npy``: weights | row_evidence per model, only when the
      ensemble carries transforms;
    * ``posteriors.npy``: the (N, sum of q2) training posteriors side by side.

    Each model's array shapes follow from its spec, so the flat files need no
    offsets of their own.
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
            "seed": params.seed,
        } for spec, params in zip(ens.specs, ens.params)],
        "posterior_offsets": np.cumsum(
            [0] + [p.shape[1] for p in ens.posteriors]).tolist(),
        "has_transforms": ens.transforms is not None,
        "transform_classes": (ens.transforms[0].weights.shape[1]
                              if ens.transforms else None),
        "failed": [[q1, q2, reason] for q1, q2, reason in ens.failed],
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)


def _load_array(directory, name: str, shape: tuple) -> np.ndarray:
    """np.load of one ensemble file, which must have the manifest's shape."""
    path = os.path.join(directory, name)
    try:
        array = np.load(path)
    except FileNotFoundError:
        raise ValueError(f"{path} is missing; the ensemble directory is "
                         f"incomplete") from None
    except ValueError as exc:           # truncated or not an .npy file
        raise ValueError(f"{path}: {exc}") from exc
    if array.shape != shape:
        raise ValueError(f"{path}: manifest.json implies shape {shape}, "
                         f"found {array.shape}")
    return array


def _load_parts(directory, name: str, shapes: list):
    """Iterator over consecutive reshaped views of one flat ensemble file,
    one per shape; the file must hold exactly their total size."""
    flat = _load_array(directory, name, (sum(math.prod(s) for s in shapes),))
    parts, pos = [], 0
    for shape in shapes:
        size = math.prod(shape)
        parts.append(flat[pos:pos + size].reshape(shape))
        pos += size
    return iter(parts)


def load_ensemble(directory) -> TrainedEnsemble:
    """Read a directory written by ``save_ensemble``.

    Raises ValueError when a file is missing, when the manifest lacks a key
    or has an unknown config key, when an array's size disagrees with the
    sizes the manifest's model specs imply, or when the directory was written
    in the older one-JSON-file-per-model layout.
    """
    path = os.path.join(directory, "manifest.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{path} is missing; not an ensemble directory") from None
    if "model_files" in manifest:
        raise ValueError(f"{directory} was saved by an older tck (one JSON file "
                         f"per base model) and cannot be read; retrain it")
    try:
        return _ensemble_from_manifest(directory, path, manifest)
    except KeyError as exc:
        raise ValueError(f"{path} has no {exc} key") from None


def _ensemble_from_manifest(directory, path: str, manifest: dict) -> TrainedEnsemble:
    cfg_dict = dict(manifest["config"])
    unknown = sorted(set(cfg_dict) - {f.name for f in fields(EnsembleConfig)})
    if unknown:
        raise ValueError(f"{path}: unknown config key {unknown[0]!r}")
    for key in ("component_counts", "a0_range", "b0_range", "n0_range"):
        if cfg_dict.get(key) is not None:
            cfg_dict[key] = tuple(cfg_dict[key])
    cfg = EnsembleConfig(**cfg_dict)
    models = manifest["models"]
    offsets = manifest["posterior_offsets"]
    expected = np.cumsum([0] + [m["q2"] for m in models]).tolist()
    if offsets != expected:
        raise ValueError(f"{path}: posterior_offsets {offsets} disagree with "
                         f"the models' component counts, which give {expected}")
    stacked = _load_array(directory, "posteriors.npy",
                          (manifest["n_series"], offsets[-1]))
    params = _load_parts(directory, "params.npy", [
        s for m in models for s in _param_shapes(
            m["q2"], len(m["attributes"]), m["t_stop"] - m["t_start"], cfg.mode)])
    ids = _load_parts(directory, "subsamples.npy",
                      [(m["n_subsample"],) for m in models])
    transforms = None
    if manifest["has_transforms"]:
        parts = _load_parts(directory, "transforms.npy", [
            s for m in models
            for s in ((m["q2"], manifest["transform_classes"]), (m["q2"],))])
        transforms = [TransformMatrix(next(parts), next(parts)) for _ in models]

    specs, fitted = [], []
    for m in models:
        spec = BaseModelSpec(m["q1"], m["q2"], HyperParams(**m["hp"]),
                             m["t_start"], m["t_stop"],
                             np.asarray(m["attributes"]), next(ids), m["sub_seed"])
        theta, mu, sigma2 = next(params), next(params), next(params)
        beta = next(params) if cfg.mode == MIXED_MODE else None
        specs.append(spec)
        fitted.append(MixtureParams(cfg.mode, theta, mu, sigma2, beta,
                                    seed=m["seed"], hp=spec.hp))
    posts = [stacked[:, a:b] for a, b in zip(offsets, offsets[1:])]
    return TrainedEnsemble(cfg, manifest["n_series"], manifest["n_attributes"],
                           manifest["length"], specs, fitted, posts, transforms,
                           [tuple(f) for f in manifest["failed"]])
