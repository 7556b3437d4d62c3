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
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .mixture import (HyperParams, MixtureParams, fit_map_em, params_from_record,
                      params_to_record, GAUSSIAN_ONLY, _component_weights,
                      _feature_rows, _masked_arrays, _normalize_rows, _score_rows)
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

    def training_posterior(self, i: int) -> np.ndarray:
        """Posteriors of model i, transformed when a transform is attached."""
        post = self.posteriors[i]
        if self.transforms is not None and self.transforms[i] is not None:
            return apply_transform(self.transforms[i], post)
        return post

    def _model_scorers(self) -> list:
        if self._scorers is None:
            self._scorers = [_ModelScorer(spec, params)
                             for spec, params in zip(self.specs, self.params)]
        return self._scorers

    def _model_train_rows(self) -> list:
        if self._train_rows is None:
            rows = []
            for i in range(self.model_count):
                tm = None if self.transforms is None else self.transforms[i]
                post = self.training_posterior(i)
                rows.append(_TrainRows(None if tm is None else tm.weights, post,
                                       _row_norms(post)))
            self._train_rows = rows
        return self._train_rows


def cosine(post_a: np.ndarray, post_b: np.ndarray) -> float:
    """Inner product of the l2-normalized vectors; in [0, 1] for posteriors."""
    a = np.asarray(post_a, dtype=float)
    b = np.asarray(post_b, dtype=float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine of a zero vector is undefined")
    return float(a @ b / (na * nb))


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


def _fit_one(data: Dataset, spec: BaseModelSpec, cfg: EnsembleConfig,
             row_of_id: dict) -> tuple[MixtureParams, np.ndarray]:
    """Fit one base model and score every series of the full dataset."""
    rows = np.array([row_of_id[i] for i in spec.subsample_ids])
    window = (spec.t_start, spec.t_stop)
    sub = data.take(rows).restrict(attributes=spec.attributes, time=window)
    params, _ = fit_map_em(sub, spec.q2, spec.hp, spec.sub_seed, mode=cfg.mode,
                           max_iter=cfg.em_max_iter, tol=cfg.em_tol)
    return params, _ModelScorer(spec, params).posteriors(
        *_masked_arrays(data.values, data.mask))


_WORKER_STATE: dict = {}


def _worker_init(data, cfg, row_of_id):
    _WORKER_STATE["args"] = (data, cfg, row_of_id)


def _worker_fit(spec):
    data, cfg, row_of_id = _WORKER_STATE["args"]
    try:
        return "ok", _fit_one(data, spec, cfg, row_of_id)
    except (np.linalg.LinAlgError, ValueError, FloatingPointError) as exc:
        return "failed", str(exc)


def train_ensemble(data: Dataset, cfg: EnsembleConfig, transform_factory=None,
                   n_jobs: int = 1) -> tuple[TrainedEnsemble, KernelMatrix]:
    """Fit the ensemble on standardized data and accumulate the train kernel.

    ``transform_factory``, when given, is called per base model with that
    model's training posteriors and parameters and must return a
    TransformMatrix; posteriors are mapped through it before normalization.
    Base models that fail to fit are skipped and recorded; more than 10%
    failures aborts training.
    """
    cfg = _resolve_counts(cfg, data)
    if data.n < max(cfg.component_counts):
        raise ValueError(
            f"dataset has {data.n} series but the largest base model needs "
            f"{max(cfg.component_counts)}; shrink component_counts or add data")
    specs = sample_configs(cfg, data.n, data.n_attributes, data.length,
                           ids=data.ids)
    row_of_id = {int(i): r for r, i in enumerate(data.ids)}

    outcomes = []
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs, initializer=_worker_init,
                                 initargs=(data, cfg, row_of_id)) as pool:
            outcomes = list(pool.map(_worker_fit, specs, chunksize=8))
    else:
        for spec in specs:
            try:
                outcomes.append(("ok", _fit_one(data, spec, cfg, row_of_id)))
            except (np.linalg.LinAlgError, ValueError, FloatingPointError) as exc:
                outcomes.append(("failed", str(exc)))

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

    transforms = None
    if transform_factory is not None:
        transforms = [transform_factory(post, params)
                      for post, params in zip(kept_posts, kept_params)]

    ens = TrainedEnsemble(cfg, data.n, data.n_attributes, data.length,
                          kept_specs, kept_params, kept_posts, transforms,
                          failed)
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
    """Re-derive the kernel with per-model transforms, reusing fitted models.

    Equivalent to training with the factory attached (fits are seed-determined)
    without paying for the fits again.
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


def save_ensemble(ens: TrainedEnsemble, directory) -> None:
    """Directory layout: manifest.json, one model_*.json per base model and a
    posteriors.npy holding all training posteriors side by side."""
    os.makedirs(directory, exist_ok=True)
    model_files = []
    offsets = [0]
    for i, (spec, params) in enumerate(zip(ens.specs, ens.params)):
        record = {
            "spec": {
                "q1": spec.q1, "q2": spec.q2,
                "hp": {"a0": spec.hp.a0, "b0": spec.hp.b0, "n0": spec.hp.n0},
                "t_start": spec.t_start, "t_stop": spec.t_stop,
                "attributes": [int(a) for a in spec.attributes],
                "subsample_ids": [int(s) for s in spec.subsample_ids],
                "sub_seed": spec.sub_seed,
            },
            "params": params_to_record(params),
        }
        if ens.transforms is not None and ens.transforms[i] is not None:
            tm = ens.transforms[i]
            record["transform"] = {
                "weights": tm.weights.tolist(),
                "row_evidence": tm.row_evidence.tolist(),
            }
        name = f"model_{spec.q1:03d}_{spec.q2:03d}.json"
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(record, fh)
        model_files.append(name)
        offsets.append(offsets[-1] + ens.posteriors[i].shape[1])
    stacked = (np.concatenate(ens.posteriors, axis=1) if ens.posteriors
               else np.zeros((ens.n_series, 0)))
    np.save(os.path.join(directory, "posteriors.npy"), stacked)
    manifest = {
        "config": asdict_config(ens.config),
        "n_series": ens.n_series,
        "n_attributes": ens.n_attributes,
        "length": ens.length,
        "model_files": model_files,
        "posterior_offsets": offsets,
        "has_transforms": ens.transforms is not None,
        "failed": [[q1, q2, reason] for q1, q2, reason in ens.failed],
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)


def load_ensemble(directory) -> TrainedEnsemble:
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    cfg_dict = dict(manifest["config"])
    for key in ("component_counts", "a0_range", "b0_range", "n0_range"):
        if cfg_dict.get(key) is not None:
            cfg_dict[key] = tuple(cfg_dict[key])
    cfg = EnsembleConfig(**cfg_dict)
    stacked = np.load(os.path.join(directory, "posteriors.npy"))
    offsets = manifest["posterior_offsets"]
    specs, params, posts = [], [], []
    transforms = [] if manifest["has_transforms"] else None
    for i, name in enumerate(manifest["model_files"]):
        with open(os.path.join(directory, name)) as fh:
            record = json.load(fh)
        s = record["spec"]
        specs.append(BaseModelSpec(
            s["q1"], s["q2"], HyperParams(**s["hp"]), s["t_start"], s["t_stop"],
            np.asarray(s["attributes"]), np.asarray(s["subsample_ids"]),
            s["sub_seed"]))
        params.append(params_from_record(record["params"]))
        posts.append(stacked[:, offsets[i]:offsets[i + 1]])
        if transforms is not None:
            tm = record.get("transform")
            transforms.append(None if tm is None else TransformMatrix(
                np.asarray(tm["weights"]), np.asarray(tm["row_evidence"])))
    return TrainedEnsemble(cfg, manifest["n_series"], manifest["n_attributes"],
                           manifest["length"], specs, params, posts, transforms,
                           [tuple(f) for f in manifest["failed"]])
