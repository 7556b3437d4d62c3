"""Property tests of the train and test kernels over random small datasets.

Hypothesis draws the data (size, attributes, length, missing rate), the
component family, the label transform and kernel normalization; each example
trains a small ensemble. Further properties cover single fits over the
ensemble's whole hyperparameter ranges, the scoring plan's feature columns
and the dataset file round trip. Examples are derandomized, so every run
checks the same cases.
"""
import tempfile
from dataclasses import dataclass, replace

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from tck.data import Dataset, labels_to_onehot, load_dataset, save_dataset
from tck.ensemble import (BaseModelSpec, EnsembleConfig, _ScoringPlan,
                          apply_posterior_transform, kernel_test, load_ensemble,
                          save_ensemble, train_ensemble)
from tck.mixture import (GAUSSIAN_ONLY, MIXED_MODE, HyperParams, MixtureParams,
                         _feature_grid, fit_map_em)
from tck.transform import make_semisupervised_factory, make_supervised_factory

from poison import poison_missing

CHECK = settings(derandomize=True, database=None, deadline=None, max_examples=25,
                 suppress_health_check=[HealthCheck.too_slow])


@dataclass
class Case:
    train: Dataset
    test: Dataset
    cfg: EnsembleConfig
    transform: str | None
    rng: np.random.Generator


@st.composite
def cases(draw, n_init=2):
    n, m = draw(st.integers(8, 14)), draw(st.integers(2, 5))
    v, t = draw(st.integers(1, 3)), draw(st.integers(6, 9))
    seed = draw(st.integers(0, 2 ** 16))
    missing = draw(st.sampled_from([0.0, 0.25, 0.5]))
    rng = np.random.default_rng(seed)
    labels = np.arange(n + m) % 2 + 1
    values = (rng.normal(size=(n + m, v, t))
              + np.where(labels == 1, 1.5, -1.5)[:, None, None])
    mask = (rng.random((n + m, v, t)) >= missing).astype(np.uint8)
    mask[:, :, 0] = 1                   # every attribute observed somewhere
    data = Dataset(values, mask, labels, 2, rng.permutation(n + m) + 100)
    cfg = EnsembleConfig(n_init=n_init, component_counts=(2, 3), t_min=4,
                         seed=seed, em_max_iter=10,
                         mode=draw(st.sampled_from([GAUSSIAN_ONLY, MIXED_MODE])),
                         normalize_by_models=draw(st.booleans()))
    transform = draw(st.sampled_from([None, "supervised", "semisupervised"]))
    return Case(data.take(np.arange(n)), data.take(np.arange(n, n + m)), cfg,
                transform, rng)


def fit(case: Case, train: Dataset | None = None, cfg: EnsembleConfig | None = None):
    """(ensemble, train kernel) of the case's variant on ``train``."""
    train = case.train if train is None else train
    ens, km = train_ensemble(train, case.cfg if cfg is None else cfg)
    if case.transform is None:
        return ens, km
    onehot = labels_to_onehot(train.labels, train.n_classes)
    if case.transform == "supervised":
        return apply_posterior_transform(ens, make_supervised_factory(onehot))
    onehot[train.ids % 3 == 0] = 0      # a third unlabeled, by id, not by row
    return apply_posterior_transform(ens, make_semisupervised_factory(onehot))


@CHECK
@given(cases())
def test_train_kernel_is_symmetric_psd_with_model_count_diagonal(case):
    ens, km = fit(case)
    k = km.values
    assert km.model_count == ens.model_count > 0
    assert np.array_equal(k, k.T)
    diagonal = 1.0 if case.cfg.normalize_by_models else km.model_count
    assert (np.diag(k) == diagonal).all()
    eigenvalues = np.linalg.eigvalsh(k)
    assert eigenvalues[0] >= -1e-9 * max(1.0, eigenvalues[-1])


@CHECK
@given(cases())
def test_kernels_are_row_permutation_equivariant(case):
    """Subsamples are keyed by series id, so permuted rows fit the same
    models; only the order of sums over rows (label transforms) moves."""
    p = case.rng.permutation(case.train.n)
    q = case.rng.permutation(case.test.n)
    ens, km = fit(case)
    p_ens, p_km = fit(case, case.train.take(p))
    np.testing.assert_allclose(p_km.values, km.values[np.ix_(p, p)],
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(kernel_test(p_ens, case.test.take(q)).values,
                               kernel_test(ens, case.test).values[np.ix_(p, q)],
                               rtol=1e-12, atol=1e-12)


@CHECK
@given(cases())
def test_single_series_column_matches_bulk_column(case):
    ens, _ = fit(case)
    bulk = kernel_test(ens, case.test).values
    for j in range(case.test.n):
        column = kernel_test(ens, case.test.take([j])).values
        np.testing.assert_allclose(column[:, 0], bulk[:, j], rtol=1e-12)


@CHECK
@given(cases(), st.sampled_from([np.nan, np.inf]))
def test_values_in_masked_cells_never_reach_the_kernels(case, poison):
    ens, km = fit(case)
    p_ens, p_km = fit(case, poison_missing(case.train, poison))
    assert np.array_equal(p_km.values, km.values)
    assert np.array_equal(kernel_test(p_ens, poison_missing(case.test, poison)).values,
                          kernel_test(ens, case.test).values)


@CHECK
@given(cases(n_init=3), st.integers(1, 2))
def test_fewer_restarts_give_the_prefix_of_the_ensemble(case, fewer):
    """Each spec is keyed by (seed, q1, q2), so the ensemble of Q' restarts is
    the q1 <= Q' part of the ensemble of Q restarts, bit for bit."""
    full, _ = fit(case)
    part, _ = fit(case, cfg=replace(case.cfg, n_init=fewer))
    keep = [i for i, s in enumerate(full.specs) if s.q1 <= fewer]
    assert [(s.q1, s.q2) for s in part.specs] == [(full.specs[i].q1, full.specs[i].q2)
                                                   for i in keep]
    assert part.failed == [f for f in full.failed if f[0] <= fewer]
    for mine, i in zip(range(part.model_count), keep):
        assert np.array_equal(part.posteriors[mine], full.posteriors[i])
        for name in ("theta", "mu", "sigma2"):
            assert np.array_equal(getattr(part.params[mine], name),
                                  getattr(full.params[i], name))
    prefix = replace(full, specs=part.specs, params=[full.params[i] for i in keep],
                     posteriors=[full.posteriors[i] for i in keep],
                     transforms=(None if full.transforms is None
                                 else [full.transforms[i] for i in keep]))
    assert np.array_equal(kernel_test(prefix, case.test).values,
                          kernel_test(part, case.test).values)


def assert_same_ensemble(a, b):
    assert [(s.q1, s.q2) for s in a.specs] == [(s.q1, s.q2) for s in b.specs]
    assert a.failed == b.failed
    for pa, pb, qa, qb in zip(a.params, b.params, a.posteriors, b.posteriors):
        assert np.array_equal(qa, qb)
        for name in ("theta", "mu", "sigma2"):
            assert np.array_equal(getattr(pa, name), getattr(pb, name))


@settings(CHECK, max_examples=10)
@given(cases())
def test_saved_and_loaded_ensemble_scores_the_same_bits(case):
    ens, _ = fit(case)
    with tempfile.TemporaryDirectory() as directory:
        save_ensemble(ens, directory)
        loaded = load_ensemble(directory)
    assert_same_ensemble(loaded, ens)
    assert np.array_equal(kernel_test(loaded, case.test).values,
                          kernel_test(ens, case.test).values)


@settings(CHECK, max_examples=3)
@given(cases())
def test_pooled_fits_give_the_serial_ensemble_bit_for_bit(case):
    serial, km = train_ensemble(case.train, case.cfg)
    pooled, p_km = train_ensemble(case.train, case.cfg, n_jobs=2)
    assert_same_ensemble(pooled, serial)
    assert np.array_equal(p_km.values, km.values)
    assert np.array_equal(kernel_test(pooled, case.test).values,
                          kernel_test(serial, case.test).values)


@settings(CHECK, max_examples=150)
@given(st.integers(0, 2 ** 16), st.sampled_from([GAUSSIAN_ONLY, MIXED_MODE]),
       st.floats(-4.0, 0.0), st.floats(0.05, 0.8), st.floats(0.001, 0.2),
       st.integers(1, 4))
def test_em_objective_never_decreases_over_the_sampled_ranges(seed, mode, log_a0,
                                                             b0, n0, g):
    """a0 log-uniform on [1e-4, 1] reaches prior covariances far worse
    conditioned than the ensemble's own range [1e-3, 1]."""
    rng = np.random.default_rng(seed)
    n, v, t = (int(rng.integers(lo, hi)) for lo, hi in ((g + 4, 30), (1, 3), (6, 51)))
    mask = (rng.random((n, v, t)) >= 0.3).astype(np.uint8)
    mask[:, :, 0] = 1
    data = Dataset(rng.normal(size=(n, v, t)), mask, None, 0, np.arange(n))
    _, report = fit_map_em(data, g, HyperParams(10.0 ** log_a0, b0, n0), seed,
                           mode=mode)
    trace = np.array(report.objectives)
    assert (np.diff(trace) >= -1e-8 * np.abs(trace[:-1])).all()


@st.composite
def model_views(draw):
    """(values, mask, specs): a batch and base models with random windows
    and attribute subsets of its (V, T) grid."""
    n, v, t = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    values = rng.normal(size=(n, v, t)) * 10.0 ** draw(st.integers(-3, 3))
    missing = draw(st.sampled_from([0.0, 0.3, 0.7]))
    mask = (rng.random((n, v, t)) >= missing).astype(np.uint8)
    specs = []
    for _ in range(draw(st.integers(1, 6))):
        t_start = draw(st.integers(0, t - 1))
        t_stop = draw(st.integers(t_start + 1, t))
        attributes = np.array(sorted(draw(st.sets(st.integers(0, v - 1), min_size=1))))
        specs.append(BaseModelSpec(1, 1, HyperParams(1.0, 1.0, 1.0), t_start, t_stop,
                                   attributes, np.arange(n), 0))
    return values, mask, specs


@settings(CHECK, max_examples=100)
@given(model_views())
def test_plan_columns_are_the_features_of_each_model_view(view):
    values, mask, specs = view
    params = [MixtureParams(GAUSSIAN_ONLY, np.ones(1),
                            np.zeros((1, len(s.attributes), s.t_stop - s.t_start)),
                            np.ones((1, len(s.attributes))), None) for s in specs]
    plan = _ScoringPlan(specs, params, values.shape[1], values.shape[2])
    grid = _feature_grid(values, mask, plan.windows)
    for spec, cols in zip(specs, plan.cols):
        a, w = spec.attributes, slice(spec.t_start, spec.t_stop)
        alone = _feature_grid(values[:, a, w], mask[:, a, w],
                              [(0, spec.t_stop - spec.t_start)])
        assert np.array_equal(grid.take(cols, axis=1), alone)


@st.composite
def stored_datasets(draw):
    """A dataset as ``save_dataset`` may meet it: any shape, series with no
    observed cell, unlabeled series, ids in any order, and observed values
    from -0.0 and subnormals up to magnitudes of 1e100, the bound."""
    n, v, t = draw(st.integers(0, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    mask = (rng.random((n, v, t)) < draw(st.sampled_from([0.0, 0.3, 0.8, 1.0])))
    if n:
        mask[draw(st.integers(0, n - 1))] = False   # one series never observed
    special = st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e100, -1e100])
    cell = st.one_of(special, st.floats(-1e100, 1e100, allow_nan=False))
    values = np.array(draw(st.lists(cell, min_size=n * v * t, max_size=n * v * t)),
                      dtype=float).reshape(n, v, t)
    n_classes = draw(st.integers(0, 3))
    labels = rng.integers(0, n_classes + 1, size=n)
    ids = rng.permutation(n) * draw(st.integers(1, 3)) + draw(st.integers(-5, 5))
    return Dataset(values, mask, labels, n_classes, ids)


@settings(CHECK, max_examples=60)
@given(stored_datasets())
def test_saved_and_loaded_dataset_is_the_dataset_in_id_order(data):
    with tempfile.TemporaryDirectory() as directory:
        paths = (f"{directory}/d.csv", f"{directory}/l.csv")
        save_dataset(data, *paths)
        back = load_dataset(*paths)
    expected = data.take(np.argsort(data.ids))
    assert np.array_equal(back.ids, np.arange(1, data.n + 1))
    assert back.n_classes == data.n_classes
    assert np.array_equal(back.labels, expected.labels)
    assert np.array_equal(back.mask, expected.mask)
    observed = expected.mask.astype(bool)
    assert np.array_equal(back.values[observed].view(np.int64),
                          expected.values[observed].view(np.int64))
