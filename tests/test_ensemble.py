import dataclasses
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import tck.ensemble as ens_mod
from tck.data import Dataset, standardize
from tck.ensemble import (EnsembleConfig, KernelMatrix,
                          apply_posterior_transform, kernel_test,
                          load_ensemble, load_kernel, sample_configs,
                          save_ensemble, save_kernel, train_ensemble)
from tck.mixture import (GAUSSIAN_ONLY, MIXED_MODE, HyperParams, _feature_grid,
                         _normalize_rows, e_step)
from tck.transform import (apply_transform, make_semisupervised_factory,
                           make_supervised_factory)
from tck.data import labels_to_onehot

from em_reference import component_scores
from old_layout import rewrite_as_offsets_layout
from poison import poison_missing

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def blob_dataset(seed=0, n=30, v=2, t=10, missing=0.3):
    """Two noisy clusters with some cells removed."""
    rng = np.random.default_rng(seed)
    centers = np.where(np.arange(n) % 2 == 0, 2.0, -2.0)
    values = rng.normal(size=(n, v, t)) + centers[:, None, None]
    mask = (rng.random((n, v, t)) > missing).astype(np.uint8)
    mask[:, :, 0] = 1
    labels = (np.arange(n) % 2 + 1).astype(np.int64)
    ds = Dataset(values, mask, labels, 2, np.arange(1, n + 1))
    return standardize(ds)[0]


def small_config(seed=0, mode=GAUSSIAN_ONLY, n_init=10, counts=(2, 3),
                 t_min=4):
    return EnsembleConfig(n_init=n_init, component_counts=counts, t_min=t_min,
                          seed=seed, mode=mode)


def train_supervised(data, cfg, n_jobs=1):
    """(ensemble, train kernel) of the supervised variant: the base ensemble
    fitted on two-class data, then its fully labeled transforms attached."""
    base, _ = train_ensemble(data, cfg, n_jobs)
    return apply_posterior_transform(
        base, make_supervised_factory(labels_to_onehot(data.labels, 2)))


class TestSampleConfigs:
    def test_grid_size(self):
        cfg = EnsembleConfig(n_init=30, component_counts=tuple(range(2, 23)),
                             seed=0)
        specs = sample_configs(cfg, v=2, t=50, ids=np.arange(200))
        assert len(specs) == 630

    def test_single_cell_grid(self):
        cfg = EnsembleConfig(n_init=1, component_counts=(1,), t_min=2, seed=0)
        specs = sample_configs(cfg, v=1, t=5, ids=np.arange(10))
        assert len(specs) == 1 and specs[0].q2 == 1

    def test_deterministic(self):
        cfg = small_config(seed=9)
        a = sample_configs(cfg, 3, 12, ids=np.arange(40))
        b = sample_configs(cfg, 3, 12, ids=np.arange(40))
        for s, u in zip(a, b):
            assert s.hp == u.hp and s.sub_seed == u.sub_seed
            assert np.array_equal(s.subsample_ids, u.subsample_ids)
            assert np.array_equal(s.attributes, u.attributes)
            assert (s.t_start, s.t_stop) == (u.t_start, u.t_stop)

    def test_bounds_respected(self):
        """The subsample bound follows from the number of ids."""
        cfg = EnsembleConfig(n_init=20, component_counts=(2,), t_min=3,
                             seed=1)
        for ids in (np.arange(25), np.array([40, 3, 17, 8, 91, 5, 66]), np.array([12])):
            for s in sample_configs(cfg, v=4, t=9, ids=ids):
                assert 3 <= s.t_stop - s.t_start <= 9
                assert 0 <= s.t_start and s.t_stop <= 9
                assert 2 <= len(s.attributes) <= 4
                assert math.ceil(0.8 * len(ids)) <= len(s.subsample_ids) <= len(ids)
                assert set(s.subsample_ids) <= set(ids)
                assert 0.001 <= s.hp.a0 <= 1.0
                assert 0.05 <= s.hp.b0 <= 0.8
                assert 0.001 <= s.hp.n0 <= 0.2

    def test_short_series_error_mentions_t_min(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="lower t_min"):
            sample_configs(cfg, v=2, t=3, ids=np.arange(10))


def cosine(post_a, post_b):
    """Inner product of the l2-normalized vectors; in [0, 1] for posteriors.
    The per-pair reference against which the kernel paths are checked."""
    a = np.asarray(post_a, dtype=float)
    b = np.asarray(post_b, dtype=float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine of a zero vector is undefined")
    return float(a @ b / (na * nb))


class TestCosine:
    def test_equal_vectors(self):
        assert cosine(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_half_split(self):
        got = cosine(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert got == pytest.approx(0.70711, abs=1e-5)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(2), np.ones(2))


class TestTrainKernel:
    @pytest.mark.parametrize("mode", [GAUSSIAN_ONLY, MIXED_MODE])
    def test_kernel_properties(self, mode):
        data = blob_dataset(seed=3)
        ens, km = train_ensemble(data, small_config(seed=3, mode=mode))
        k = km.values
        assert km.model_count == 20
        assert np.array_equal(k, k.T)
        np.testing.assert_allclose(np.diag(k), km.model_count, atol=1e-9)
        assert k.min() >= -1e-12 and k.max() <= km.model_count + 1e-9
        eigenvalues = np.linalg.eigvalsh(k)
        assert eigenvalues.min() >= -1e-8 * km.model_count

    def test_test_kernel_on_training_data_reproduces_train_kernel(self):
        data = blob_dataset(seed=4)
        ens, km = train_ensemble(data, small_config(seed=4))
        km_star = kernel_test(ens, data)
        assert np.abs(km_star.values - km.values).max() <= 1e-12

    def test_deterministic_given_seed(self):
        data = blob_dataset(seed=5)
        _, a = train_ensemble(data, small_config(seed=5))
        _, b = train_ensemble(data, small_config(seed=5))
        assert np.abs(a.values - b.values).max() <= 1e-12

    def test_row_permutation_equivariance(self):
        data = blob_dataset(seed=6, n=24)
        perm = np.random.default_rng(0).permutation(data.n)
        shuffled = data.take(perm)
        _, km = train_ensemble(data, small_config(seed=6))
        _, km_perm = train_ensemble(shuffled, small_config(seed=6))
        unperm = np.empty_like(km_perm.values)
        unperm[np.ix_(perm, perm)] = km_perm.values
        assert np.abs(unperm - km.values).max() <= 1e-12

    def test_fits_see_their_rows_in_sorted_id_order(self):
        """Series stored in any order give the sorted order's fits, bit for
        bit: each base model takes its rows in the order of its sorted ids."""
        data = blob_dataset(seed=12, n=24)
        perm = np.random.default_rng(1).permutation(data.n)
        shuffled = data.take(perm)
        assert not np.all(np.diff(shuffled.ids) > 0)
        ens, km = train_ensemble(data, small_config(seed=12))
        ens_perm, km_perm = train_ensemble(shuffled, small_config(seed=12))
        assert ens_perm.failed == ens.failed
        for a, b in zip(ens_perm.params, ens.params):
            for name in ("theta", "mu", "sigma2"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        for a, b in zip(ens_perm.posteriors, ens.posteriors):
            assert np.array_equal(a, b[perm])
        assert np.array_equal(km_perm.values, km.values[np.ix_(perm, perm)])

    def test_normalize_by_models_scales_diagonal_to_one(self):
        data = blob_dataset(seed=7)
        cfg = small_config(seed=7)
        cfg.normalize_by_models = True
        _, km = train_ensemble(data, cfg)
        np.testing.assert_allclose(np.diag(km.values), 1.0, atol=1e-9)

    def test_dataset_smaller_than_largest_model_rejected(self):
        data = blob_dataset(seed=8, n=10)
        cfg = small_config(counts=(12,))
        with pytest.raises(ValueError, match="shrink"):
            train_ensemble(data, cfg)

    @pytest.mark.parametrize("change,rows,name", [
        ({"n_init": 0}, 30, "n_init"),
        ({"counts": ()}, 30, "component_counts"),
        ({"counts": (0, 2)}, 30, "component_counts"),
        ({"t_min": 0}, 30, "t_min must be at least 1, got 0"),
        ({}, 0, "one series, got V=2 and N=0"),
    ], ids=["no-restarts", "no-counts", "zero-count", "zero-t-min", "no-series"])
    def test_config_without_a_base_model_fails_before_any_fit(
            self, change, rows, name, monkeypatch):
        def no_fit(*a, **kw):
            raise AssertionError("a base model was fitted")

        monkeypatch.setattr(ens_mod, "fit_map_em", no_fit)
        data = blob_dataset(seed=8).take(list(range(rows)))
        with pytest.raises(ValueError, match=name):
            train_ensemble(data, small_config(**change))

    def test_never_observed_attribute_fails_before_any_fit(self, monkeypatch):
        calls, fit = [], ens_mod.fit_map_em

        def counting(*a, **kw):
            calls.append(a)
            return fit(*a, **kw)

        monkeypatch.setattr(ens_mod, "fit_map_em", counting)
        data = blob_dataset(seed=8, v=3)
        data.mask[:, 2, :] = 0
        with pytest.raises(ValueError, match="^attribute 3 has no observed "
                                             "entries in the training data$"):
            train_ensemble(data, small_config(n_init=3))
        assert calls == []

    def test_failed_fit_names_the_dataset_attribute(self):
        # attribute 3 is observed only at t = 0, outside the model's window
        data = blob_dataset(seed=8, v=3)
        data.mask[:, 2, 1:] = 0
        spec = ens_mod.BaseModelSpec(1, 2, HyperParams(0.1, 0.1, 0.05), 1, 10,
                                     np.array([0, 2]), data.ids, 0)
        assert ens_mod._fit_one(spec, data, small_config()) == (
            "failed", "attribute 3 has no observed entries in the subset")

    def test_schema_mismatch_rejected(self):
        data = blob_dataset(seed=9)
        ens, _ = train_ensemble(data, small_config(seed=9))
        narrow = data.restrict(time=(0, data.length - 1))
        with pytest.raises(ValueError, match="schema"):
            kernel_test(ens, narrow)

    def test_empty_test_set(self):
        data = blob_dataset(seed=10)
        ens, _ = train_ensemble(data, small_config(seed=10))
        empty = data.take(np.array([], dtype=int))
        km = kernel_test(ens, empty)
        assert km.values.shape == (data.n, 0)
        assert data.take([]).n == 0 and data.take([]).ids.dtype == np.int64
        keep = np.arange(data.n) < 3        # a boolean mask keeps working
        assert data.take(list(keep)).ids.tolist() == [1, 2, 3]

    def test_parallel_fit_matches_serial(self):
        data = blob_dataset(seed=11, n=20)
        cfg = small_config(seed=11, n_init=3)
        _, serial = train_ensemble(data, cfg)
        _, parallel = train_ensemble(data, cfg, n_jobs=2)
        assert np.array_equal(serial.values, parallel.values)


# Trains one ensemble per mode, serially and with two workers, and prints
# the sha256 of each one's kernel and parameter bytes; then the BLAS thread
# count of a worker started through _worker_init.
_BLAS_THREADS_SCRIPT = """
import ctypes, dataclasses, hashlib, json, multiprocessing
from concurrent.futures import ProcessPoolExecutor
import tck
import tck.ensemble as ens_mod

GETTER = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")

def blas_threads():
    get = ens_mod._openblas_function(*GETTER)
    if get is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()

params = dataclasses.replace(tck.default_var1_params(), n_per_class=100, length=50)
data = tck.standardize(tck.inject_var1_mnar(tck.gen_var1(params, 3)[0], seed=4))[0]
digests = {}
for mode in (tck.GAUSSIAN_ONLY, tck.MIXED_MODE):
    cfg = tck.EnsembleConfig(n_init=2, component_counts=(20, 21), seed=5, mode=mode)
    for n_jobs in (1, 2):
        ens, kernel = tck.train_ensemble(data, cfg, n_jobs=n_jobs)
        h = hashlib.sha256(kernel.values.tobytes())
        for p in ens.params:
            for a in (p.theta, p.mu, p.sigma2, p.beta):
                if a is not None:
                    h.update(a.tobytes())
        digests[f"{mode} n_jobs={n_jobs}"] = h.hexdigest()
with ProcessPoolExecutor(1, initializer=ens_mod._worker_init, initargs=(None, None),
                         mp_context=multiprocessing.get_context("fork")) as pool:
    worker = pool.submit(blas_threads).result()
print(json.dumps({"digests": digests, "worker": worker}))
"""


def test_training_bytes_do_not_depend_on_blas_or_worker_threads():
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        out = subprocess.run([sys.executable, "-c", _BLAS_THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        runs[threads] = json.loads(out.stdout)
    for mode in (GAUSSIAN_ONLY, MIXED_MODE):
        keys = [f"{mode} n_jobs=1", f"{mode} n_jobs=2"]
        assert len({run["digests"][k] for run in runs.values() for k in keys}) == 1
    if runs["2"]["worker"] is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count getter")
    assert runs["2"]["worker"] == runs["1"]["worker"] == 1


def fail_fits(monkeypatch, fails):
    """Make every base-model fit whose seed satisfies ``fails`` raise."""
    original = ens_mod.fit_map_em

    def flaky(sub, q2, hp, seed, **kw):
        if fails(seed):
            raise np.linalg.LinAlgError(f"synthetic failure {seed % 20}")
        return original(sub, q2, hp, seed, **kw)

    monkeypatch.setattr(ens_mod, "fit_map_em", flaky)


def test_masked_cells_never_enter_the_kernel():
    """Poisoned unobserved values must not change fits, posteriors or K."""
    data = blob_dataset(seed=21, n=20)
    cfg = small_config(seed=21, n_init=3)
    _, clean = train_ensemble(data, cfg)
    _, poisoned = train_ensemble(poison_missing(data, np.nan), cfg)
    assert np.isfinite(poisoned.values).all()
    assert np.array_equal(clean.values, poisoned.values)


class TestFailureHandling:
    @staticmethod
    def inject_failures(monkeypatch, bad=(0, 4)):
        """Make the fits whose seed is in ``bad`` modulo 20 raise: two of the
        20 fits of ``small_config(seed=12, n_init=20, counts=(2,))``."""
        fail_fits(monkeypatch, lambda seed: seed % 20 in bad)

    def test_failed_models_are_recorded_and_skipped(self, monkeypatch):
        data = blob_dataset(seed=12)
        cfg = small_config(seed=12, n_init=20, counts=(2,))
        self.inject_failures(monkeypatch)
        ens, km = train_ensemble(data, cfg)
        assert len(ens.failed) == 2
        assert ens.model_count + len(ens.failed) == 20
        np.testing.assert_allclose(np.diag(km.values), ens.model_count,
                                   atol=1e-9)

    @pytest.fixture(params=["fork", "spawn"])
    def default_start_method(self, request):
        """The process-wide default start method, restored afterwards."""
        saved = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method(request.param, force=True)
        yield request.param
        multiprocessing.set_start_method(saved, force=True)

    def test_serial_and_parallel_record_the_same_failures(self, monkeypatch,
                                                          default_start_method):
        data = blob_dataset(seed=12)
        cfg = small_config(seed=12, n_init=20, counts=(2,))
        self.inject_failures(monkeypatch)
        serial, km_serial = train_ensemble(data, cfg, n_jobs=1)
        parallel, km_parallel = train_ensemble(data, cfg, n_jobs=2)
        # The pool forks whatever the default, so the patched fit_map_em runs
        # in the workers; a pool that did not see it would record no
        # failures here.
        assert parallel.failed
        assert all(reason.startswith("synthetic failure")
                   for _, _, reason in parallel.failed)
        assert parallel.failed == serial.failed
        assert parallel.model_count == serial.model_count
        np.testing.assert_array_equal(km_parallel.values, km_serial.values)

    def test_cell_that_once_failed_scoring_is_rejected_by_dataset(self):
        """A 1e154 cell fitted, and then failed to score under a model whose
        subsample left its series out; Dataset now rejects it, naming it."""
        data = blob_dataset(seed=0, n=30, v=1, t=6)
        values = data.values.copy()
        values[5, 0, 0] = 1e154
        with pytest.raises(ValueError, match=r"^series 6: value 1e\+154 in observed "
                                             r"cell \(attribute 1, time 1\) exceeds "
                                             r"1e\+100 in magnitude$"):
            Dataset(values, data.mask, data.labels, 2, data.ids)

    @pytest.mark.parametrize("mode", [GAUSSIAN_ONLY, MIXED_MODE])
    def test_fitted_model_scores_every_series_at_the_bound(self, mode):
        """Attribute 2 is constant but for one training series at 1e100, so
        a subsample without that series puts the prior scale at its 1e-6
        floor and sigma^2 far below it; that series and a held-out one at
        -1e100 are still scored finitely by every fitted model. The suite
        raises RuntimeWarning as an error, so no score overflowed."""
        def constant_but_one(ds, i, x):
            values = ds.values.copy()
            values[:, 1, :] = 0.5
            values[i, 1, 0] = x
            return Dataset(values, ds.mask, ds.labels, ds.n_classes, ds.ids)

        data = constant_but_one(blob_dataset(seed=0, n=30, v=2, t=6), 5, 1e100)
        test = constant_but_one(blob_dataset(seed=26, n=7, v=2, t=6), 2, -1e100)
        cfg = EnsembleConfig(n_init=20, component_counts=(2,), t_min=6, seed=11,
                             mode=mode)
        ens, km = train_ensemble(data, cfg)
        specs = sample_configs(cfg, data.n_attributes, data.length, ids=data.ids)
        assert any(6 not in spec.subsample_ids for spec in specs)
        assert ens.failed == [] and ens.model_count == 20
        assert np.isfinite(km.values).all()
        assert np.isfinite(kernel_test(ens, test).values).all()

    @pytest.mark.parametrize("failing", [(), (0, 4)], ids=["none", "fits-failed"])
    def test_one_scoring_plan_per_train_and_its_kernel_tests(self, failing,
                                                             monkeypatch):
        """The plan train_ensemble scored the training series with serves
        the returned ensemble, its transformed sibling and their kernel_test
        calls."""
        built = []
        init = ens_mod._ScoringPlan.__init__

        def counted(plan, *args):
            built.append(len(args[0]))
            init(plan, *args)

        monkeypatch.setattr(ens_mod._ScoringPlan, "__init__", counted)
        self.inject_failures(monkeypatch, failing)
        data = blob_dataset(seed=12)
        ens, _ = train_ensemble(data, small_config(seed=12, n_init=20, counts=(2,)))
        sibling, _ = apply_posterior_transform(
            ens, make_supervised_factory(labels_to_onehot(data.labels, 2)))
        for model in (ens, sibling):
            kernel_test(model, held_out(seed=27))
        assert built == [20 - len(failing)] == [ens.model_count]

    def test_too_many_failures_abort(self, monkeypatch):
        """More than 10 % failed fits abort training before any scoring."""
        data = blob_dataset(seed=13)
        cfg = small_config(seed=13, n_init=10, counts=(2,))

        def always_fail(*a, **kw):
            raise np.linalg.LinAlgError("synthetic failure")

        def refuse(*a, **kw):
            raise AssertionError("scored after too many failures")

        monkeypatch.setattr(ens_mod, "fit_map_em", always_fail)
        monkeypatch.setattr(ens_mod._ScoringPlan, "posteriors", refuse)
        with pytest.raises(RuntimeError, match="base models failed"):
            train_ensemble(data, cfg)


class TestTransformsInEnsemble:
    def test_applied_transforms_are_row_stochastic(self):
        data = blob_dataset(seed=14)
        plain, _ = train_ensemble(data, small_config(seed=14))
        assert plain.transforms is None
        rebuilt, _ = apply_posterior_transform(
            plain, make_supervised_factory(labels_to_onehot(data.labels, 2)))
        assert rebuilt.transforms is not None
        assert len(rebuilt.transforms) == rebuilt.model_count
        for tm in rebuilt.transforms:
            np.testing.assert_allclose(tm.weights.sum(axis=1), 1.0, atol=1e-10)

    def test_transform_travels_to_test_kernel(self):
        data = blob_dataset(seed=15)
        ens, km = train_supervised(data, small_config(seed=15))
        km_star = kernel_test(ens, data)
        assert np.abs(km_star.values - km.values).max() <= 1e-12


class TestPersistence:
    def test_kernel_csv_round_trip(self, tmp_path):
        data = blob_dataset(seed=16)
        ens, km = train_ensemble(data, small_config(seed=16, n_init=2))
        empty_batch = kernel_test(ens, data.take(np.zeros(0, dtype=int)))
        assert empty_batch.values.shape == (data.n, 0)
        rng = np.random.default_rng(0)
        others = [KernelMatrix(rng.normal(size=shape), 3)
                  for shape in ((0, 3), (0, 0), (3, 1), (1, 4))]
        path = tmp_path / "k.csv"
        for kernel in (km, empty_batch, *others):
            save_kernel(kernel, path)
            back = load_kernel(path)
            assert back.model_count == kernel.model_count
            assert back.values.shape == kernel.values.shape
            assert back.values.tobytes() == kernel.values.tobytes()

    # (damage to the text of a saved 3 x 2 kernel, error after the path)
    DAMAGED = {
        "header": (lambda s: s.replace("n,m", "n;m"),
                   ": expected kernel header 'n,m,model_count'"),
        "dims": (lambda s: s.replace("3,2,5", "3,2"),
                 ":2: expected three integers n,m,model_count, found '3,2'"),
        "negative-dims": (lambda s: s.replace("3,2,5", "3,-2,5"),
                          ":2: negative kernel dimension in '3,-2,5'"),
        "truncated": (lambda s: s[:-3], ":5: truncated kernel row"),
        "missing-row": (lambda s: s[:s.rindex("\n", 0, -1) + 1],
                        ": declares 3 kernel rows, holds 2"),
        "extra-row": (lambda s: s + "6,7\n", ": declares 3 kernel rows, holds 4"),
        "ragged": (lambda s: s.replace("\n2,3\n", "\n2\n"),
                   ":4: expected 2 kernel values, found 1"),
        "three-values": (lambda s: s.replace("\n2,3\n", "\n2,3,3\n"),
                         ":4: expected 2 kernel values, found 3"),
        "bad-number": (lambda s: s.replace("\n2,3\n", "\n2,x\n"),
                       ":4: malformed kernel row"),
        "blank-row": (lambda s: s.replace("\n2,3\n", "\n\n"),
                      ":4: expected 2 kernel values, found 1"),
        "values-in-empty": (lambda s: s.replace("3,2,5", "3,0,5"),
                            ": declares an empty 3 x 0 kernel, holds values"),
    }

    @pytest.mark.parametrize("damage, error", DAMAGED.values(), ids=DAMAGED.keys())
    def test_damaged_kernel_file_is_named(self, tmp_path, damage, error):
        path = tmp_path / "k.csv"
        save_kernel(KernelMatrix(np.array([[0.5, 1], [2, 3], [4, 5]]), 5), path)
        assert path.read_text().endswith("\n2,3\n4,5\n")
        path.write_text(damage(path.read_text()))
        with pytest.raises(ValueError) as info:
            load_kernel(path)
        assert str(info.value) == f"{path}{error}"

    def test_ensemble_directory_round_trip(self, tmp_path):
        data = blob_dataset(seed=17)
        ens, km = train_supervised(data, small_config(seed=17, n_init=3))
        save_ensemble(ens, tmp_path / "ens")
        back = load_ensemble(tmp_path / "ens")
        assert back.model_count == ens.model_count
        km_star = kernel_test(back, data)
        assert np.abs(km_star.values - km.values).max() <= 1e-12


class TestEnsembleFiles:
    """save_ensemble writes a fixed set of files; load_ensemble checks them
    against the manifest."""

    @pytest.fixture
    def saved(self, tmp_path):
        data = blob_dataset(seed=18)
        ens, _ = train_supervised(data, small_config(seed=18, n_init=2))
        save_ensemble(ens, tmp_path / "ens")
        return tmp_path / "ens"

    def test_file_set_does_not_grow_with_models(self, saved, tmp_path):
        data = blob_dataset(seed=18)
        ens, _ = train_ensemble(data, small_config(seed=18, n_init=6,
                                                   counts=(2, 3, 4)))
        save_ensemble(ens, tmp_path / "bigger")
        base = ["manifest.json", "params.npy", "posteriors.npy", "subsamples.npy"]
        assert sorted(os.listdir(tmp_path / "bigger")) == base
        assert sorted(os.listdir(saved)) == sorted(base + ["transforms.npy"])

    def test_truncated_params_rejected(self, saved):
        params = np.load(saved / "params.npy")
        np.save(saved / "params.npy", params[:-5])
        with pytest.raises(ValueError, match=rf"params\.npy.*\({params.size},\)"
                                             rf".*\({params.size - 5},\)"):
            load_ensemble(saved)

    def test_partly_written_params_rejected(self, saved):
        raw = (saved / "params.npy").read_bytes()
        (saved / "params.npy").write_bytes(raw[:-40])
        with pytest.raises(ValueError, match=r"params\.npy"):
            load_ensemble(saved)

    def test_empty_params_file_rejected(self, saved):
        (saved / "params.npy").write_bytes(b"")
        with pytest.raises(ValueError, match=r"params\.npy"):
            load_ensemble(saved)

    def test_spec_disagreeing_with_arrays_rejected(self, saved):
        manifest = json.loads((saved / "manifest.json").read_text())
        manifest["models"][0]["t_stop"] -= 1
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"params\.npy.*implies shape"):
            load_ensemble(saved)

    @pytest.mark.parametrize("damage", [
        lambda m, v, t: m.update(attributes=m["attributes"][:-1] + [v]),
        lambda m, v, t: m.update(attributes=[-1] + m["attributes"][1:]),
        lambda m, v, t: m.update(attributes=m["attributes"][::-1]),
        lambda m, v, t: m.update(attributes=[float(a) for a in m["attributes"]]),
        lambda m, v, t: shift_window(m, t + 1 - m["t_stop"]),
        lambda m, v, t: shift_window(m, -1 - m["t_start"]),
        lambda m, v, t: m.update(t_stop=m["t_start"]),
        lambda m, v, t: m.update(t_start=str(m["t_start"])),
        lambda m, v, t: m.update(q2=0),
    ], ids=["attribute-past-V", "negative-attribute", "unsorted-attributes",
            "float-attributes", "window-past-end", "window-before-start",
            "empty-window", "string-window", "no-components"])
    def test_model_spec_outside_the_series_rejected(self, saved, damage):
        """A model whose spec would score cells outside its attributes and
        window, or no components, is refused by name before any array is
        read, even when the arrays' sizes still agree with the spec."""
        path = saved / "manifest.json"
        manifest = json.loads(path.read_text())
        model = manifest["models"][0]
        assert len(model["attributes"]) == manifest["n_attributes"] == 2
        damage(model, manifest["n_attributes"], manifest["length"])
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: model 0: "):
            load_ensemble(saved)

    @pytest.mark.parametrize("name, dtype", [("params.npy", np.float32),
                                             ("subsamples.npy", np.float64)])
    def test_wrong_dtype_rejected(self, saved, name, dtype):
        np.save(saved / name, np.load(saved / name).astype(dtype))
        with pytest.raises(ValueError, match=rf"{name}.*found {np.dtype(dtype)} "):
            load_ensemble(saved)

    @pytest.mark.parametrize("name", ["manifest.json", "params.npy",
                                      "subsamples.npy", "transforms.npy",
                                      "posteriors.npy"])
    def test_missing_file_rejected(self, saved, name):
        (saved / name).unlink()
        with pytest.raises(ValueError, match=rf"{name} is missing"):
            load_ensemble(saved)

    def test_old_layout_rejected(self, saved):
        manifest = json.loads((saved / "manifest.json").read_text())
        del manifest["models"]
        manifest["model_files"] = ["model_001_002.json", "model_001_003.json"]
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="older tck.*retrain"):
            load_ensemble(saved)

    def test_layout_with_posterior_offsets_rejected(self, saved):
        """The manifest layout before the config kept only what a caller
        sets: unused range fields, a per-model copy of sub_seed and the
        cumulative q2 offsets."""
        rewrite_as_offsets_layout(saved)
        with pytest.raises(ValueError) as info:
            load_ensemble(saved)
        assert str(info.value) == (f"{saved / 'manifest.json'} was written by "
                                   f"an older tck and cannot be read; retrain it")


def shift_window(model, by):
    model["t_start"] += by
    model["t_stop"] += by


def model_view(data, spec):
    return data.restrict(attributes=spec.attributes, time=(spec.t_start, spec.t_stop))


def reference_kernel_test(ens, test):
    """Test kernel from public pieces: e_step on restricted views, the
    transform and the cosine of every (training, test) posterior pair."""
    total = np.zeros((ens.n_series, test.n))
    for i, spec in enumerate(ens.specs):
        train = ens.posteriors[i]
        post = e_step(ens.params[i], model_view(test, spec))
        if ens.transforms is not None:
            train = apply_transform(ens.transforms[i], train)
            post = apply_transform(ens.transforms[i], post)
        for a in range(ens.n_series):
            for b in range(test.n):
                total[a, b] += cosine(train[a], post[b])
    if ens.config.normalize_by_models:
        total /= ens.model_count
    return total


def held_out(seed, n=7):
    test = blob_dataset(seed=seed, n=n)
    test.mask[0, 1, :] = 0      # one series misses a whole attribute
    return test


class TestKernelTestPath:
    @pytest.mark.parametrize("mode", [GAUSSIAN_ONLY, MIXED_MODE])
    @pytest.mark.parametrize("transformed", [False, True])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_matches_public_reference(self, mode, transformed, normalize):
        data = blob_dataset(seed=18, n=16)
        cfg = small_config(seed=18, mode=mode, n_init=4)
        cfg.normalize_by_models = normalize
        ens, _ = (train_supervised if transformed else train_ensemble)(data, cfg)
        test = held_out(seed=19)
        np.testing.assert_allclose(kernel_test(ens, test).values,
                                   reference_kernel_test(ens, test),
                                   rtol=0, atol=1e-12)

    @staticmethod
    def check_posteriors_equal_e_step(mode, monkeypatch, n_jobs, failing):
        """Train with the fits at indices ``failing`` raising; pin every
        training posterior, and every test posterior that kernel_test takes
        from the scoring pass, to e_step on the model's view bit for bit."""
        data, test = blob_dataset(seed=20), held_out(seed=21)
        cfg = small_config(seed=20, mode=mode, n_init=10)
        specs = sample_configs(cfg, data.n_attributes, data.length,
                               ids=data.ids)
        with monkeypatch.context() as patch:
            bad = {specs[i].sub_seed for i in failing}
            fail_fits(patch, lambda seed: seed in bad)
            ens, _ = train_supervised(data, cfg, n_jobs)
        assert [s.sub_seed for s in ens.specs] == [
            s.sub_seed for i, s in enumerate(specs) if i not in failing]
        for i, spec in enumerate(ens.specs):
            np.testing.assert_array_equal(
                ens.posteriors[i], e_step(ens.params[i], model_view(data, spec)))
        seen = []
        posteriors = ens_mod._ScoringPlan.posteriors

        def record(plan, values, mask):
            for post in posteriors(plan, values, mask):
                seen.append(post.copy())
                yield post

        monkeypatch.setattr(ens_mod._ScoringPlan, "posteriors", record)
        kernel_test(ens, test)
        assert len(seen) == ens.model_count
        for i, (params, spec) in enumerate(zip(ens.params, ens.specs)):
            np.testing.assert_array_equal(seen[i],
                                          e_step(params, model_view(test, spec)))

    @pytest.mark.parametrize("mode", [GAUSSIAN_ONLY, MIXED_MODE])
    def test_posteriors_bit_identical_to_e_step(self, mode, monkeypatch):
        self.check_posteriors_equal_e_step(mode, monkeypatch, 1, ())

    @pytest.mark.parametrize("mode", [GAUSSIAN_ONLY, MIXED_MODE])
    @pytest.mark.parametrize("n_jobs,failing", [(2, ()), (1, (1, 6)), (2, (1, 6))],
                             ids=["pooled", "serial-failed", "pooled-failed"])
    def test_pooled_and_failed_posteriors_bit_identical_to_e_step(
            self, mode, n_jobs, failing, monkeypatch):
        """Pooled fits, and failed fits that shift the kept-model indices,
        leave every posterior equal to e_step."""
        self.check_posteriors_equal_e_step(mode, monkeypatch, n_jobs, failing)

    @pytest.mark.parametrize("mode", [GAUSSIAN_ONLY, MIXED_MODE])
    @pytest.mark.parametrize("transformed", [False, True])
    def test_single_series_match_bulk_columns(self, mode, transformed):
        data = blob_dataset(seed=22)
        cfg = small_config(seed=22, mode=mode, n_init=4)
        ens, _ = (train_supervised if transformed else train_ensemble)(data, cfg)
        test = held_out(seed=23)
        bulk = kernel_test(ens, test).values
        for j in range(test.n):
            np.testing.assert_allclose(kernel_test(ens, test.take([j])).values[:, 0],
                                       bulk[:, j], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mode", [GAUSSIAN_ONLY, MIXED_MODE])
    def test_scoring_state_does_not_leak_into_transformed_ensemble(self, mode,
                                                                   tmp_path):
        data = blob_dataset(seed=24)
        base, _ = train_ensemble(data, small_config(seed=24, mode=mode, n_init=4))
        test = held_out(seed=25)
        plain = kernel_test(base, test).values
        transformed, _ = apply_posterior_transform(
            base, make_supervised_factory(labels_to_onehot(data.labels, 2)))
        got = kernel_test(transformed, test).values
        save_ensemble(transformed, tmp_path / "ens")
        fresh = kernel_test(load_ensemble(tmp_path / "ens"), test).values
        np.testing.assert_array_equal(got, fresh)
        assert not np.allclose(got, plain)
        np.testing.assert_array_equal(kernel_test(base, test).values, plain)


def per_model_kernel_test(ens, test):
    """kernel_test as one loop over the base models, each scoring the whole
    batch from its own feature rows, with the public ``np.linalg.norm`` and
    ``apply_transform``: the reference for both paths of kernel_test."""
    total = np.zeros((ens.n_series, test.n))
    if test.n:
        for i, (spec, params) in enumerate(zip(ens.specs, ens.params)):
            a, w = spec.attributes, slice(spec.t_start, spec.t_stop)
            feats = _feature_grid(test.values[:, a, w], test.mask[:, a, w],
                                  [(0, spec.t_stop - spec.t_start)])
            post = component_scores(params, feats)
            _normalize_rows(post)
            train = ens.posteriors[i]
            if ens.transforms is not None:
                train = apply_transform(ens.transforms[i], train)
                post = post @ ens.transforms[i].weights
            unit = train / np.linalg.norm(train, axis=1)[:, None]
            total += unit @ (post / np.linalg.norm(post, axis=1)[:, None]).T
    if ens.config.normalize_by_models and ens.model_count:
        total /= ens.model_count
    return total


def scoring_pool(v, n=200):
    """n held-out series with v attributes; with v > 1 the first one misses
    its second attribute entirely."""
    pool = blob_dataset(seed=40 + v, n=n, v=v)
    if v > 1:
        pool.mask[0, 1, :] = 0
    return pool


def sub_ensemble(ens, keep):
    """The models of ``ens`` at the indices ``keep``, in that order."""
    return ens_mod.TrainedEnsemble(
        ens.config, ens.n_series, ens.n_attributes, ens.length,
        [ens.specs[i] for i in keep], [ens.params[i] for i in keep],
        [ens.posteriors[i] for i in keep],
        None if ens.transforms is None else [ens.transforms[i] for i in keep],
        ens.failed)


def label_variant(base, data, variant):
    """``base`` itself, or its supervised / semi-supervised sibling."""
    if variant == "plain":
        return base
    onehot = labels_to_onehot(data.labels, 2)
    if variant == "supervised":
        return apply_posterior_transform(base, make_supervised_factory(onehot))[0]
    onehot[1::3] = 0                    # a third of the series unlabeled
    return apply_posterior_transform(
        base, make_semisupervised_factory(onehot, 0.1))[0]


def assert_matches_per_model(ens, pool, monkeypatch):
    """kernel_test against ``per_model_kernel_test`` on the first 0 to 200
    series of ``pool``: the per-model path bit for bit at every batch size,
    and the small-batch path, which batches of 1 to 3 series also take, to
    rtol 1e-12, since its one product sums over all models at once."""
    for n in (0, 1, 2, 3, 64, 65, 200):
        test = pool.take(np.arange(n))
        expected = per_model_kernel_test(ens, test)
        if 1 <= n <= 3:
            monkeypatch.setattr(ens_mod, "_SMALL_BATCH", 3)
            np.testing.assert_allclose(kernel_test(ens, test).values, expected,
                                       rtol=1e-12, atol=0)
        monkeypatch.setattr(ens_mod, "_SMALL_BATCH", 0)
        np.testing.assert_array_equal(kernel_test(ens, test).values, expected)


class TestKernelTestMatchesPerModelLoop:
    """Both paths of kernel_test against the per-model loop, for each kind
    of ensemble that model segments and the stacked rows must handle."""

    @pytest.mark.parametrize("mode", [GAUSSIAN_ONLY, MIXED_MODE])
    @pytest.mark.parametrize("variant", ["plain", "supervised", "semisupervised"])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_modes_variants_and_normalization(self, mode, variant, normalize,
                                              monkeypatch):
        data = blob_dataset(seed=41)
        cfg = small_config(seed=41, mode=mode, n_init=4, counts=(2, 3, 5))
        cfg.normalize_by_models = normalize
        ens = label_variant(train_ensemble(data, cfg)[0], data, variant)
        assert_matches_per_model(ens, scoring_pool(2), monkeypatch)

    @pytest.mark.parametrize("v", [1, 3])
    def test_attribute_subsets(self, v, monkeypatch):
        data = blob_dataset(seed=42, v=v)
        cfg = small_config(seed=42, n_init=5, counts=(2, 4))
        ens, _ = train_ensemble(data, cfg)
        if v == 3:      # some model reads a subset other than the first attributes
            assert any(not np.array_equal(s.attributes, np.arange(len(s.attributes)))
                       for s in ens.specs)
        assert_matches_per_model(ens, scoring_pool(v), monkeypatch)

    def test_repeated_and_single_use_component_counts(self, monkeypatch):
        data = blob_dataset(seed=43)
        ens, _ = train_ensemble(data, small_config(seed=43, n_init=3,
                                                   counts=(2, 3, 4)))
        # every model of 2 and 3 components, and one of the three with 4
        keep = [i for i, s in enumerate(ens.specs) if s.q2 < 4]
        keep.insert(2, next(i for i, s in enumerate(ens.specs) if s.q2 == 4))
        sub = sub_ensemble(ens, keep)
        assert sorted(s.q2 for s in sub.specs) == [2, 2, 2, 3, 3, 3, 4]
        assert_matches_per_model(sub, scoring_pool(2), monkeypatch)

    def test_ensemble_with_failed_models(self, monkeypatch):
        data = blob_dataset(seed=12)
        TestFailureHandling.inject_failures(monkeypatch)
        ens, _ = train_ensemble(data, small_config(seed=12, n_init=20, counts=(2,)))
        assert len(ens.failed) == 2
        assert_matches_per_model(ens, scoring_pool(2), monkeypatch)

    @pytest.mark.parametrize("sibling_first", [False, True])
    def test_base_and_transformed_sibling_in_either_order(self, sibling_first,
                                                          monkeypatch):
        data = blob_dataset(seed=44)
        base, _ = train_ensemble(data, small_config(seed=44, n_init=3,
                                                    counts=(2, 3)))
        sibling = label_variant(base, data, "supervised")
        order = [sibling, base] if sibling_first else [base, sibling]
        for ens in order:
            assert_matches_per_model(ens, scoring_pool(2), monkeypatch)


def repeated_ensemble():
    """108 base models of 14 to 18 components on 60 series: 18 fitted ones,
    six times over."""
    data = blob_dataset(seed=45, n=60)
    fitted, _ = train_ensemble(data, small_config(seed=45, n_init=6,
                                                  counts=(14, 16, 18)))
    return sub_ensemble(fitted, list(range(fitted.model_count)) * 6)


def warm_peak(ens, test):
    """Peak bytes that tracemalloc sees in a warm kernel_test call."""
    kernel_test(ens, test)                    # warm: plan and rows built
    tracemalloc.start()
    try:
        kernel_test(ens, test)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_warm_bulk_kernel_test_memory_is_bounded():
    """A warm call on 108 models and 200 series allocates at most the output
    and 512 KiB of slack (the feature grid, one model's feature rows, its
    posteriors and unit rows, and one GEMM product). Keeping every model's
    unit rows for the whole call exceeds that bound."""
    ens = repeated_ensemble()
    assert ens.model_count >= 100
    test = scoring_pool(2)
    output = ens.n_series * test.n * 8
    stored = sum(test.n * s.q2 * 8 for s in ens.specs)
    bound = output + 512 * 1024
    assert stored > bound
    assert warm_peak(ens, test) <= bound


def test_warm_single_series_memory_is_bounded():
    """A warm single-series call on 108 models allocates at most the output,
    the repeated feature rows of one feature-row length, four arrays of one
    score per component and 64 KiB of slack. Repeating the feature rows of
    every length at once, or copying the training unit rows, exceeds it."""
    ens = repeated_ensemble()
    test = scoring_pool(2).take([0])
    output = ens.n_series * 8
    repeated = [weights.nbytes for _, _, weights, _ in ens._plan.by_width]
    scores = 4 * len(ens._plan.const_rows) * 8 * test.n
    bound = output + max(repeated) + scores + 64 * 1024
    assert warm_peak(ens, test) <= bound
    assert sum(repeated) > bound
    assert ens._train_units.nbytes > bound


def test_untransformed_train_units_are_built_only_for_small_batches():
    """A plain ensemble keeps its training rows as posteriors and norms; it
    lays unit rows side by side only once a small batch is served, so
    scoring large batches alone holds no second copy of the training
    posteriors."""
    data = blob_dataset(seed=46)
    ens, _ = train_ensemble(data, small_config(seed=46, n_init=2))
    pool = scoring_pool(2, n=ens_mod._SMALL_BATCH + 1)
    kernel_test(ens, pool)
    assert "_train_units" not in vars(ens)
    kernel_test(ens, pool.take([0]))
    assert "_train_units" in vars(ens)


@pytest.mark.parametrize("small_batch", [0, 3], ids=["per-model", "small"])
def test_underflowing_series_is_named_on_either_path(small_batch, monkeypatch):
    """A series whose scores overflow under one model is named by its index
    in the batch, whichever path scores the batch."""
    data = blob_dataset(seed=46)
    ens, _ = train_ensemble(data, small_config(seed=46, n_init=2))
    first = ens.params[0]
    tiny = dataclasses.replace(first, sigma2=np.full_like(first.sigma2, 1e-110))
    ens = dataclasses.replace(ens, params=[tiny] + ens.params[1:])
    test = scoring_pool(2, n=3)
    test.values[1] = 1e100              # the largest value Dataset accepts
    monkeypatch.setattr(ens_mod, "_SMALL_BATCH", small_batch)
    with pytest.raises(ValueError,
                       match="^posterior underflow for series index 1$"):
        kernel_test(ens, test)


def test_ensemble_without_models_scores_zero_columns():
    """A loaded manifest may list no models; every batch size, small or
    not, then gets zero columns."""
    data = blob_dataset(seed=46)
    ens, _ = train_ensemble(data, small_config(seed=46, n_init=2))
    empty = sub_ensemble(ens, [])
    pool = scoring_pool(2, n=ens_mod._SMALL_BATCH + 1)
    for n in (1, pool.n):
        np.testing.assert_array_equal(
            kernel_test(empty, pool.take(np.arange(n))).values,
            np.zeros((ens.n_series, n)))
