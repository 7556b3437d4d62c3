import json
import os

import numpy as np
import pytest

import tck.ensemble as ens_mod
from tck.data import Dataset, standardize
from tck.ensemble import (EnsembleConfig, apply_posterior_transform, cosine,
                          kernel_test, load_ensemble, load_kernel,
                          sample_configs, save_ensemble, save_kernel,
                          train_ensemble)
from tck.mixture import GAUSSIAN_ONLY, MIXED_MODE, e_step
from tck.transform import apply_transform, make_supervised_factory
from tck.data import labels_to_onehot


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


def small_config(seed=0, mode=GAUSSIAN_ONLY, n_init=10, counts=(2, 3)):
    return EnsembleConfig(n_init=n_init, component_counts=counts, t_min=4,
                          seed=seed, mode=mode)


class TestSampleConfigs:
    def test_grid_size(self):
        cfg = EnsembleConfig(n_init=30, component_counts=tuple(range(2, 23)),
                             seed=0)
        specs = sample_configs(cfg, n=200, v=2, t=50)
        assert len(specs) == 630

    def test_single_cell_grid(self):
        cfg = EnsembleConfig(n_init=1, component_counts=(1,), t_min=2, seed=0)
        specs = sample_configs(cfg, n=10, v=1, t=5)
        assert len(specs) == 1 and specs[0].q2 == 1

    def test_deterministic(self):
        cfg = small_config(seed=9)
        a = sample_configs(cfg, 40, 3, 12)
        b = sample_configs(cfg, 40, 3, 12)
        for s, u in zip(a, b):
            assert s.hp == u.hp and s.sub_seed == u.sub_seed
            assert np.array_equal(s.subsample_ids, u.subsample_ids)
            assert np.array_equal(s.attributes, u.attributes)
            assert (s.t_start, s.t_stop) == (u.t_start, u.t_stop)

    def test_bounds_respected(self):
        cfg = EnsembleConfig(n_init=20, component_counts=(2,), t_min=3,
                             seed=1)
        specs = sample_configs(cfg, n=25, v=4, t=9)
        for s in specs:
            assert 3 <= s.t_stop - s.t_start <= 9
            assert 0 <= s.t_start and s.t_stop <= 9
            assert 2 <= len(s.attributes) <= 4
            assert int(np.ceil(0.8 * 25)) <= len(s.subsample_ids) <= 25
            assert 0.001 <= s.hp.a0 <= 1.0
            assert 0.05 <= s.hp.b0 <= 0.8
            assert 0.001 <= s.hp.n0 <= 0.2

    def test_short_series_error_mentions_t_min(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="lower t_min"):
            sample_configs(cfg, n=10, v=2, t=3)


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

    def test_parallel_fit_matches_serial(self):
        data = blob_dataset(seed=11, n=20)
        cfg = small_config(seed=11, n_init=3)
        _, serial = train_ensemble(data, cfg)
        _, parallel = train_ensemble(data, cfg, n_jobs=2)
        assert np.array_equal(serial.values, parallel.values)


def test_masked_cells_never_enter_the_kernel():
    """Poisoned unobserved values must not change fits, posteriors or K."""
    from tck.data import poison_missing

    data = blob_dataset(seed=21, n=20)
    cfg = small_config(seed=21, n_init=3)
    _, clean = train_ensemble(data, cfg)
    _, poisoned = train_ensemble(poison_missing(data, np.nan), cfg)
    assert np.isfinite(poisoned.values).all()
    assert np.array_equal(clean.values, poisoned.values)


class TestFailureHandling:
    def test_failed_models_are_recorded_and_skipped(self, monkeypatch):
        data = blob_dataset(seed=12)
        cfg = small_config(seed=12, n_init=20, counts=(2,))
        original = ens_mod.fit_map_em
        bad = {3, 7}

        def flaky(sub, q2, hp, seed, **kw):
            if seed % 20 in bad:
                raise np.linalg.LinAlgError("synthetic failure")
            return original(sub, q2, hp, seed, **kw)

        monkeypatch.setattr(ens_mod, "fit_map_em", flaky)
        ens, km = train_ensemble(data, cfg)
        assert ens.model_count + len(ens.failed) == 20
        np.testing.assert_allclose(np.diag(km.values), ens.model_count,
                                   atol=1e-9)

    def test_too_many_failures_abort(self, monkeypatch):
        data = blob_dataset(seed=13)
        cfg = small_config(seed=13, n_init=10, counts=(2,))

        def always_fail(*a, **kw):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(ens_mod, "fit_map_em", always_fail)
        with pytest.raises(RuntimeError, match="base models failed"):
            train_ensemble(data, cfg)


class TestTransformsInEnsemble:
    def test_attached_factory_matches_after_the_fact_application(self):
        data = blob_dataset(seed=14)
        factory = make_supervised_factory(labels_to_onehot(data.labels, 2))
        cfg = small_config(seed=14)
        with_factory, km_a = train_ensemble(data, cfg, transform_factory=factory)
        plain, _ = train_ensemble(data, cfg)
        rebuilt, km_b = apply_posterior_transform(plain, factory)
        assert np.array_equal(km_a.values, km_b.values)
        assert with_factory.transforms is not None
        for tm in with_factory.transforms:
            np.testing.assert_allclose(tm.weights.sum(axis=1), 1.0, atol=1e-10)

    def test_transform_travels_to_test_kernel(self):
        data = blob_dataset(seed=15)
        factory = make_supervised_factory(labels_to_onehot(data.labels, 2))
        ens, km = train_ensemble(data, small_config(seed=15),
                                 transform_factory=factory)
        km_star = kernel_test(ens, data)
        assert np.abs(km_star.values - km.values).max() <= 1e-12


class TestPersistence:
    def test_kernel_csv_round_trip(self, tmp_path):
        data = blob_dataset(seed=16)
        _, km = train_ensemble(data, small_config(seed=16, n_init=2))
        path = tmp_path / "k.csv"
        save_kernel(km, path)
        back = load_kernel(path)
        assert back.model_count == km.model_count
        assert np.array_equal(back.values, km.values)

    def test_ensemble_directory_round_trip(self, tmp_path):
        data = blob_dataset(seed=17)
        factory = make_supervised_factory(labels_to_onehot(data.labels, 2))
        ens, km = train_ensemble(data, small_config(seed=17, n_init=3),
                                 transform_factory=factory)
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
        factory = make_supervised_factory(labels_to_onehot(data.labels, 2))
        ens, _ = train_ensemble(data, small_config(seed=18, n_init=2),
                                transform_factory=factory)
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

    def test_spec_disagreeing_with_arrays_rejected(self, saved):
        manifest = json.loads((saved / "manifest.json").read_text())
        manifest["models"][0]["t_stop"] -= 1
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"params\.npy.*implies shape"):
            load_ensemble(saved)

    def test_offsets_disagreeing_with_component_counts_rejected(self, saved):
        manifest = json.loads((saved / "manifest.json").read_text())
        manifest["posterior_offsets"][1] += 1
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="posterior_offsets"):
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
        factory = (make_supervised_factory(labels_to_onehot(data.labels, 2))
                   if transformed else None)
        ens, _ = train_ensemble(data, cfg, transform_factory=factory)
        test = held_out(seed=19)
        np.testing.assert_allclose(kernel_test(ens, test).values,
                                   reference_kernel_test(ens, test),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", [GAUSSIAN_ONLY, MIXED_MODE])
    def test_posteriors_bit_identical_to_e_step(self, mode, monkeypatch):
        data = blob_dataset(seed=20)
        factory = make_supervised_factory(labels_to_onehot(data.labels, 2))
        ens, _ = train_ensemble(data, small_config(seed=20, mode=mode, n_init=4),
                                transform_factory=factory)
        for i, spec in enumerate(ens.specs):
            np.testing.assert_array_equal(
                ens.posteriors[i], e_step(ens.params[i], model_view(data, spec)))
        seen = []
        normalize_rows = ens_mod._normalize_rows
        monkeypatch.setattr(ens_mod, "_normalize_rows",
                            lambda scores: seen.append(normalize_rows(scores)) or seen[-1])
        test = held_out(seed=21)
        kernel_test(ens, test)
        assert len(seen) == ens.model_count
        for post, params, spec in zip(seen, ens.params, ens.specs):
            np.testing.assert_array_equal(post, e_step(params, model_view(test, spec)))

    @pytest.mark.parametrize("mode", [GAUSSIAN_ONLY, MIXED_MODE])
    @pytest.mark.parametrize("transformed", [False, True])
    def test_single_series_match_bulk_columns(self, mode, transformed):
        data = blob_dataset(seed=22)
        factory = (make_supervised_factory(labels_to_onehot(data.labels, 2))
                   if transformed else None)
        ens, _ = train_ensemble(data, small_config(seed=22, mode=mode, n_init=4),
                                transform_factory=factory)
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
