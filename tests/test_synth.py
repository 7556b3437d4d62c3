import numpy as np
import pytest

from tck.data import Dataset
from tck.synth import (Var1ClassParams, default_var1_params, gen_var1,
                       inject_rate_mar, inject_rate_mnar, inject_var1_mnar,
                       simulate_var1_chain, tune_informativeness)
from tck.synth import _sample_rates


def labeled_noise(n=1000, v=2, t=10, n_classes=2, seed=0, skew=False):
    rng = np.random.default_rng(seed)
    if skew:
        values = -rng.lognormal(0.0, 1.0, size=(n, v, t))
    else:
        values = rng.normal(size=(n, v, t))
    labels = (np.arange(n) % n_classes + 1).astype(np.int64)
    return Dataset(values, np.ones((n, v, t), dtype=np.uint8), labels,
                   n_classes, np.arange(1, n + 1))


class TestGenerator:
    def test_intercept_derivation(self):
        cls = default_var1_params().classes[0]
        np.testing.assert_allclose(cls.intercept, [0.1, -0.1])

    def test_long_chain_cross_correlation(self):
        cls = default_var1_params().classes[0]
        chain = simulate_var1_chain(cls, 100_000, np.random.default_rng(0))
        corr = np.corrcoef(chain[0], chain[1])[0, 1]
        assert abs(corr - 0.8) < 0.02

    def test_second_class_negative_correlation(self):
        cls = default_var1_params().classes[1]
        chain = simulate_var1_chain(cls, 100_000, np.random.default_rng(1))
        corr = np.corrcoef(chain[0], chain[1])[0, 1]
        assert abs(corr + 0.8) < 0.02

    def test_zero_target_gives_uncorrelated_attributes(self):
        cls = Var1ClassParams(cross_corr=0.0, ar=(0.7, 0.5), mean=(1.0, -1.0))
        chain = simulate_var1_chain(cls, 100_000, np.random.default_rng(2))
        assert abs(np.corrcoef(chain[0], chain[1])[0, 1]) < 0.02

    def test_stationary_mean(self):
        cls = default_var1_params().classes[0]
        chain = simulate_var1_chain(cls, 100_000, np.random.default_rng(3))
        np.testing.assert_allclose(chain.mean(axis=1), [0.5, -0.5], atol=0.02)

    def test_unreachable_noise_correlation(self):
        cls = Var1ClassParams(cross_corr=0.99, ar=(-0.9, 0.9), mean=(0.0, 0.0))
        with pytest.raises(ValueError, match="unreachable"):
            simulate_var1_chain(cls, 10, np.random.default_rng(0))

    def test_shapes_labels_and_determinism(self):
        train, test = gen_var1(seed=11)
        assert train.n == test.n == 200
        assert train.length == 50 and train.n_attributes == 2
        assert (np.bincount(train.labels)[1:] == [100, 100]).all()
        assert train.mask.all() and test.mask.all()
        train2, test2 = gen_var1(seed=11)
        assert np.array_equal(train.values, train2.values)
        assert not np.array_equal(train.values, test.values)


class TestThresholdInjector:
    def test_per_class_missing_ratio(self):
        train, _ = gen_var1(seed=5)
        out = inject_var1_mnar(train, seed=1)
        for label in (1, 2):
            rows = out.labels == label
            missing = 1.0 - out.mask[rows].mean()
            assert abs(missing - 0.63) < 0.03

    def test_values_below_threshold_survive(self):
        train, _ = gen_var1(seed=7)
        out = inject_var1_mnar(train, seed=4)
        dropped = (train.mask == 1) & (out.mask == 0)
        assert (train.values[dropped] > -1.0).all()

    def test_labels_and_values_untouched(self):
        train, _ = gen_var1(seed=8)
        out = inject_var1_mnar(train, seed=5)
        assert np.array_equal(out.labels, train.labels)
        assert np.array_equal(out.values, train.values)


class TestRateInjectors:
    def test_uninformative_strength_is_half_missing_and_label_free(self):
        data = labeled_noise(n=4000, seed=1)
        out, report = inject_rate_mar(data, 0.0, seed=10)
        assert abs(report.missing_fraction - 0.5) < 0.02
        rate_1 = 1.0 - out.mask[data.labels == 1].mean()
        rate_2 = 1.0 - out.mask[data.labels == 2].mean()
        assert abs(rate_1 - rate_2) < 0.02
        for v in range(data.n_attributes):
            corr = np.corrcoef(report.rates[:, v], data.labels)[0, 1]
            assert abs(corr) < 0.08

    def test_saturated_rate_blanks_an_attribute(self):
        data = labeled_noise(n=200, seed=2)
        out, report = inject_rate_mar(data, 10.0, seed=11)
        plus = np.nonzero(report.directions > 0)[0][0]
        class2 = data.labels == 2
        assert report.rates[class2, plus].min() == 1.0
        assert out.mask[class2][:, plus, :].sum() == 0

    def test_mnar_spares_below_average_cells(self):
        data = labeled_noise(n=400, seed=3)
        out, _ = inject_rate_mnar(data, 0.05, seed=12)
        dropped = (data.mask == 1) & (out.mask == 0)
        means = data.values.mean(axis=(0, 2))
        assert (data.values[dropped] > means[np.nonzero(dropped)[1]]).all()

    def test_mnar_missing_rate_on_gaussian_stand_in(self):
        # 3 attributes, 8 classes, symmetric marginals
        data = labeled_noise(n=800, v=3, n_classes=8, seed=4)
        strength = tune_informativeness(data, "rate_mnar", 0.8, seed=13)
        _, report = inject_rate_mnar(data, strength, seed=14)
        assert abs(report.missing_fraction - 0.32) < 0.04

    def test_mnar_missing_rate_on_skewed_stand_in(self):
        # left-skewed marginals put ~69% of cells above the attribute mean
        data = labeled_noise(n=800, v=3, n_classes=20, seed=5, skew=True)
        strength = tune_informativeness(data, "rate_mnar", 0.8, seed=15)
        _, report = inject_rate_mnar(data, strength, seed=16)
        assert abs(report.missing_fraction - 0.45) < 0.04

    def test_injectors_only_clear_mask_bits(self):
        data = labeled_noise(n=100, seed=6)
        for injector, strength in ((inject_rate_mar, 0.2), (inject_rate_mnar, 0.05)):
            out, _ = injector(data, strength, seed=17)
            assert np.array_equal(out.values, data.values)
            assert not ((data.mask == 0) & (out.mask == 1)).any()

    def test_unlabeled_dataset_rejected(self):
        data = labeled_noise(n=10, seed=7)
        data = Dataset(data.values, data.mask, None, 0, data.ids)
        with pytest.raises(ValueError, match="label"):
            inject_rate_mar(data, 0.1, seed=0)

    @pytest.mark.parametrize("injector", [inject_rate_mar, inject_rate_mnar])
    @pytest.mark.parametrize("strength", [np.nan, np.inf, -np.inf])
    def test_non_finite_strength_rejected(self, injector, strength):
        data = labeled_noise(n=20, seed=8)
        with pytest.raises(ValueError,
                           match=f"^injector strength must be finite; got {strength}$"):
            injector(data, strength, seed=0)

    @pytest.mark.parametrize("injector", [inject_rate_mar, inject_rate_mnar])
    def test_negative_strength_flips_the_shift(self, injector):
        data = labeled_noise(n=20, seed=9)
        _, report = injector(data, -0.2, seed=0)
        _, mirror = injector(data, 0.2, seed=0)
        class2 = data.labels == 2
        np.testing.assert_array_equal(report.directions, mirror.directions)
        assert not np.array_equal(report.rates[class2], mirror.rates[class2])
        np.testing.assert_array_equal(report.rates[~class2], mirror.rates[~class2])


class TestTuning:
    def test_zero_target(self):
        data = labeled_noise(seed=8)
        assert tune_informativeness(data, "rate_mar", 0.0, seed=0) == 0.0

    def test_achieved_correlation_is_monotone_in_strength(self):
        data = labeled_noise(n=500, seed=9)
        from tck.synth import _label_rate_correlation
        grid = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8]
        achieved = [_label_rate_correlation("rate_mar", data.labels, 2, s,
                                            seed=1, replicates=10)
                    for s in grid]
        assert all(b >= a - 1e-9 for a, b in zip(achieved, achieved[1:]))

    @pytest.mark.parametrize("target", [0.2, 0.8])
    def test_targets_are_hit(self, target):
        data = labeled_noise(seed=10)
        strength = tune_informativeness(data, "rate_mar", target, seed=2)
        from tck.synth import _label_rate_correlation
        achieved = _label_rate_correlation("rate_mar", data.labels, 2,
                                           strength, seed=99, replicates=40)
        assert abs(achieved - target) < 0.02

    def test_unreachable_target_reports_maximum(self):
        # 20 classes: clamping caps the rate/label correlation well below 0.99
        data = labeled_noise(n=600, n_classes=20, seed=11)
        with pytest.raises(ValueError, match="achievable"):
            tune_informativeness(data, "rate_mnar", 0.99, seed=3)


def test_sampled_rates_have_both_directions():
    rng = np.random.default_rng(0)
    labels = np.array([1, 2] * 10)
    for _ in range(20):
        _, signs = _sample_rates("rate_mar", labels, 2, 0.1, rng)
        assert set(signs.tolist()) == {-1, 1}
