import dataclasses
import math
import warnings

import numpy as np
import pytest

import tck
from tck.data import Dataset
from tck.mixture import (BETA_EPS, COV_JITTER, GAUSSIAN_ONLY, MIXED_MODE,
                         FitReport, HyperParams, MixtureParams, e_step,
                         _init_params, _symmetric_kls, fit_map_em)
from tck.ensemble import (BaseModelSpec, EnsembleConfig, TrainedEnsemble,
                          load_ensemble, save_ensemble)
from tck.transform import TransformMatrix

from em_reference import (build_prior, component_kl, exact_mu, m_step,
                          map_objective, masked, prior_kernel, symmetric_kl)

HP = HyperParams(0.1, 0.1, 0.05)


def make_dataset(values, mask, labels=None, n_classes=0):
    values = np.asarray(values, dtype=float)
    return Dataset(values, np.asarray(mask), labels, n_classes,
                   np.arange(1, values.shape[0] + 1))


def random_instance(rng, n_max=40, v_max=3, t_max=10, observed=0.7):
    n = int(rng.integers(4, n_max + 1))
    v = int(rng.integers(1, v_max + 1))
    t = int(rng.integers(2, t_max + 1))
    values = rng.normal(size=(n, v, t))
    mask = (rng.random((n, v, t)) < observed).astype(np.uint8)
    mask[:, :, 0] = 1  # keep every attribute observed somewhere
    return make_dataset(values, mask)


def random_params(rng, g, v, t, mode):
    theta = rng.dirichlet(np.ones(g))
    mu = rng.normal(size=(g, v, t))
    sigma2 = rng.uniform(0.5, 2.0, size=(g, v))
    beta = rng.uniform(0.2, 0.8, size=(g, v, t)) if mode == MIXED_MODE else None
    return MixtureParams(mode, theta, mu, sigma2, beta)


def prior_cov(prior, hp, v):
    """Attribute v's prior covariance, by the expression ``build_prior`` uses."""
    t_dim = prior.mean.shape[1]
    return prior.scale[v] * (prior_kernel(hp, t_dim) + COV_JITTER * np.eye(t_dim))


def naive_responsibilities(params, values, mask):
    """Direct per-cell product evaluation of component membership."""
    n, v_dim, t_dim = values.shape
    out = np.zeros((n, params.n_components))
    for i in range(n):
        weights = []
        for g in range(params.n_components):
            w = params.theta[g]
            for v in range(v_dim):
                sd = math.sqrt(params.sigma2[g, v])
                for t in range(t_dim):
                    if mask[i, v, t]:
                        x = values[i, v, t]
                        dens = (math.exp(-0.5 * ((x - params.mu[g, v, t]) / sd) ** 2)
                                / (sd * math.sqrt(2 * math.pi)))
                        w *= dens
                        if params.mode == MIXED_MODE:
                            w *= params.beta[g, v, t]
                    elif params.mode == MIXED_MODE:
                        w *= 1 - params.beta[g, v, t]
            weights.append(w)
        out[i] = np.array(weights) / sum(weights)
    return out


class TestPrior:
    def test_kernel_diagonal_is_b0(self):
        np.testing.assert_allclose(np.diag(prior_kernel(HyperParams(0.5, 0.37, 0.1), 9)),
                                   0.37)

    def test_kernel_off_diagonal_value(self):
        lag2 = np.diag(prior_kernel(HyperParams(0.1, 1.0, 0.1), 8), k=2)
        np.testing.assert_allclose(lag2, 0.6703200460356393, rtol=1e-12)

    def test_huge_decay_gives_diagonal_precisions(self):
        ds = random_instance(np.random.default_rng(2))
        prior = build_prior(ds, HyperParams(1e6, 1.0, 0.1))
        off = prior.cov_inv - prior.cov_inv * np.eye(ds.length)
        assert np.abs(off).max() < 1e-300

    @pytest.mark.parametrize("hp", [HyperParams(0.5, 0.37, 0.1), HyperParams(1.0, 0.05, 0.1),
                                    HyperParams(0.1, 0.8, 0.1)])
    def test_precisions_invert_the_kernel_covariances(self, hp):
        values = np.random.default_rng(3).normal(size=(10, 2, 8))
        ds = make_dataset(values, np.ones_like(values))
        prior = build_prior(ds, hp)
        for v in range(ds.n_attributes):
            np.testing.assert_allclose(prior.cov_inv[v] @ prior_cov(prior, hp, v),
                                       np.eye(ds.length), atol=1e-9)
            _, logdet = np.linalg.slogdet(prior_cov(prior, hp, v))
            np.testing.assert_allclose(prior.cov_logdet[v], logdet, rtol=1e-10)

    def test_unobserved_attribute_rejected(self):
        values = np.zeros((3, 2, 4))
        mask = np.ones((3, 2, 4), dtype=np.uint8)
        mask[:, 1, :] = 0
        with pytest.raises(ValueError, match="attribute 2"):
            build_prior(make_dataset(values, mask), HP)

    def test_empty_time_step_falls_back_to_grand_mean(self):
        values = np.array([[[1.0, 5.0]], [[3.0, 7.0]]])
        mask = np.array([[[1, 0]], [[1, 0]]], dtype=np.uint8)
        prior = build_prior(make_dataset(values, mask), HP)
        assert prior.mean[0, 0] == 2.0
        assert prior.mean[0, 1] == 2.0  # nothing observed at t=1


class TestEStep:
    def test_single_component_gives_unit_posterior(self):
        ds = random_instance(np.random.default_rng(3))
        params = random_params(np.random.default_rng(4), 1, ds.n_attributes,
                               ds.length, GAUSSIAN_ONLY)
        post = e_step(params, ds)
        np.testing.assert_array_equal(post, np.ones((ds.n, 1)))

    def test_identical_components_split_evenly(self):
        ds = random_instance(np.random.default_rng(5))
        one = random_params(np.random.default_rng(6), 1, ds.n_attributes,
                            ds.length, MIXED_MODE)
        params = MixtureParams(MIXED_MODE, np.array([0.5, 0.5]),
                               np.repeat(one.mu, 2, axis=0),
                               np.repeat(one.sigma2, 2, axis=0),
                               np.repeat(one.beta, 2, axis=0))
        post = e_step(params, ds)
        np.testing.assert_allclose(post, 0.5, atol=1e-12)

    @pytest.mark.parametrize("mode", [GAUSSIAN_ONLY, MIXED_MODE])
    def test_matches_naive_product_evaluation(self, mode):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ds = random_instance(rng, n_max=6, v_max=2, t_max=4)
            g = int(rng.integers(1, 4))
            params = random_params(rng, g, ds.n_attributes, ds.length, mode)
            post = e_step(params, ds)
            expected = naive_responsibilities(params, ds.values, ds.mask)
            np.testing.assert_allclose(post, expected, atol=1e-10)

    def test_rows_are_simplex_points(self):
        rng = np.random.default_rng(8)
        ds = random_instance(rng)
        params = random_params(rng, 4, ds.n_attributes, ds.length, MIXED_MODE)
        post = e_step(params, ds)
        assert (post >= 0).all() and (post <= 1).all()
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-10)

    def test_fully_missing_series(self):
        values = np.zeros((1, 2, 3))
        mask = np.zeros((1, 2, 3), dtype=np.uint8)
        rng = np.random.default_rng(9)
        gauss = random_params(rng, 3, 2, 3, GAUSSIAN_ONLY)
        series = Dataset(values, mask, None, 0, np.array([1]))
        np.testing.assert_allclose(e_step(gauss, series)[0], gauss.theta,
                                   atol=1e-12)
        mixed = random_params(rng, 3, 2, 3, MIXED_MODE)
        expected = gauss.theta * np.prod(1 - mixed.beta, axis=(1, 2))
        np.testing.assert_allclose(
            e_step(MixtureParams(MIXED_MODE, gauss.theta, mixed.mu,
                                 mixed.sigma2, mixed.beta), series)[0],
            expected / expected.sum(), atol=1e-12)

    def test_training_series_rescored_identically(self):
        rng = np.random.default_rng(10)
        ds = random_instance(rng, n_max=12)
        params, _ = fit_map_em(ds, 2, HP, seed=0, mode=MIXED_MODE)
        post = e_step(params, ds)
        again = e_step(params, ds.take([3]))[0]
        np.testing.assert_array_equal(again, post[3])

    @pytest.mark.parametrize("mode", [GAUSSIAN_ONLY, MIXED_MODE])
    def test_rows_scored_identically_in_any_batch(self, mode):
        rng = np.random.default_rng(24)
        n, v, t = 61, 3, 20
        values = rng.normal(size=(n, v, t))
        ds = make_dataset(values, (rng.random((n, v, t)) < 0.7).astype(np.uint8))
        params = random_params(rng, 9, v, t, mode)
        full = e_step(params, ds)
        for size in (1, 2, 7):
            for start in range(0, n, size):
                rows = np.arange(start, min(start + size, n))
                np.testing.assert_array_equal(e_step(params, ds.take(rows)), full[rows])


class TestMStep:
    def _setup(self, post, mask_cell, mode=MIXED_MODE):
        values = np.ones((2, 1, 2))
        mask = np.ones((2, 1, 2), dtype=np.uint8)
        mask[0, 0, 1] = mask_cell[0]
        mask[1, 0, 1] = mask_cell[1]
        ds = make_dataset(values, mask)
        prior = build_prior(ds, HP)
        params = random_params(np.random.default_rng(0), post.shape[1], 1, 2, mode)
        return m_step(post, ds, prior, HP, params)

    def test_beta_unweighted_mean(self):
        out = self._setup(np.ones((2, 1)), (1, 0))
        np.testing.assert_allclose(out.beta[0, 0, 1], 0.5, atol=1e-10)

    def test_beta_clamped_when_fully_observed(self):
        out = self._setup(np.ones((2, 1)), (1, 1))
        np.testing.assert_allclose(out.beta, 1 - BETA_EPS)

    def test_beta_weighted_mean(self):
        post = np.array([[0.2], [0.8]])
        out = self._setup(post, (1, 0))
        np.testing.assert_allclose(out.beta[0, 0, 1], 0.2, atol=1e-10)

    def test_mu_without_data_is_prior_mean_exactly(self):
        rng = np.random.default_rng(11)
        ds = random_instance(rng, n_max=8)
        # component 2 gets zero responsibility everywhere
        post = np.zeros((ds.n, 2))
        post[:, 0] = 1.0
        prior = build_prior(ds, HP)
        params = random_params(rng, 2, ds.n_attributes, ds.length, GAUSSIAN_ONLY)
        out = m_step(post, ds, prior, HP, params)
        np.testing.assert_array_equal(out.mu[1], prior.mean)

    @pytest.mark.parametrize("mode", [GAUSSIAN_ONLY, MIXED_MODE])
    def test_matches_direct_reference(self, mode):
        rng = np.random.default_rng(25)
        ds = random_instance(rng, n_max=30, t_max=8)
        v_dim, t_dim, g_dim = ds.n_attributes, ds.length, 3
        params = random_params(rng, g_dim, v_dim, t_dim, mode)
        post = rng.dirichlet(np.ones(g_dim), size=ds.n)
        post[:, 2] = 0.0  # component 2 gets zero responsibility
        post /= post.sum(axis=1, keepdims=True)
        prior = build_prior(ds, HP)
        out = m_step(post, ds, prior, HP, params)

        weight = post.sum(axis=0)
        np.testing.assert_allclose(out.theta, weight / ds.n, rtol=1e-10)
        for g in range(g_dim):
            for v in range(v_dim):
                w = post[:, g, None] * ds.mask[:, v, :]           # (N, T) cell weights
                x = np.where(ds.mask[:, v, :] == 1, ds.values[:, v, :], 0.0)
                resid = np.sum(w * (x - params.mu[g, v]) ** 2)
                sigma2 = (HP.n0 * prior.scale[v] ** 2 + resid) / (HP.n0 + w.sum())
                np.testing.assert_allclose(out.sigma2[g, v], sigma2, rtol=1e-10)
                d = w.sum(axis=0)
                if d.sum() == 0:
                    mu = prior.mean[v]
                else:
                    s_inv = np.linalg.inv(prior_cov(prior, HP, v))
                    rhs = s_inv @ prior.mean[v] + (w * x).sum(axis=0) / sigma2
                    mu = np.linalg.solve(s_inv + np.diag(d) / sigma2, rhs)
                np.testing.assert_allclose(out.mu[g, v], mu, rtol=1e-10)
                if mode == MIXED_MODE:
                    rate = d / weight[g] if weight[g] > 0 else np.zeros(t_dim)
                    np.testing.assert_allclose(
                        out.beta[g, v], np.clip(rate, BETA_EPS, 1 - BETA_EPS), rtol=1e-10)
        if mode == GAUSSIAN_ONLY:
            assert out.beta is None

    # m_step solves through the explicitly inverted prior covariance, whose
    # condition number here reaches 3.8e9 (a0 = 1e-4, b0 = 0.8, T = 50). The
    # worst error measured over these cases is 5.2e-9 (a0 = 0.01), so 2e-8
    # leaves a margin of about 4; at a0 = 1 (condition number 6) it is
    # 1.0e-15, under 1e-14. A more stable solve tightens these bounds.
    @pytest.mark.parametrize("a0, bound", [(1e-4, 2e-8), (1e-3, 2e-8), (1e-2, 2e-8),
                                           (0.1, 2e-8), (1.0, 1e-14)])
    def test_first_sweep_mu_is_near_the_exact_solution(self, a0, bound):
        params = dataclasses.replace(tck.default_var1_params(), n_per_class=30)
        data, _ = tck.standardize(tck.inject_var1_mnar(tck.gen_var1(params, 0)[0], seed=1))
        window = data.take(np.arange(48))
        window = make_dataset(window.values[:, :, 5:45], window.mask[:, :, 5:45])
        hp = HyperParams(a0, 0.8, 0.1)
        for ds in (data, window):
            prior = build_prior(ds, hp)
            restart = _init_params(*masked(ds), 10, prior, MIXED_MODE,
                                   np.random.default_rng(0))
            post = e_step(restart, ds)
            out = m_step(post, ds, prior, hp, restart)
            exact = exact_mu(post, ds, prior, hp, out.sigma2)
            error = np.abs(out.mu - exact).max() / np.abs(exact).max()
            assert error < bound, f"a0={a0}: relative error {float(error):.2e}"

    # The M-step after ``sweeps`` sweeps of a fit (tol=0 runs them all), under
    # the first sweep's bound. Measured: 4.1e-9, 1.03e-8 and 6.1e-9 at
    # a0 = 1e-3; 1.40e-8, 1.12e-8 and 1.24e-8 at a0 = 0.01.
    @pytest.mark.parametrize("sweeps", [1, 5, 29])
    @pytest.mark.parametrize("a0", [1e-3, 1e-2])
    def test_later_sweep_mu_is_near_the_exact_solution(self, a0, sweeps):
        params = dataclasses.replace(tck.default_var1_params(), n_per_class=30)
        ds, _ = tck.standardize(tck.inject_var1_mnar(tck.gen_var1(params, 0)[0], seed=1))
        hp = HyperParams(a0, 0.8, 0.1)
        fitted, report = fit_map_em(ds, 10, hp, seed=0, mode=MIXED_MODE,
                                    max_iter=sweeps, tol=0.0)
        assert len(report.objectives) == sweeps
        prior = build_prior(ds, hp)
        post = e_step(fitted, ds)
        out = m_step(post, ds, prior, hp, fitted)
        exact = exact_mu(post, ds, prior, hp, out.sigma2)
        error = np.abs(out.mu - exact).max() / np.abs(exact).max()
        assert error < 2e-8, f"a0={a0}, {sweeps} sweeps: relative error {float(error):.2e}"


class TestObjective:
    def test_single_component_matches_direct_evaluation(self):
        rng = np.random.default_rng(12)
        ds = random_instance(rng, n_max=5, v_max=2, t_max=4)
        params = random_params(rng, 1, ds.n_attributes, ds.length, GAUSSIAN_ONLY)
        prior = build_prior(ds, HP)
        got = map_objective(params, ds, prior, HP)

        loglik = 0.0
        for i in range(ds.n):
            for v in range(ds.n_attributes):
                sd = math.sqrt(params.sigma2[0, v])
                for t in range(ds.length):
                    if ds.mask[i, v, t]:
                        x = ds.values[i, v, t]
                        loglik += (-0.5 * math.log(2 * math.pi) - math.log(sd)
                                   - 0.5 * ((x - params.mu[0, v, t]) / sd) ** 2)
        prior_term = 0.0
        for v in range(ds.n_attributes):
            diff = params.mu[0, v] - prior.mean[v]
            quad = diff @ np.linalg.solve(prior_cov(prior, HP, v), diff)
            _, logdet = np.linalg.slogdet(prior_cov(prior, HP, v))
            prior_term += -0.5 * (ds.length * math.log(2 * math.pi) + logdet + quad)
            s2 = params.sigma2[0, v]
            prior_term += (-0.5 * HP.n0 * math.log(s2)
                           - HP.n0 * prior.scale[v] ** 2 / (2 * s2))
        np.testing.assert_allclose(got, loglik + prior_term, rtol=1e-10)

    def test_identical_component_split_leaves_likelihood_unchanged(self):
        rng = np.random.default_rng(13)
        ds = random_instance(rng, n_max=6)
        prior = build_prior(ds, HP)
        one = random_params(rng, 1, ds.n_attributes, ds.length, GAUSSIAN_ONLY)
        split = MixtureParams(GAUSSIAN_ONLY, np.array([0.5, 0.5]),
                              np.repeat(one.mu, 2, axis=0),
                              np.repeat(one.sigma2, 2, axis=0), None)
        a = map_objective(one, ds, prior, HP)
        b = map_objective(split, ds, prior, HP)
        # the duplicated component doubles the prior term only
        extra = 0.0
        for v in range(ds.n_attributes):
            diff = one.mu[0, v] - prior.mean[v]
            quad = diff @ np.linalg.solve(prior_cov(prior, HP, v), diff)
            _, logdet = np.linalg.slogdet(prior_cov(prior, HP, v))
            extra += -0.5 * (ds.length * math.log(2 * math.pi) + logdet + quad)
            extra += (-0.5 * HP.n0 * math.log(one.sigma2[0, v])
                      - HP.n0 * prior.scale[v] ** 2 / (2 * one.sigma2[0, v]))
        np.testing.assert_allclose(b - a, extra, rtol=1e-9)

    def test_underflowing_series_is_named_without_warnings(self):
        values = np.random.default_rng(25).normal(size=(3, 1, 2))
        values[1, 0, 1] = 1e100         # the largest value Dataset accepts
        ds = make_dataset(values, np.ones_like(values))
        params = MixtureParams(GAUSSIAN_ONLY, np.array([0.5, 0.5]),
                               np.zeros((2, 1, 2)), np.full((2, 1), 1e-110), None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="^posterior underflow for series index 1$"):
                map_objective(params, ds, build_prior(ds, HP), HP)

    def test_scaling_variances_changes_objective(self):
        rng = np.random.default_rng(14)
        ds = random_instance(rng, n_max=6)
        prior = build_prior(ds, HP)
        params = random_params(rng, 2, ds.n_attributes, ds.length, GAUSSIAN_ONLY)
        doubled = MixtureParams(GAUSSIAN_ONLY, params.theta, params.mu,
                                4.0 * params.sigma2, None)
        a = map_objective(params, ds, prior, HP)
        b = map_objective(doubled, ds, prior, HP)
        assert abs(a - b) > 1e-6


class TestFit:
    def test_single_component_converges_in_two_sweeps(self):
        ds = random_instance(np.random.default_rng(15), n_max=20)
        two, _ = fit_map_em(ds, 1, HP, seed=3, max_iter=2)
        fixed, _ = fit_map_em(ds, 1, HP, seed=3, max_iter=50, tol=1e-14)
        np.testing.assert_allclose(two.mu, fixed.mu, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(two.sigma2, fixed.sigma2, rtol=1e-10)
        np.testing.assert_allclose(two.theta, fixed.theta, rtol=1e-12)

    def test_separated_blobs_are_recovered(self):
        rng = np.random.default_rng(16)
        n_half, v, t = 15, 1, 4
        blob_a = rng.normal(5.0, 0.1, size=(n_half, v, t))
        blob_b = rng.normal(-5.0, 0.1, size=(n_half, v, t))
        values = np.concatenate([blob_a, blob_b])
        ds = make_dataset(values, np.ones_like(values))
        params, _ = fit_map_em(ds, 2, HP, seed=1)
        post = e_step(params, ds)
        first, second = post[:n_half].argmax(axis=1), post[n_half:].argmax(axis=1)
        assert (first == first[0]).all() and (second == second[0]).all()
        assert first[0] != second[0]
        assert post[:n_half, first[0]].min() > 0.99
        assert post[n_half:, second[0]].min() > 0.99

    @pytest.mark.parametrize("mode", [GAUSSIAN_ONLY, MIXED_MODE])
    def test_objective_is_monotone(self, mode):
        rng = np.random.default_rng(17)
        for trial in range(8):
            ds = random_instance(rng, n_max=20, v_max=2, t_max=6)
            g = int(rng.integers(1, 4))
            _, report = fit_map_em(ds, g, HP, seed=trial, mode=mode)
            trace = report.objectives
            diffs = np.diff(trace)
            assert (diffs >= -1e-8 * np.abs(np.array(trace[:-1]))).all()

    @pytest.mark.parametrize("mode", [GAUSSIAN_ONLY, MIXED_MODE])
    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_matches_loop_over_public_steps(self, mode, max_iter):
        ds = random_instance(np.random.default_rng(26), n_max=30)
        params, report = fit_map_em(ds, 3, HP, seed=4, mode=mode,
                                    max_iter=max_iter, tol=0.0)
        ref, _ = fit_map_em(ds, 3, HP, seed=4, mode=mode, max_iter=0)  # the restart
        prior = build_prior(ds, HP)
        expected = []
        for _ in range(max_iter):
            ref = m_step(e_step(ref, ds), ds, prior, HP, ref)
            expected.append(map_objective(ref, ds, prior, HP))
        # The fit scores its sweeps by GEMM, the public steps by einsum: the
        # two agree to rounding, not bit for bit.
        np.testing.assert_allclose(report.objectives, expected, rtol=1e-12, atol=0)
        fields = ("theta", "mu", "sigma2") + (("beta",) if mode == MIXED_MODE else ())
        for field in fields:
            np.testing.assert_allclose(getattr(params, field), getattr(ref, field),
                                       rtol=1e-12, atol=0, err_msg=field)

    def test_deterministic_given_seed(self):
        ds = random_instance(np.random.default_rng(18))
        a_params, a_report = fit_map_em(ds, 3, HP, seed=5, mode=MIXED_MODE)
        b_params, b_report = fit_map_em(ds, 3, HP, seed=5, mode=MIXED_MODE)
        assert np.array_equal(e_step(a_params, ds), e_step(b_params, ds))
        assert np.array_equal(a_params.mu, b_params.mu)
        assert a_report == b_report

    def test_mixed_mode_reduces_to_gaussian_when_fully_observed(self):
        rng = np.random.default_rng(19)
        values = rng.normal(size=(20, 2, 5))
        ds = make_dataset(values, np.ones_like(values))
        for it in range(1, 6):
            g_params, _ = fit_map_em(ds, 3, HP, seed=2, max_iter=it)
            m_params, _ = fit_map_em(ds, 3, HP, seed=2, mode=MIXED_MODE,
                                     max_iter=it)
            np.testing.assert_allclose(e_step(m_params, ds), e_step(g_params, ds),
                                       atol=1e-9)

    def test_too_few_series_rejected(self):
        ds = random_instance(np.random.default_rng(20), n_max=4)
        with pytest.raises(ValueError):
            fit_map_em(ds, ds.n + 1, HP, seed=0)


class TestFitReport:
    def test_zero_tol_runs_every_sweep_unconverged(self):
        ds = random_instance(np.random.default_rng(27), n_max=20)
        _, report = fit_map_em(ds, 2, HP, seed=0, max_iter=7, tol=0.0)
        assert len(report.objectives) == 7 and not report.converged

    def test_no_sweep_reports_nothing_converged(self):
        ds = random_instance(np.random.default_rng(28), n_max=20)
        _, report = fit_map_em(ds, 2, HP, seed=0, max_iter=0)
        assert report == FitReport((), False)

    @pytest.mark.parametrize("mode", [GAUSSIAN_ONLY, MIXED_MODE])
    def test_a_stop_on_the_last_allowed_sweep_is_converged(self, mode):
        ds = random_instance(np.random.default_rng(29), n_max=30)
        free_params, free = fit_map_em(ds, 3, HP, seed=6, mode=mode, max_iter=50)
        k = len(free.objectives)
        assert free.converged and 1 < k < 50
        params, capped = fit_map_em(ds, 3, HP, seed=6, mode=mode, max_iter=k)
        assert capped == free
        np.testing.assert_array_equal(params.mu, free_params.mu)
        _, short = fit_map_em(ds, 3, HP, seed=6, mode=mode, max_iter=k - 1)
        assert short == FitReport(free.objectives[:-1], False)

    def test_report_is_a_frozen_public_type(self):
        ds = random_instance(np.random.default_rng(30), n_max=20)
        _, report = fit_map_em(ds, 2, HP, seed=0)
        assert tck.FitReport is FitReport
        assert isinstance(report.objectives, tuple)
        assert [f.name for f in dataclasses.fields(report)] == ["objectives",
                                                                "converged"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.converged = not report.converged


class TestDivergence:
    def test_self_divergence_is_zero(self):
        params = random_params(np.random.default_rng(21), 3, 2, 4, GAUSSIAN_ONLY)
        assert component_kl(params, 1, 1) == 0.0
        assert symmetric_kl(params, 2, 2) == 0.0

    def test_unit_variance_mean_shift(self):
        params = MixtureParams(GAUSSIAN_ONLY, np.array([0.5, 0.5]),
                               np.array([[[0.0]], [[2.0]]]),
                               np.ones((2, 1)), None)
        assert component_kl(params, 0, 1) == pytest.approx(2.0)

    def test_variance_ratio_case(self):
        params = MixtureParams(GAUSSIAN_ONLY, np.array([0.5, 0.5]),
                               np.zeros((2, 1, 1)),
                               np.array([[1.0], [4.0]]), None)
        assert component_kl(params, 0, 1) == pytest.approx(0.3181471805599453)
        assert component_kl(params, 1, 0) == pytest.approx(0.8068528194400547)
        assert symmetric_kl(params, 0, 1) == pytest.approx(0.5625)

    def test_nonnegative_and_symmetric(self):
        rng = np.random.default_rng(22)
        params = random_params(rng, 4, 2, 3, GAUSSIAN_ONLY)
        for i in range(4):
            for j in range(4):
                assert component_kl(params, i, j) >= 0
                assert symmetric_kl(params, i, j) == symmetric_kl(params, j, i)

    def test_divergences_to_many_equal_per_pair_values(self):
        rng = np.random.default_rng(24)
        for g, v, t in ((3, 1, 1), (6, 2, 7), (9, 10, 40), (12, 3, 17)):
            params = random_params(rng, g, v, t, GAUSSIAN_ONLY)
            for i in range(g):
                others = np.array([j for j in range(g) if j != i])
                np.testing.assert_array_equal(
                    _symmetric_kls(params, i, others),
                    [symmetric_kl(params, i, int(j)) for j in others])


def test_params_round_trip_is_bit_exact(tmp_path):
    """Parameters, subsample ids, posteriors and transforms survive an
    ensemble save/load bit for bit, in both modes."""
    rng = np.random.default_rng(23)
    for mode in (GAUSSIAN_ONLY, MIXED_MODE):
        specs, fitted, posts, transforms = [], [], [], []
        for q1, (g, attributes, window) in enumerate(
                [(3, [0, 2], (1, 5)), (2, [1], (0, 3)), (4, [0, 1, 2], (2, 6))],
                start=1):
            params = random_params(rng, g, len(attributes), window[1] - window[0],
                                   mode)
            specs.append(BaseModelSpec(q1, g, HP, *window, np.array(attributes),
                                       np.sort(rng.choice(50, 30 + q1, replace=False)),
                                       int(rng.integers(0, 2**63))))
            fitted.append(params)
            posts.append(rng.dirichlet(np.ones(g), size=8))
            transforms.append(TransformMatrix(rng.dirichlet(np.ones(2), size=g),
                                              rng.uniform(size=g)))
        ens = TrainedEnsemble(EnsembleConfig(mode=mode, component_counts=(2, 3, 4)),
                              8, 3, 6, specs, fitted, posts, transforms,
                              [(2, 3, "posterior underflow")])
        save_ensemble(ens, tmp_path / mode)
        back = load_ensemble(tmp_path / mode)
        assert back.config == ens.config
        assert back.failed == ens.failed
        assert back.model_count == ens.model_count
        for i, params in enumerate(fitted):
            got, spec = back.params[i], back.specs[i]
            assert got.mode == params.mode
            np.testing.assert_array_equal(got.theta, params.theta)
            np.testing.assert_array_equal(got.mu, params.mu)
            np.testing.assert_array_equal(got.sigma2, params.sigma2)
            if mode == MIXED_MODE:
                np.testing.assert_array_equal(got.beta, params.beta)
            else:
                assert got.beta is None
            assert (spec.q1, spec.q2, spec.hp, spec.t_start, spec.t_stop,
                    spec.sub_seed) == (specs[i].q1, specs[i].q2, HP,
                                       specs[i].t_start, specs[i].t_stop,
                                       specs[i].sub_seed)
            np.testing.assert_array_equal(spec.attributes, specs[i].attributes)
            np.testing.assert_array_equal(spec.subsample_ids,
                                          specs[i].subsample_ids)
            np.testing.assert_array_equal(back.posteriors[i], posts[i])
            np.testing.assert_array_equal(back.transforms[i].weights,
                                          transforms[i].weights)
            np.testing.assert_array_equal(back.transforms[i].row_evidence,
                                          transforms[i].row_evidence)
