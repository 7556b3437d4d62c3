"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line per criterion (run with -s to see them
as they happen). The benchmark reproduction regenerates its data from fixed
seeds and takes a few minutes; everything else is fast.
"""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from tck.data import Dataset, labels_to_onehot, standardize
from tck.ensemble import EnsembleConfig, kernel_test, train_ensemble
from tck.experiment import reproduce_var1
from tck.mixture import (GAUSSIAN_ONLY, MIXED_MODE, HyperParams,
                         MixtureParams, _symmetric_kls, e_step, fit_map_em)
from tck.synth import (Var1Params, default_var1_params, gen_var1,
                       inject_rate_mar, inject_var1_mnar,
                       tune_informativeness)
from tck.transform import (TransformMatrix, apply_transform,
                           semisupervised_transform, supervised_transform)

from em_reference import component_kl

HP = HyperParams(0.1, 0.1, 0.05)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name} failed: {detail}"


# ------------------------------------------------------------
# Criterion 1: benchmark table reproduction
# ------------------------------------------------------------

@pytest.mark.slow
def test_var1_benchmark_reproduction():
    result = reproduce_var1(seed=0, replicates=3, n_jobs=1)
    for row in result["rows"]:
        report(f"benchmark {row['variant']} within +-0.05 of {row['target']}",
               row["ok"], f"measured {row['accuracy']:.3f}")
    for check in result["checks"]:
        report(f"benchmark ordering: {check['check']}", check["ok"])


# ------------------------------------------------------------
# Criterion 2: missingness-injection calibration
# ------------------------------------------------------------

def test_threshold_injector_calibration():
    # 1000 series per class pushes the estimator noise well below the band
    params = Var1Params(default_var1_params().classes, n_per_class=1000)
    train, _ = gen_var1(params, seed=4)
    injected = inject_var1_mnar(train, seed=40)
    for label in (1, 2):
        rows = injected.labels == label
        missing = 1.0 - injected.mask[rows].mean()
        report(f"threshold injector: class {label} missing 0.63 +- 0.03",
               abs(missing - 0.63) <= 0.03, f"measured {missing:.3f}")


def test_rate_injector_calibration():
    rng = np.random.default_rng(8)
    n = 1000
    values = rng.normal(size=(n, 2, 10))
    data = Dataset(values, np.ones_like(values, dtype=np.uint8),
                   (np.arange(n) % 2 + 1).astype(np.int64), 2,
                   np.arange(1, n + 1))
    for target in (0.2, 0.4, 0.6, 0.8):
        strength = tune_informativeness(data, "rate_mar", target, seed=80)
        achieved, missing = [], []
        for rep in range(10):
            out, info = inject_rate_mar(data, strength, seed=800 + rep)
            per_attr = [abs(np.corrcoef(info.rates[:, v], data.labels)[0, 1])
                        for v in range(2)]
            achieved.append(np.mean(per_attr))
            missing.append(info.missing_fraction)
        corr, rate = float(np.mean(achieved)), float(np.mean(missing))
        report(f"rate injector: |corr| target {target} +- 0.02",
               abs(corr - target) <= 0.02, f"achieved {corr:.3f}")
        report(f"rate injector: overall missing 0.50 +- 0.02 at target {target}",
               abs(rate - 0.50) <= 0.02, f"measured {rate:.3f}")


# ------------------------------------------------------------
# Criterion 3: EM correctness on randomized instances
# ------------------------------------------------------------

def _random_instance(rng):
    n = int(rng.integers(6, 41))
    v = int(rng.integers(1, 4))
    t = int(rng.integers(2, 11))
    values = rng.normal(size=(n, v, t))
    mask = (rng.random((n, v, t)) < 0.75).astype(np.uint8)
    mask[:, :, 0] = 1
    return Dataset(values, mask, None, 0, np.arange(1, n + 1))


def _naive_responsibilities(params, values, mask):
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
                        w *= (math.exp(-0.5 * ((x - params.mu[g, v, t]) / sd) ** 2)
                              / (sd * math.sqrt(2 * math.pi)))
                        if params.mode == MIXED_MODE:
                            w *= params.beta[g, v, t]
                    elif params.mode == MIXED_MODE:
                        w *= 1.0 - params.beta[g, v, t]
            weights.append(w)
        out[i] = np.array(weights) / sum(weights)
    return out


def test_em_objective_monotone_and_estep_exact():
    rng = np.random.default_rng(300)
    worst_drop, worst_estep = 0.0, 0.0
    for trial in range(50):
        mode = MIXED_MODE if trial % 2 else GAUSSIAN_ONLY
        data = _random_instance(rng)
        g = int(rng.integers(1, 5))
        params, fit = fit_map_em(data, g, HP, seed=trial, mode=mode)
        trace = np.array(fit.objectives)
        if len(trace) > 1:
            drops = np.diff(trace) / np.maximum(1.0, np.abs(trace[:-1]))
            worst_drop = min(worst_drop, float(drops.min()))
        direct = _naive_responsibilities(params, data.values, data.mask)
        err = np.abs(e_step(params, data) - direct).max()
        worst_estep = max(worst_estep, float(err))
    report("EM objective non-decreasing within 1e-8 on 50 instances",
           worst_drop >= -1e-8, f"worst relative drop {worst_drop:.2e}")
    report("e_step matches direct evaluation within 1e-10",
           worst_estep <= 1e-10, f"worst error {worst_estep:.2e}")


def test_mixed_mode_reduces_to_gaussian_on_complete_data():
    rng = np.random.default_rng(301)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(8, 30))
        values = rng.normal(size=(n, 2, 6))
        data = Dataset(values, np.ones_like(values, dtype=np.uint8), None, 0,
                       np.arange(1, n + 1))
        g = int(rng.integers(1, 5))
        for iters in (1, 2, 4):
            params_g, _ = fit_map_em(data, g, HP, seed=trial, mode=GAUSSIAN_ONLY,
                                     max_iter=iters)
            params_m, _ = fit_map_em(data, g, HP, seed=trial, mode=MIXED_MODE,
                                     max_iter=iters)
            post_g, post_m = e_step(params_g, data), e_step(params_m, data)
            worst = max(worst, float(np.abs(post_m - post_g).max()))
    report("mixed-mode responsibilities equal gaussian-only on complete data "
           "(beta at 1-eps) within 1e-9", worst <= 1e-9, f"worst {worst:.2e}")


# ------------------------------------------------------------
# Criterion 4: kernel matrix properties
# ------------------------------------------------------------

def test_kernel_matrix_properties():
    rng = np.random.default_rng(400)
    for trial in range(3):
        n = int(rng.integers(25, 40))
        centers = rng.normal(scale=2.0, size=(2, 1, 1))
        values = rng.normal(size=(n, 2, 12)) + centers[np.arange(n) % 2]
        mask = (rng.random((n, 2, 12)) > 0.3).astype(np.uint8)
        mask[:, :, 0] = 1
        data = standardize(Dataset(values, mask, None, 0,
                                   np.arange(1, n + 1)))[0]
        cfg = EnsembleConfig(n_init=10, component_counts=(2, 3), t_min=4,
                             seed=trial, mode=MIXED_MODE if trial % 2 else GAUSSIAN_ONLY)
        ens, km = train_ensemble(data, cfg)
        k = km.values
        count = km.model_count
        assert count >= 20
        report(f"kernel[{trial}] exactly symmetric",
               bool(np.array_equal(k, k.T)))
        report(f"kernel[{trial}] diagonal equals model count exactly",
               bool((np.diag(k) == count).all()))
        report(f"kernel[{trial}] entries within [0, model count]",
               bool(k.min() >= -1e-12 and k.max() <= count + 1e-9),
               f"range [{k.min():.3e}, {k.max():.6f}]")
        min_eig = float(np.linalg.eigvalsh(k).min())
        report(f"kernel[{trial}] PSD within -1e-8 * model count",
               min_eig >= -1e-8 * count, f"min eigenvalue {min_eig:.2e}")
        err = float(np.abs(kernel_test(ens, data).values - k).max())
        report(f"kernel[{trial}] test pass on training data within 1e-12",
               err <= 1e-12, f"max deviation {err:.2e}")


# ------------------------------------------------------------
# Criterion 5: posterior transform properties
# ------------------------------------------------------------

def test_transform_properties():
    post = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    tm = supervised_transform(post, labels_to_onehot(np.array([1, 2, 1]), 2))
    report("supervised transform is identity on the aligned one-hot case",
           bool(np.allclose(tm.weights, np.eye(2))))

    rng = np.random.default_rng(500)
    post = rng.dirichlet(np.ones(4), size=12)
    labels = (np.arange(12) % 2 + 1).astype(np.int64)
    onehot = labels_to_onehot(labels, 2)
    params = MixtureParams(GAUSSIAN_ONLY, np.full(4, 0.25),
                           rng.normal(size=(4, 1, 3)),
                           rng.uniform(0.5, 2.0, size=(4, 1)), None)
    semi = semisupervised_transform(post, onehot, params, h=1e-4)
    full = supervised_transform(post, onehot)
    report("semi-supervised equals supervised when every series is labeled",
           bool(np.array_equal(semi.weights, full.weights)))

    ok = True
    for _ in range(25):
        g = int(rng.integers(2, 6))
        weights = rng.dirichlet(np.ones(3), size=g)
        tm_random = TransformMatrix(weights, weights.sum(axis=1))
        out = apply_transform(tm_random, rng.dirichlet(np.ones(g)))
        ok &= bool((out >= -1e-15).all() and abs(out.sum() - 1.0) <= 1e-10)
    report("transformed posteriors stay on the probability simplex", ok)

    line = MixtureParams(GAUSSIAN_ONLY, np.full(3, 1 / 3),
                         np.array([[[0.0]], [[2.0]], [[10.0]]]),
                         np.ones((3, 1)), None)
    anchored_post = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    anchored_labels = labels_to_onehot(np.array([1, 2]), 2)
    tm = semisupervised_transform(anchored_post, anchored_labels, line, h=0.1)
    to_left, to_right = _symmetric_kls(line, 1, [0, 2])
    report("KL anchoring copies the near anchor (means 0, 2, 10)",
           bool(np.array_equal(tm.weights[1], tm.weights[0])),
           f"divergences {to_left:.1f} vs {to_right:.1f}")


# ------------------------------------------------------------
# Criterion 6: closed-form KL against numerical integration
# ------------------------------------------------------------

def _quadrature_kl(params, i, j):
    total = 0.0
    for v in range(params.n_attributes):
        si, sj = math.sqrt(params.sigma2[i, v]), math.sqrt(params.sigma2[j, v])
        for t in range(params.length):
            mi, mj = params.mu[i, v, t], params.mu[j, v, t]

            def integrand(x):
                pi = math.exp(-0.5 * ((x - mi) / si) ** 2) / (si * math.sqrt(2 * math.pi))
                qj = math.exp(-0.5 * ((x - mj) / sj) ** 2) / (sj * math.sqrt(2 * math.pi))
                return pi * (math.log(pi) - math.log(qj)) if pi > 0 else 0.0

            lo, hi = mi - 12 * si, mi + 12 * si
            total += quad(integrand, lo, hi, limit=200)[0]
    return total


def test_component_divergence_closed_form():
    rng = np.random.default_rng(600)
    worst = 0.0
    for _ in range(20):
        v, t = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        params = MixtureParams(GAUSSIAN_ONLY, np.array([0.5, 0.5]),
                               rng.normal(size=(2, v, t)),
                               rng.uniform(0.3, 3.0, size=(2, v)), None)
        closed = component_kl(params, 0, 1)
        numeric = _quadrature_kl(params, 0, 1)
        worst = max(worst, abs(closed - numeric))
        assert _symmetric_kls(params, 0, [1]) == _symmetric_kls(params, 1, [0])
    report("closed-form divergence matches quadrature within 1e-3 on 20 pairs",
           worst <= 1e-3, f"worst deviation {worst:.2e}")
    report("symmetrized divergence is exactly symmetric", True)
