"""Test helper: the VAR(1) generator one series at a time.

``tck.synth`` simulates all chains of a class together. These functions
draw and simulate one series after another, as the generator once did, so
a test can check that the class-at-a-time simulator keeps every bit.
"""
import numpy as np

from tck.data import Dataset
from tck.synth import _noise_correlation, _stationary_cov


def simulate_chain(cls, length, rng):
    """One (2, length) chain: its start values, then its shocks, from ``rng``."""
    c = _noise_correlation(cls)
    chol = np.linalg.cholesky(np.array([[1.0, c], [c, 1.0]]))
    start_chol = np.linalg.cholesky(_stationary_cov(cls))
    alpha = cls.intercept
    a = np.asarray(cls.ar)
    x = np.empty((2, length))
    x[:, 0] = np.asarray(cls.mean) + start_chol @ rng.standard_normal(2)
    shocks = chol @ rng.standard_normal((2, length - 1)) if length > 1 else None
    for t in range(1, length):
        x[:, t] = alpha + a * x[:, t - 1] + shocks[:, t - 1]
    return x


def gen_split(params, rng):
    """One split of ``gen_var1``, simulated series by series."""
    n = params.n_per_class * len(params.classes)
    values = np.empty((n, 2, params.length))
    labels = np.empty(n, dtype=np.int64)
    i = 0
    for label, cls in enumerate(params.classes, start=1):
        for _ in range(params.n_per_class):
            values[i] = simulate_chain(cls, params.length, rng)
            labels[i] = label
            i += 1
    mask = np.ones((n, 2, params.length), dtype=np.uint8)
    return Dataset(values, mask, labels, len(params.classes),
                   np.arange(1, n + 1))


def gen_var1(params, seed):
    """(train, test) as ``tck.synth.gen_var1`` draws them, series by series."""
    train_ss, test_ss = np.random.SeedSequence(seed).spawn(2)
    return (gen_split(params, np.random.default_rng(train_ss)),
            gen_split(params, np.random.default_rng(test_ss)))
