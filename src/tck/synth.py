"""Synthetic generators: a two-class VAR(1) benchmark and missingness injectors.

The generator draws two-attribute series from

    x(t) = alpha + diag(ar1, ar2) x(t-1) + xi(t)

with the noise cross-correlation chosen so the stationary correlation between
the two attributes hits a target rho:

    corr(xi1, xi2) = rho * (1 - ar1*ar2) / sqrt((1 - ar1^2) (1 - ar2^2))

Injectors then remove cells so that the missingness carries class information:
value-threshold dropping with class-dependent probability, or per-series rates
drawn from label-shifted uniform intervals (optionally restricted to
above-average cells, which makes the mechanism depend on the missing values
themselves).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset


@dataclass(frozen=True)
class Var1ClassParams:
    """One class of the VAR(1) generator."""

    cross_corr: float            # target stationary corr(x1, x2)
    ar: tuple[float, float]      # diagonal autoregression coefficients
    mean: tuple[float, float]    # stationary mean

    @property
    def intercept(self) -> np.ndarray:
        a = np.asarray(self.ar)
        return (1.0 - a) * np.asarray(self.mean)

    def __post_init__(self):
        if max(abs(self.ar[0]), abs(self.ar[1])) >= 1:
            raise ValueError("autoregression coefficients must satisfy |ar| < 1")
        if abs(self.cross_corr) > 1:
            raise ValueError("target correlation must lie in [-1, 1]")


@dataclass(frozen=True)
class Var1Params:
    classes: tuple[Var1ClassParams, ...]
    length: int = 50
    n_per_class: int = 100


def default_var1_params() -> Var1Params:
    """Two well-mixed classes: one positively, one negatively cross-correlated."""
    return Var1Params((
        Var1ClassParams(cross_corr=0.8, ar=(0.8, 0.8), mean=(0.5, -0.5)),
        Var1ClassParams(cross_corr=-0.8, ar=(0.6, 0.6), mean=(0.0, 0.0)),
    ))


def _noise_correlation(cls: Var1ClassParams) -> float:
    ar1, ar2 = cls.ar
    corr = cls.cross_corr * (1 - ar1 * ar2) / np.sqrt((1 - ar1**2) * (1 - ar2**2))
    if abs(corr) > 1:
        raise ValueError(
            f"required noise correlation {corr:.3f} falls outside [-1, 1]; "
            "the requested stationary correlation is unreachable")
    return float(corr)


def _stationary_cov(cls: Var1ClassParams) -> np.ndarray:
    """Solve Gamma = A Gamma A' + Sigma_xi for diagonal A and unit noise."""
    ar1, ar2 = cls.ar
    c = _noise_correlation(cls)
    return np.array([
        [1 / (1 - ar1**2), c / (1 - ar1 * ar2)],
        [c / (1 - ar1 * ar2), 1 / (1 - ar2**2)],
    ])


def simulate_var1_chain(cls: Var1ClassParams, length: int,
                        rng: np.random.Generator) -> np.ndarray:
    """One (2, length) chain with unit-variance noise, started at the
    stationary distribution."""
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


def _gen_split(params: Var1Params, rng: np.random.Generator) -> Dataset:
    n = params.n_per_class * len(params.classes)
    values = np.empty((n, 2, params.length))
    labels = np.empty(n, dtype=np.int64)
    i = 0
    for label, cls in enumerate(params.classes, start=1):
        for _ in range(params.n_per_class):
            values[i] = simulate_var1_chain(cls, params.length, rng)
            labels[i] = label
            i += 1
    mask = np.ones((n, 2, params.length), dtype=np.uint8)
    return Dataset(values, mask, labels, len(params.classes),
                   np.arange(1, n + 1))


def gen_var1(params: Var1Params | None = None,
             seed: int = 0) -> tuple[Dataset, Dataset]:
    """Fully observed (train, test) datasets from independent RNG substreams."""
    params = params or default_var1_params()
    train_ss, test_ss = np.random.SeedSequence(seed).spawn(2)
    return (_gen_split(params, np.random.default_rng(train_ss)),
            _gen_split(params, np.random.default_rng(test_ss)))


# ------------------------------------------------------------
# Missingness injectors
# ------------------------------------------------------------

@dataclass(frozen=True)
class InjectionReport:
    """What an injector actually did: sampled rates and attribute directions."""

    rates: np.ndarray          # (N, V) per-series per-attribute drop rates
    directions: np.ndarray     # (V,) signs c_v
    missing_fraction: float


def _require_labels(data: Dataset) -> np.ndarray:
    if data.labels is None or (data.labels == 0).any():
        raise ValueError("injector requires a fully labeled dataset")
    return data.labels


def _drop_cells(data: Dataset, drop: np.ndarray) -> tuple[Dataset, float]:
    """A copy of ``data`` with the ``drop`` cells unobserved, and its missing fraction."""
    mask = np.where(drop, 0, data.mask).astype(np.uint8)
    frac = 1.0 - mask.mean() if mask.size else 0.0
    return replace(data, values=data.values.copy(), mask=mask), float(frac)


def inject_var1_mnar(data: Dataset, seed: int = 0) -> Dataset:
    """Drop cells above a value threshold with class-dependent probability.

    Cell (v, t) of a two-class series with label y is removed independently
    with probability 0.9 (y = 1) or 0.8 (y = 2) whenever its value exceeds
    -1. Only mask bits flip; values and labels stay untouched.
    """
    labels = _require_labels(data)
    rng = np.random.default_rng(seed)
    p = np.array([0.9, 0.8])[labels - 1]                      # (N,)
    eligible = data.mask.astype(bool) & (data.values > -1.0)
    u = rng.random(data.values.shape)
    return _drop_cells(data, eligible & (u < p[:, None, None]))[0]


def _attribute_signs(v: int, rng: np.random.Generator) -> np.ndarray:
    """Random +-1 per attribute; for V >= 2 both signs are guaranteed present."""
    signs = rng.choice((-1, 1), size=v)
    while v >= 2 and len(np.unique(signs)) == 1:
        signs = rng.choice((-1, 1), size=v)
    return signs


def _sample_rates(kind: str, labels: np.ndarray, v: int, strength: float,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-(series, attribute) drop rates for the label-correlated injectors."""
    signs = _attribute_signs(v, rng)
    shift = strength * (labels[:, None] - 1).astype(float)     # (N, 1)
    u = rng.random((len(labels), v))
    if kind == "rate_mar":
        lo = 0.3 + shift * signs[None, :]
        width = 0.4
    elif kind == "rate_mnar":
        lo = np.where(signs[None, :] < 0, 0.7 - shift, 0.3 + shift)
        width = 0.3
    else:
        raise ValueError(f"unknown injector kind {kind!r}")
    rates = np.clip(lo + width * u, 0.0, 1.0)
    return rates, signs


def _inject_rates(kind: str, data: Dataset, strength: float,
                  seed: int) -> tuple[Dataset, InjectionReport]:
    """The rate injector ``kind``; under ``rate_mnar`` only cells above their
    attribute's dataset mean are eligible."""
    if not np.isfinite(strength):
        raise ValueError(f"injector strength must be finite; got {strength}")
    labels = _require_labels(data)
    rng = np.random.default_rng(seed)
    rates, signs = _sample_rates(kind, labels, data.n_attributes, strength, rng)
    eligible = data.mask.astype(bool)
    if kind == "rate_mnar":
        safe = np.where(eligible, data.values, 0.0)
        attr_mean = safe.sum(axis=(0, 2)) / np.maximum(eligible.sum(axis=(0, 2)), 1)
        eligible &= data.values > attr_mean[None, :, None]
    u = rng.random(data.values.shape)
    out, frac = _drop_cells(data, eligible & (u < rates[:, :, None]))
    return out, InjectionReport(rates, signs, frac)


def inject_rate_mar(data: Dataset, strength: float,
                    seed: int = 0) -> tuple[Dataset, InjectionReport]:
    """Label-shifted per-series missing rates, independent of the values.

    Rates come from U[0.3 + E*c_v*(y-1), 0.7 + E*c_v*(y-1)] clamped to [0, 1],
    where E is the informativeness ``strength`` and c_v a random sign per
    attribute; every cell of (series, attribute) is dropped independently with
    that rate. Returns the injected dataset and the sampled rates and signs.
    """
    return _inject_rates("rate_mar", data, strength, seed)


def inject_rate_mnar(data: Dataset, strength: float,
                     seed: int = 0) -> tuple[Dataset, InjectionReport]:
    """Label-shifted rates applied only to cells above their attribute mean.

    Negative-direction attributes draw rates from U[0.7 - E(y-1), 1 - E(y-1)],
    positive ones from U[0.3 + E(y-1), 0.6 + E(y-1)] (clamped); a cell is only
    eligible for dropping when its value exceeds the attribute's dataset mean,
    so within each class the mechanism depends on the removed values.
    Returns the injected dataset and the sampled rates and signs.
    """
    return _inject_rates("rate_mnar", data, strength, seed)


# ------------------------------------------------------------
# Informativeness tuning
# ------------------------------------------------------------

def _label_rate_correlation(kind: str, labels: np.ndarray, v: int,
                            strength: float, seed: int,
                            replicates: int) -> float:
    """Replicate-averaged mean |Pearson(rate_v, label)| at a given strength.

    Each replicate reuses its own fixed RNG stream across strengths, so the
    result is a continuous non-decreasing function of the strength.
    """
    totals = []
    for r in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence((seed, r)))
        rates, _ = _sample_rates(kind, labels, v, strength, rng)
        per_attr = []
        for col in rates.T:
            if col.std() == 0.0:
                per_attr.append(0.0)
            else:
                per_attr.append(abs(np.corrcoef(col, labels)[0, 1]))
        totals.append(np.mean(per_attr))
    return float(np.mean(totals))


def tune_informativeness(data: Dataset, kind: str, target_corr: float,
                         seed: int = 0) -> float:
    """Find the strength E in [0, 2] whose rate/label correlation, averaged
    over 20 replicates, matches a target to within 0.01.

    The achieved correlation rises with E until rate clamping saturates and
    then falls, so the search first brackets the peak (ternary search) and
    then bisects the rising branch. Raises when the peak falls more than
    0.02 short of the target, reporting the achievable maximum.
    """
    if not (0.0 <= target_corr < 1.0):
        raise ValueError("target correlation must lie in [0, 1)")
    if target_corr == 0.0:
        return 0.0
    labels = _require_labels(data)
    if len(np.unique(labels)) < 2:
        raise ValueError("correlation with labels needs at least two classes")

    def achieved(strength: float) -> float:
        return _label_rate_correlation(kind, labels, data.n_attributes,
                                       strength, seed, 20)

    lo, hi = 0.0, 2.0
    for _ in range(40):
        third = (hi - lo) / 3.0
        if achieved(lo + third) < achieved(hi - third):
            lo = lo + third
        else:
            hi = hi - third
    peak = 0.5 * (lo + hi)
    top = achieved(peak)
    if top < target_corr - 0.02:
        raise ValueError(
            f"target correlation {target_corr} unreachable; clamping caps the "
            f"achievable value at about {top:.3f}")

    lo, hi = 0.0, peak
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        value = achieved(mid)
        if abs(value - target_corr) <= 0.01:
            return mid
        if value < target_corr:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
