"""Bayesian mixture models over masked multivariate time series.

Two component families are supported:

* ``gaussian_only`` -- each component is a diagonal Gaussian over the observed
  cells, with a time-dependent mean curve per attribute and a time-constant
  variance per attribute.
* ``mixed_mode`` -- the Gaussian part is multiplied by an independent Bernoulli
  factor per cell that models the observation mask itself, so the missingness
  pattern contributes to the component likelihood:

      f(U | phi_g) = prod_{v,t} [ N(x_v(t) | mu_gv(t), sigma_gv) * beta_gvt ]^{r_v(t)}
                                * (1 - beta_gvt)^{1 - r_v(t)}

Fitting maximizes the posterior (likelihood times smoothness priors on the
Gaussian parameters) with EM.  Priors: ``mu_gv ~ N(m_v, S_v)`` with
``S_v = s_v * Kmat`` and ``Kmat_tt' = b0 * exp(-a0 (t - t')^2)``, plus an
inverse-Gamma-type penalty ``sigma_gv^{-N0} exp(-N0 s_v^2 / (2 sigma_gv^2))``
that shrinks small clusters toward the dataset scale.

Scores and M-step statistics are linear in per-series feature rows. One
function, ``_feature_grid``, masks its input and builds them for fits,
``e_step`` and the ensemble's scoring plan alike.

Each EM step is one function: ``build_prior`` once per fit, then per
sweep ``m_step``, one scoring softmax and ``map_objective``. A fit runs
``_feature_grid`` once on its subset; the prior and the restart read the
grid's x0 and r cell columns.
The V prior covariances share one T x T matrix, so one inverse and one
log-determinant serve them all. Its sweeps score by BLAS GEMM: a fit
scores only its whole subset and keeps no posteriors.
``e_step`` and the ensemble's scoring plan score by einsum, which gives a
series the same bits alone as in a batch; GEMM does not. The ensemble's
pool workers run with one BLAS thread each. Fitted parameters, and so
kernels and CLI outputs, stay byte-identical run to run and across BLAS
thread counts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, observed_moments

# Bernoulli rates live in [BETA_EPS, 1 - BETA_EPS]; the clamp bounds the mask
# evidence a single cell can contribute to log-odds between components.
BETA_EPS = 1e-2
DENOM_EPS = 1e-12      # guard for empty-component denominators
COV_JITTER = 1e-8      # relative diagonal jitter on prior covariances

GAUSSIAN_ONLY = "gaussian_only"
MIXED_MODE = "mixed_mode"
_MODES = (GAUSSIAN_ONLY, MIXED_MODE)


@dataclass(frozen=True)
class HyperParams:
    """Prior hyperparameters: kernel decay a0, kernel scale b0, strength n0."""

    a0: float
    b0: float
    n0: float

    def __post_init__(self):
        if not (self.a0 > 0 and self.b0 > 0 and self.n0 > 0):
            raise ValueError("hyperparameters a0, b0, n0 must be strictly positive")


@dataclass
class PriorSpec:
    """Empirical prior for the Gaussian parameters of one data subset."""

    mean: np.ndarray        # (V, T) per-time-step empirical means
    scale: np.ndarray       # (V,) empirical std per attribute
    cov_inv: np.ndarray       # (V, T, T) inverse of scale_v * (kernel + jitter)
    cov_logdet: np.ndarray    # (V,)
    natural_mean: np.ndarray  # (V, T) cov_inv_v @ mean_v, fixed for the fit


@dataclass
class MixtureParams:
    """Fitted parameters of a mixture with G components over (V, T) grids."""

    mode: str
    theta: np.ndarray            # (G,) mixing coefficients
    mu: np.ndarray               # (G, V, T) component mean curves
    sigma2: np.ndarray           # (G, V) time-constant variances
    beta: np.ndarray | None     # (G, V, T) Bernoulli rates, mixed mode only

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == MIXED_MODE and self.beta is None:
            raise ValueError("mixed_mode parameters require beta")

    @property
    def n_components(self) -> int:
        return self.theta.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.mu.shape[1]

    @property
    def length(self) -> int:
        return self.mu.shape[2]


def build_prior(x0: np.ndarray, r: np.ndarray, hp: HyperParams) -> PriorSpec:
    """Empirical means/scales of a subset plus the smoothing kernel prior,
    from the (N, V, T) x0 and r cell columns of its ``_feature_grid``.

    ``observed_moments`` refuses an attribute unobserved in the subset. Time
    steps of an attribute with no observation anywhere in the subset fall
    back to the attribute's grand mean so the prior center stays finite.
    Every attribute's covariance is ``scale_v * (kernel + jitter)``, so one
    inverse and one log-determinant of the shared T x T matrix serve all V.
    """
    scale = np.maximum(observed_moments(x0, r)[1], 1e-6)  # positive definite prior
    counts = r.sum(axis=0)                       # (V, T)
    totals = x0.sum(axis=0)                      # (V, T)
    grand_mean = totals.sum(axis=1) / counts.sum(axis=1)
    mean = np.where(counts > 0, totals / np.maximum(counts, 1.0), grand_mean[:, None])

    t_dim = mean.shape[1]
    t_idx = np.arange(t_dim)
    kernel = hp.b0 * np.exp(-hp.a0 * (t_idx[:, None] - t_idx[None, :]) ** 2)
    jittered = kernel + COV_JITTER * np.eye(t_dim)
    sign, logdet = np.linalg.slogdet(jittered)
    if not sign > 0:
        raise np.linalg.LinAlgError("prior covariance is not positive definite")
    cov_inv = np.linalg.inv(jittered)[None] / scale[:, None, None]
    return PriorSpec(mean, scale, cov_inv, t_dim * np.log(scale) + logdet,
                     np.einsum("vij,vj->vi", cov_inv, mean))


# ------------------------------------------------------------
# Per-fit features and component scores
# ------------------------------------------------------------

def _feature_grid(values: np.ndarray, mask: np.ndarray, windows) -> np.ndarray:
    """(N, 2VT + 2VW) feature rows [x0 | r | sum_t x0^2 | sum_t r], each sum
    per attribute over each of the W ``(t_start, t_stop)`` windows.

    x0 is the values with zeros in unobserved cells and r the float mask.
    Component scores and all M-step statistics are linear in one window's
    columns. Each sum reduces a slice whose last axis is contiguous, so a
    window's columns carry the bits of a call on that window alone.
    """
    cells = np.concatenate([np.where(mask.astype(bool), values, 0.0),
                            mask.astype(float)], axis=1)          # (N, 2V, T)
    n, two_v, t_dim = cells.shape
    grid = np.empty((n, two_v * (t_dim + len(windows))))
    grid[:, :two_v * t_dim] = cells.reshape(n, -1)
    cells[:, :two_v // 2] **= 2                                   # [x0^2 | r]
    sums = grid[:, two_v * t_dim:].reshape(n, two_v, len(windows))
    for w, (t_start, t_stop) in enumerate(windows):
        cells[:, :, t_start:t_stop].sum(axis=2, out=sums[:, :, w])
    return grid


def _component_weights(params: MixtureParams,
                       out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(G, 2VT + 2V) weight rows matching the feature layout, written to
    ``out`` if given, and (G,) constants.

    Each component contributes mu/sigma^2, -mu^2/(2 sigma^2)
    (+ log beta - log(1-beta)), -1/(2 sigma^2) and -log(2 pi sigma^2)/2,
    plus a constant log theta (+ sum log(1-beta)).
    """
    g_dim = params.n_components
    inv_s2 = 1.0 / params.sigma2                              # (G, V)
    mu_w = params.mu * inv_s2[:, :, None]                     # (G, V, T)
    r_w = -0.5 * params.mu * mu_w
    with np.errstate(divide="ignore"):
        const = np.log(params.theta)
    if params.mode == MIXED_MODE:
        log_miss = np.log1p(-params.beta)
        r_w = r_w + (np.log(params.beta) - log_miss)
        const = const + log_miss.sum(axis=(1, 2))
    weights = np.concatenate([mu_w.reshape(g_dim, -1), r_w.reshape(g_dim, -1),
                              -0.5 * inv_s2,
                              -0.5 * np.log(2.0 * np.pi * params.sigma2)], axis=1,
                             out=out)
    return weights, const


def _normalize_rows(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax over the last axis via log-sum-exp, in place, on any leading
    shape; the second-to-last axis indexes series. Returns the (..., 1) row
    maxima and exp-sums: a row's log normalizer is ``peak + log(sums)``."""
    peak = scores.max(axis=-1, keepdims=True)
    finite = np.isfinite(peak)
    if not finite.all():
        bad = np.argwhere(~finite)[0]
        raise ValueError(f"posterior underflow for series index {bad[-2]}")
    scores -= peak
    np.exp(scores, out=scores)
    sums = scores.sum(axis=-1, keepdims=True)
    scores /= sums
    return peak, sums


def e_step(params: MixtureParams, data: Dataset) -> np.ndarray:
    """Component responsibilities, one simplex row per series.

    The scores log(theta_g) + log-likelihood of each series under g are
    contracted by einsum, not by a BLAS GEMM: GEMM blocking changes the last
    bits of a row with the batch size, and ``e_step`` and the ensemble's
    scoring plan must score a series the same alone as inside its training
    set. ``fit_map_em`` scores its own sweeps by GEMM: a fit only ever
    scores its whole subset, and its posteriors are not kept.
    """
    weights, const = _component_weights(params)
    feats = _feature_grid(data.values, data.mask, [(0, data.length)])
    post = np.einsum("nd,gd->ng", feats, weights) + const[None, :]
    _normalize_rows(post)
    return post


# ------------------------------------------------------------
# M-step and objective
# ------------------------------------------------------------

def _sweep_systems(prior: PriorSpec, g_dim: int) -> np.ndarray:
    """(G, V, T, T) copies of the prior precisions, the mu systems of one
    fit; each ``m_step`` rewrites only their diagonals."""
    return np.broadcast_to(prior.cov_inv[None], (g_dim,) + prior.cov_inv.shape).copy()


def m_step(post: np.ndarray, feats: np.ndarray, prior: PriorSpec,
           hp: HyperParams, params_in: MixtureParams,
           systems: np.ndarray) -> MixtureParams:
    """One maximization sweep given responsibilities ``post`` of the series
    whose ``_feature_grid`` rows are ``feats``; ``systems`` come from
    ``_sweep_systems``.

    Update order: theta, then sigma^2 (using the incoming mu), then mu with
    the fresh sigma^2, then the Bernoulli rates. Components with no weighted
    observations for an attribute fall back to the prior mean exactly.
    """
    g_dim, v_dim, t_dim = params_in.mu.shape
    vt = v_dim * t_dim
    weight = post.sum(axis=0)                                  # (G,)
    theta = weight / post.shape[0]

    # One GEMM gives every responsibility-weighted statistic.
    stats = post.T @ feats                                     # (G, 2VT + 2V)
    rhs_data = stats[:, :vt].reshape(g_dim, v_dim, t_dim)      # sum post * x0
    diag_w = stats[:, vt:2 * vt].reshape(g_dim, v_dim, t_dim)  # sum post * r
    weighted_sq = stats[:, 2 * vt:2 * vt + v_dim]              # (G, V)
    weighted_obs = stats[:, 2 * vt + v_dim:]                   # (G, V)

    # sum_n post sum_t r (x - mu)^2 under the incoming mu
    mu_in = params_in.mu
    resid = weighted_sq + (mu_in * (mu_in * diag_w - 2.0 * rhs_data)).sum(axis=2)
    resid = np.maximum(resid, 0.0)
    sigma2 = (hp.n0 * prior.scale[None, :] ** 2 + resid) / (hp.n0 + weighted_obs)

    # mu_gv solves (S_v^-1 + sigma^-2 D) mu = S_v^-1 m_v + sigma^-2 e, where
    # D = diag of responsibility-weighted observation counts per time step.
    # np.linalg.solve leaves ``systems`` as it was, so only the diagonal,
    # a strided view, needs writing.
    inv_s2 = 1.0 / sigma2
    np.add(np.diagonal(prior.cov_inv, axis1=1, axis2=2), inv_s2[:, :, None] * diag_w,
           out=systems.reshape(g_dim, v_dim, t_dim * t_dim)[:, :, ::t_dim + 1])
    rhs = prior.natural_mean[None] + inv_s2[:, :, None] * rhs_data
    mu = np.linalg.solve(systems, rhs[..., None])[..., 0]
    untouched = weighted_obs == 0                              # (G, V)
    if untouched.any():
        gi, vi = np.nonzero(untouched)
        mu[gi, vi] = prior.mean[vi]

    beta = None
    if params_in.mode == MIXED_MODE:
        beta = diag_w / (weight[:, None, None] + DENOM_EPS)
        beta = np.clip(beta, BETA_EPS, 1.0 - BETA_EPS)

    return MixtureParams(params_in.mode, theta, mu, sigma2, beta)


def map_objective(peak: np.ndarray, sums: np.ndarray, params: MixtureParams,
                  prior: PriorSpec, hp: HyperParams) -> float:
    """Observed-data log likelihood plus (unnormalized) log priors, given the
    ``_normalize_rows`` softmax of the parameters' scores.

    EM never decreases this quantity; the inverse-Gamma part is kept in kernel
    form, so values are comparable within a run but not across n0.
    """
    loglik = float(np.sum(peak + np.log(sums)))

    diff = (params.mu - prior.mean[None]).transpose(1, 0, 2)  # (V, G, T)
    quad = ((diff @ prior.cov_inv) * diff).sum(axis=2)         # (V, G)
    t_dim = params.length
    mu_prior = -0.5 * np.sum(t_dim * np.log(2.0 * np.pi)
                             + prior.cov_logdet[:, None] + quad)
    sig_prior = float(np.sum(-0.5 * hp.n0 * np.log(params.sigma2)
                             - hp.n0 * prior.scale[None] ** 2 / (2.0 * params.sigma2)))
    total = loglik + float(mu_prior) + sig_prior
    if not np.isfinite(total):
        raise FloatingPointError("non-finite MAP objective")
    return total


# ------------------------------------------------------------
# Fitting
# ------------------------------------------------------------

def _init_params(x0: np.ndarray, r: np.ndarray, n_components: int,
                 prior: PriorSpec, mode: str,
                 rng: np.random.Generator) -> MixtureParams:
    """Random restart: component means blend a random series with the prior."""
    theta = np.full(n_components, 1.0 / n_components)
    sigma2 = np.tile(prior.scale ** 2, (n_components, 1))
    picks = rng.choice(x0.shape[0], size=n_components, replace=False)
    mu = np.where(r[picks] != 0, 0.5 * (x0[picks] + prior.mean), prior.mean)
    beta = None
    if mode == MIXED_MODE:
        observed_frac = r.mean(axis=0)                          # (V, T)
        beta = np.clip(np.tile(observed_frac, (n_components, 1, 1)),
                       BETA_EPS, 1.0 - BETA_EPS)
    return MixtureParams(mode, theta, mu, sigma2, beta)


@dataclass(frozen=True)
class FitReport:
    """How one fit ran: the MAP objective after each EM sweep, in order, and
    whether the loop stopped because its relative change met ``tol``. The
    sweep count is ``len(objectives)``."""

    objectives: tuple
    converged: bool


def fit_map_em(data: Dataset, n_components: int, hp: HyperParams, seed: int,
               mode: str = GAUSSIAN_ONLY, max_iter: int = 30,
               tol: float = 1e-6) -> tuple[MixtureParams, FitReport]:
    """Fit a mixture by EM on the MAP objective.

    Deterministic given ``seed``. Stops when the relative objective change
    drops below ``tol`` or after ``max_iter`` sweeps. Returns the parameters
    and the fit's report.
    """
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    if data.n < n_components:
        raise ValueError(
            f"need at least {n_components} series to fit {n_components} components")
    rng = np.random.default_rng(seed)
    feats = _feature_grid(data.values, data.mask, [(0, data.length)])
    cells = feats[:, :2 * data.n_attributes * data.length].reshape(data.n, -1, data.length)
    x0, r = np.split(cells, 2, axis=1)  # views, (N, V, T) each
    prior = build_prior(x0, r, hp)
    params = _init_params(x0, r, n_components, prior, mode, rng)
    systems = _sweep_systems(prior, n_components)

    def softmax_scores(params):
        weights, const = _component_weights(params)
        post = feats @ weights.T + const
        return post, *_normalize_rows(post)

    post, _, _ = softmax_scores(params)
    objectives, converged = [], False
    while not converged and len(objectives) < max_iter:
        params = m_step(post, feats, prior, hp, params, systems)
        # One softmax of the new scores gives both the objective and the
        # responsibilities of the next sweep.
        post, peak, sums = softmax_scores(params)
        objectives.append(map_objective(peak, sums, params, prior, hp))
        converged = (len(objectives) > 1 and abs(objectives[-1] - objectives[-2])
                     < tol * (abs(objectives[-2]) + DENOM_EPS))
    return params, FitReport(tuple(objectives), converged)


# ------------------------------------------------------------
# Component divergences
# ------------------------------------------------------------

def _gaussian_kl(mu_i: np.ndarray, s2i: np.ndarray, mu_j: np.ndarray,
                 s2j: np.ndarray) -> np.ndarray:
    """KL(i || j) between components with means (..., V, T) and variances
    (..., V); leading axes broadcast, one divergence per leading index."""
    t_dim = np.shape(mu_i)[-1]
    ratio = t_dim * (s2i / s2j - 1.0 + np.log(s2j) - np.log(s2i))
    shift = ((mu_j - mu_i) ** 2 / s2j[..., None]).sum(axis=-1)
    return 0.5 * np.sum(ratio + shift, axis=-1)


def _symmetric_kls(params: MixtureParams, i: int, others) -> np.ndarray:
    """The symmetrized divergence between component i and each j in
    ``others``: the mean of KL(i || j) and KL(j || i) of the Gaussian parts,
    from one broadcast evaluation per direction."""
    mu, s2 = params.mu, params.sigma2
    return 0.5 * (_gaussian_kl(mu[i], s2[i], mu[others], s2[others])
                  + _gaussian_kl(mu[others], s2[others], mu[i], s2[i]))
