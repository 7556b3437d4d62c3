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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset

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
    kernel: np.ndarray      # (T, T) squared-exponential kernel
    cov: np.ndarray         # (V, T, T) prior covariance scale_v * kernel + jitter
    cov_inv: np.ndarray     # (V, T, T)
    cov_logdet: np.ndarray  # (V,)


@dataclass
class MixtureParams:
    """Fitted parameters of a mixture with G components over (V, T) grids."""

    mode: str
    theta: np.ndarray            # (G,) mixing coefficients
    mu: np.ndarray               # (G, V, T) component mean curves
    sigma2: np.ndarray           # (G, V) time-constant variances
    beta: np.ndarray | None     # (G, V, T) Bernoulli rates, mixed mode only
    seed: int | None = None
    hp: HyperParams | None = None

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


def _masked_arrays(values: np.ndarray,
                   mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values with zeros in unobserved cells, float mask)."""
    return np.where(mask.astype(bool), values, 0.0), mask.astype(float)


def build_prior(data: Dataset, hp: HyperParams) -> PriorSpec:
    """Empirical means/scales of a subset plus the smoothing kernel prior.

    Time steps of an attribute with no observation anywhere in the subset fall
    back to the attribute's grand mean so the prior center stays finite.
    """
    if data.n == 0:
        raise ValueError("cannot build a prior from an empty subset")
    x0, r = _masked_arrays(data.values, data.mask)
    counts = r.sum(axis=0)                       # (V, T)
    totals = x0.sum(axis=0)                      # (V, T)
    attr_counts = counts.sum(axis=1)             # (V,)
    for v in np.nonzero(attr_counts == 0)[0]:
        raise ValueError(f"attribute {v + 1} has no observed entries in the subset")
    grand_mean = totals.sum(axis=1) / attr_counts
    mean = np.where(counts > 0, totals / np.maximum(counts, 1.0), grand_mean[:, None])

    scale = np.zeros(data.n_attributes)
    for v in range(data.n_attributes):
        cells = data.values[:, v, :][data.mask[:, v, :].astype(bool)]
        sd = cells.std(ddof=1) if cells.size > 1 else 0.0
        scale[v] = max(sd, 1e-6)  # keep the prior covariance positive definite

    t_dim = data.length
    t_idx = np.arange(t_dim)
    kernel = hp.b0 * np.exp(-hp.a0 * (t_idx[:, None] - t_idx[None, :]) ** 2)
    eye = np.eye(t_dim)
    cov = scale[:, None, None] * (kernel[None, :, :] + COV_JITTER * eye[None, :, :])
    cov_inv = np.linalg.inv(cov)
    sign, cov_logdet = np.linalg.slogdet(cov)
    if not (sign > 0).all():
        raise np.linalg.LinAlgError("prior covariance is not positive definite")
    return PriorSpec(mean, scale, kernel, cov, cov_inv, cov_logdet)


# ------------------------------------------------------------
# Per-fit features and component scores
# ------------------------------------------------------------

def _feature_rows(x0: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(N, 2VT + 2V) feature rows [x0 | r | sum_t x0^2 | sum_t r].

    x0 holds the values with zeros in unobserved cells and r the float mask
    (see ``_masked_arrays``); both may be windows of a larger masked grid.
    Component scores and all M-step statistics are linear in these rows, so
    a fit builds them once and reuses them in every sweep.
    """
    n, v_dim, t_dim = x0.shape
    return np.concatenate([x0.reshape(n, v_dim * t_dim), r.reshape(n, v_dim * t_dim),
                           (x0 ** 2).sum(axis=2), r.sum(axis=2)], axis=1)


def _features(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return _feature_rows(*_masked_arrays(values, mask))


def _component_weights(params: MixtureParams) -> tuple[np.ndarray, np.ndarray]:
    """(G, 2VT + 2V) weight rows matching the feature layout, and (G,) constants.

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
                              -0.5 * np.log(2.0 * np.pi * params.sigma2)], axis=1)
    return weights, const


def _score_rows(feats: np.ndarray, weights: np.ndarray,
                const: np.ndarray) -> np.ndarray:
    """(N, G) array of log(theta_g) + log-likelihood of each series under g.

    The contraction is an einsum, not a BLAS GEMM: GEMM blocking changes the
    last bits of a row with the batch size, and a series must score the same
    alone as inside its training set.
    """
    return np.einsum("nd,gd->ng", feats, weights) + const[None, :]


def _log_component_scores(params: MixtureParams, feats: np.ndarray) -> np.ndarray:
    return _score_rows(feats, *_component_weights(params))


def _normalize_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax per row via log-sum-exp; rows sum to 1 exactly up to fp."""
    peak = scores.max(axis=1)
    bad = np.nonzero(~np.isfinite(peak))[0]
    if bad.size:
        raise ValueError(f"posterior underflow for series index {bad[0]}")
    post = np.exp(scores - peak[:, None])
    post /= post.sum(axis=1, keepdims=True)
    return post


def e_step(params: MixtureParams, data: Dataset) -> np.ndarray:
    """Component responsibilities, one simplex row per series."""
    return _normalize_rows(
        _log_component_scores(params, _features(data.values, data.mask)))


# ------------------------------------------------------------
# M-step and objective
# ------------------------------------------------------------

def _prior_natural_mean(prior: PriorSpec) -> np.ndarray:
    """(V, T) array S_v^-1 m_v, fixed for the whole fit."""
    return np.einsum("vij,vj->vi", prior.cov_inv, prior.mean)


def _m_step(post: np.ndarray, feats: np.ndarray, prior: PriorSpec,
            prior_nat: np.ndarray, hp: HyperParams,
            params_in: MixtureParams) -> MixtureParams:
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
    inv_s2 = 1.0 / sigma2
    systems = np.broadcast_to(prior.cov_inv[None], (g_dim,) + prior.cov_inv.shape).copy()
    idx = np.arange(t_dim)
    systems[:, :, idx, idx] += inv_s2[:, :, None] * diag_w
    rhs = prior_nat[None] + inv_s2[:, :, None] * rhs_data
    mu = np.linalg.solve(systems, rhs[..., None])[..., 0]
    untouched = weighted_obs == 0                              # (G, V)
    if untouched.any():
        gi, vi = np.nonzero(untouched)
        mu[gi, vi] = prior.mean[vi]

    beta = None
    if params_in.mode == MIXED_MODE:
        beta = diag_w / (weight[:, None, None] + DENOM_EPS)
        beta = np.clip(beta, BETA_EPS, 1.0 - BETA_EPS)

    return MixtureParams(params_in.mode, theta, mu, sigma2, beta,
                         seed=params_in.seed, hp=params_in.hp)


def m_step(post: np.ndarray, data: Dataset, prior: PriorSpec, hp: HyperParams,
           params_in: MixtureParams) -> MixtureParams:
    """One maximization sweep given responsibilities.

    Update order: theta, then sigma^2 (using the incoming mu), then mu with
    the fresh sigma^2, then the Bernoulli rates. Components with no weighted
    observations for an attribute fall back to the prior mean exactly.
    """
    return _m_step(post, _features(data.values, data.mask), prior,
                   _prior_natural_mean(prior), hp, params_in)


def _objective(scores: np.ndarray, params: MixtureParams, prior: PriorSpec,
               hp: HyperParams) -> float:
    peak = scores.max(axis=1)
    loglik = float(np.sum(peak + np.log(np.exp(scores - peak[:, None]).sum(axis=1))))

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


def map_objective(params: MixtureParams, data: Dataset, prior: PriorSpec,
                  hp: HyperParams) -> float:
    """Observed-data log likelihood plus (unnormalized) log priors.

    EM never decreases this quantity; the inverse-Gamma part is kept in kernel
    form, so values are comparable within a run but not across n0.
    """
    scores = _log_component_scores(params, _features(data.values, data.mask))
    return _objective(scores, params, prior, hp)


# ------------------------------------------------------------
# Fitting
# ------------------------------------------------------------

def _init_params(data: Dataset, n_components: int, prior: PriorSpec,
                 mode: str, rng: np.random.Generator) -> MixtureParams:
    """Random restart: component means blend a random series with the prior."""
    theta = np.full(n_components, 1.0 / n_components)
    sigma2 = np.tile(prior.scale ** 2, (n_components, 1))
    picks = rng.choice(data.n, size=n_components, replace=False)
    obs = data.mask.astype(bool)
    mu = np.empty((n_components, data.n_attributes, data.length))
    for g, i in enumerate(picks):
        mu[g] = np.where(obs[i], 0.5 * (data.values[i] + prior.mean), prior.mean)
    beta = None
    if mode == MIXED_MODE:
        observed_frac = data.mask.astype(float).mean(axis=0)   # (V, T)
        beta = np.clip(np.tile(observed_frac, (n_components, 1, 1)),
                       BETA_EPS, 1.0 - BETA_EPS)
    return MixtureParams(mode, theta, mu, sigma2, beta)


def fit_map_em(data: Dataset, n_components: int, hp: HyperParams, seed: int,
               mode: str = GAUSSIAN_ONLY, max_iter: int = 30, tol: float = 1e-6,
               callback=None) -> tuple[MixtureParams, np.ndarray]:
    """Fit a mixture by EM on the MAP objective.

    Deterministic given ``seed``. Stops when the relative objective change
    drops below ``tol`` or after ``max_iter`` sweeps; ``callback`` (if given)
    receives the objective value once per iteration. Returns the parameters
    and the responsibilities of the fitting data under them.
    """
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    if data.n < n_components:
        raise ValueError(
            f"need at least {n_components} series to fit {n_components} components")
    rng = np.random.default_rng(seed)
    prior = build_prior(data, hp)
    params = _init_params(data, n_components, prior, mode, rng)
    feats = _features(data.values, data.mask)
    prior_nat = _prior_natural_mean(prior)
    # The scores of each new parameter set give both its objective and the
    # responsibilities of the next sweep (or the returned ones).
    scores = _log_component_scores(params, feats)
    previous = None
    for _ in range(max_iter):
        params = _m_step(_normalize_rows(scores), feats, prior, prior_nat, hp, params)
        scores = _log_component_scores(params, feats)
        objective = _objective(scores, params, prior, hp)
        if callback is not None:
            callback(objective)
        if previous is not None and abs(objective - previous) < tol * (abs(previous) + DENOM_EPS):
            break
        previous = objective
    params.seed = seed
    params.hp = hp
    return params, _normalize_rows(scores)


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


def component_kl(params: MixtureParams, i: int, j: int) -> float:
    """KL(component i || component j) of the Gaussian parts, closed form.

    The components factorize over the V*T observed-cell grid, so the
    divergence is a sum of univariate Gaussian divergences.
    """
    return float(_gaussian_kl(params.mu[i], params.sigma2[i],
                              params.mu[j], params.sigma2[j]))


def symmetric_kl(params: MixtureParams, i: int, j: int) -> float:
    """Symmetrized divergence: the mean of both directed KL values."""
    return 0.5 * (component_kl(params, i, j) + component_kl(params, j, i))


def _symmetric_kls(params: MixtureParams, i: int, others) -> np.ndarray:
    """``symmetric_kl(params, i, j)`` for every j in ``others``, bit for bit,
    from one broadcast evaluation per direction."""
    mu, s2 = params.mu, params.sigma2
    return 0.5 * (_gaussian_kl(mu[i], s2[i], mu[others], s2[others])
                  + _gaussian_kl(mu[others], s2[others], mu[i], s2[i]))
