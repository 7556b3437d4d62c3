"""Test helper: reference forms of the EM steps and component divergences.

``tck.mixture`` has one function per EM step, which ``fit_map_em`` calls
with its per-fit arrays. These wrappers feed each step from a whole
``Dataset`` and score by einsum (``component_scores``), so a test can run
the steps one by one and check them against direct evaluations. ``component_kl`` and
``symmetric_kl`` are the per-pair divergences that ``_symmetric_kls``
evaluates for many pairs at once. ``masked`` gives the x0 and r cells
that a fit reads from its feature grid, ``prior_kernel`` is the prior's
smoothing kernel and ``exact_mu`` an extended-precision μ update.
"""
import numpy as np

from tck import mixture


def masked(data):
    """(values with zeros in unobserved cells, float mask) of ``data``."""
    return np.where(data.mask.astype(bool), data.values, 0.0), data.mask.astype(float)


def build_prior(data, hp):
    """The prior of ``data``'s series."""
    return mixture.build_prior(*masked(data), hp)


def features(data):
    """The feature rows of ``data``'s series over their whole length."""
    return mixture._feature_grid(data.values, data.mask, [(0, data.length)])


def prior_kernel(hp, t_dim):
    """(T, T) squared-exponential kernel, by ``build_prior``'s expression;
    attribute v's prior covariance is ``scale_v * (kernel + COV_JITTER I)``."""
    t_idx = np.arange(t_dim)
    return hp.b0 * np.exp(-hp.a0 * (t_idx[:, None] - t_idx[None, :]) ** 2)


def m_step(post, data, prior, hp, params_in):
    """One maximization sweep given the responsibilities of ``data``'s series."""
    return mixture.m_step(post, features(data), prior, hp, params_in,
                          mixture._sweep_systems(prior, params_in.n_components))


def component_scores(params, feats):
    """(N, G) log(theta_g) + log-likelihood of each series under g, from
    its feature rows ``feats``, by the einsum that ``e_step`` runs."""
    weights, const = mixture._component_weights(params)
    return np.einsum("nd,gd->ng", feats, weights) + const[None, :]


def map_objective(params, data, prior, hp):
    """The MAP objective of ``params`` on ``data``."""
    post = component_scores(params, features(data))
    return mixture.map_objective(*mixture._normalize_rows(post), params, prior, hp)


def component_kl(params, i, j):
    """KL(component i || component j) of the Gaussian parts, closed form.

    The components factorize over the V*T observed-cell grid, so the
    divergence is a sum of univariate Gaussian divergences.
    """
    return float(mixture._gaussian_kl(params.mu[i], params.sigma2[i],
                                      params.mu[j], params.sigma2[j]))


def symmetric_kl(params, i, j):
    """Symmetrized divergence: the mean of both directed KL values."""
    return 0.5 * (component_kl(params, i, j) + component_kl(params, j, i))


def exact_mu(post, data, prior, hp, sigma2):
    """(G, V, T) μ of one M-step, solved in ``np.longdouble`` given the
    step's variances ``sigma2``.

    μ solves (S⁻¹ + C) μ = S⁻¹ m + σ⁻² e with S the prior covariance, m its
    mean, C = σ⁻² diag(Σ_n post r) and e = Σ_n post x0. It is taken in the
    GP form μ = m + S z, (I + C S) z = σ⁻² e − C m, whose matrix needs no
    inverse of S, and z comes from batched Gaussian elimination with
    partial pivoting.
    """
    ld = np.longdouble
    x0, r = (a.astype(ld) for a in masked(data))
    post = post.astype(ld)
    e = np.einsum("ng,nvt->gvt", post, x0)
    c = np.einsum("ng,nvt->gvt", post, r) / sigma2.astype(ld)[:, :, None]
    t_dim = data.length
    jittered = prior_kernel(hp, t_dim).astype(ld) + ld(mixture.COV_JITTER) * np.eye(t_dim)
    cov = prior.scale.astype(ld)[:, None, None] * jittered[None]         # (V, T, T)
    mean = prior.mean.astype(ld)
    system = np.eye(t_dim, dtype=ld) + c[..., None] * cov[None]          # (G, V, T, T)
    rhs = e / sigma2.astype(ld)[:, :, None] - c * mean[None]
    z = _solve(system.reshape(-1, t_dim, t_dim), rhs.reshape(-1, t_dim))
    return mean[None] + np.einsum("vij,gvj->gvi", cov, z.reshape(rhs.shape))


def _solve(a, b):
    """x with a[k] @ x[k] = b[k] for each k, by Gaussian elimination with
    partial pivoting in the dtype of ``a`` and ``b``."""
    a, b = a.copy(), b.copy()
    batch, n = np.arange(len(a)), a.shape[1]
    for k in range(n):
        p = k + np.abs(a[:, k:, k]).argmax(axis=1)
        a[batch, k], a[batch, p] = a[batch, p], a[batch, k]
        b[batch, k], b[batch, p] = b[batch, p], b[batch, k]
        factor = a[:, k + 1:, k] / a[:, k, k, None]
        a[:, k + 1:, k:] -= factor[:, :, None] * a[:, None, k, k:]
        b[:, k + 1:] -= factor * b[:, k, None]
    x = np.empty_like(b)
    for k in reversed(range(n)):
        rest = np.einsum("bj,bj->b", a[:, k, k + 1:], x[:, k + 1:])
        x[:, k] = (b[:, k] - rest) / a[:, k, k]
    return x
