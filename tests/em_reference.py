"""Test helper: reference forms of the EM steps and component divergences.

``tck.mixture`` has one function per EM step, which ``fit_map_em`` calls
with its per-fit arrays. These wrappers feed each step from a whole
``Dataset`` and score by einsum, so a test can run the steps one by one and
check them against direct evaluations. ``component_kl`` and
``symmetric_kl`` are the per-pair divergences that ``_symmetric_kls``
evaluates for many pairs at once.
"""
from tck import mixture


def build_prior(data, hp):
    """The prior of ``data``'s series."""
    return mixture.build_prior(*mixture._masked_arrays(data.values, data.mask), hp)


def m_step(post, data, prior, hp, params_in):
    """One maximization sweep given the responsibilities of ``data``'s series."""
    return mixture.m_step(post, mixture._features(data.values, data.mask), prior, hp,
                          params_in,
                          mixture._sweep_systems(prior, params_in.n_components))


def map_objective(params, data, prior, hp):
    """The MAP objective of ``params`` on ``data``."""
    scores = mixture._log_component_scores(
        params, mixture._features(data.values, data.mask))
    return mixture.map_objective(*mixture._normalize_rows(scores), params, prior, hp)


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
