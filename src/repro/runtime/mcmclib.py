"""MCMC library routines called from generated code.

The paper's runtime provides "additional MCMC library code" in Cuda/C;
generated updates call into it for the algebra that is fixed per
conjugacy rule (posterior-parameter computation) and for sampling
helpers.  The generated Low++ code references these as ``lib.<name>``
calls; the statistics traversals themselves (counts, sums, scatters)
are generated per model, which is where compilation pays off.
"""

from __future__ import annotations

import numpy as np


def normal_normal_post(mu0, v0, prec_acc, mean_acc):
    """Posterior (mean, var) for a Normal mean under Normal likelihoods.

    ``prec_acc``/``mean_acc`` accumulate ``sum 1/v_i`` and ``sum y_i/v_i``
    over likelihood terms; the prior contributes analytically.
    """
    prec = 1.0 / v0 + prec_acc
    post_var = 1.0 / prec
    post_mean = post_var * (mu0 / v0 + mean_acc)
    return post_mean, post_var


def mvnormal_post(mu0, sigma0, sigma, sum_y, cnt):
    """Posterior (mean, cov) for an MvNormal mean with known covariance.

    Supports batched statistics: ``sum_y`` of shape ``(..., D)``, ``cnt``
    of shape ``(...)``, ``sigma`` of shape ``(D, D)`` or ``(..., D, D)``.
    """
    sum_y = np.asarray(sum_y, dtype=np.float64)
    cnt = np.asarray(cnt, dtype=np.float64)
    lam0 = np.linalg.inv(sigma0)
    lam = np.linalg.inv(sigma)
    lam_post = lam0 + cnt[..., None, None] * lam
    cov_post = np.linalg.inv(lam_post)
    rhs = (lam0 @ np.asarray(mu0, dtype=np.float64)) + np.einsum(
        "...ij,...j->...i", lam, sum_y
    )
    mean_post = np.einsum("...ij,...j->...i", cov_post, rhs)
    return mean_post, cov_post


def invwishart_post(nu, psi, scatter, cnt):
    """Posterior (df, scale) for an MvNormal covariance under an
    InvWishart prior; ``scatter`` is ``sum (y - mu)(y - mu)^T``."""
    return nu + cnt, psi + scatter


def dirichlet_post(alpha, counts):
    """Posterior concentration for Dirichlet-Categorical."""
    return np.asarray(alpha, dtype=np.float64) + np.asarray(counts, dtype=np.float64)


def beta_bernoulli_post(a, b, ones, total):
    return a + ones, b + (total - ones)


def beta_binomial_post(a, b, successes, trials_total):
    return a + successes, b + (trials_total - successes)


def gamma_poisson_post(a, b, sum_y, cnt):
    return a + sum_y, b + cnt


def gamma_exponential_post(a, b, sum_y, cnt):
    return a + cnt, b + sum_y


def softmax(logits):
    """Numerically stable softmax along the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    m = np.max(logits, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(logits - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def outer(u, v):
    """Outer product (batched over leading axes)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return u[..., :, None] * v[..., None, :]


def zeros_like(x):
    """A float64 zero buffer shaped like ``x`` (a ragged one for a
    ragged ``x``, as :func:`fill_zero` also accepts)."""
    from repro.runtime.vectors import RaggedArray

    if isinstance(x, RaggedArray):
        return x.map_flat(lambda flat: np.zeros_like(flat, dtype=np.float64))
    return np.zeros_like(np.asarray(x, dtype=np.float64))


def fill_zero(buf):
    """Zero a pre-allocated buffer in place and return it.

    Keeps workspace allocation up-front (Section 5.2) while letting
    generated updates reset their statistics each sweep.
    """
    from repro.runtime.vectors import RaggedArray

    if isinstance(buf, RaggedArray):
        buf.flat.fill(0)
        return buf
    buf.fill(0)
    return buf


#: Dispatch table for ``lib.<name>`` calls in generated code.
TABLE = {
    "normal_normal_post": normal_normal_post,
    "mvnormal_post": mvnormal_post,
    "invwishart_post": invwishart_post,
    "dirichlet_post": dirichlet_post,
    "beta_bernoulli_post": beta_bernoulli_post,
    "beta_binomial_post": beta_binomial_post,
    "gamma_poisson_post": gamma_poisson_post,
    "gamma_exponential_post": gamma_exponential_post,
    "softmax": softmax,
    "outer": outer,
    "zeros_like": zeros_like,
    "fill_zero": fill_zero,
}
