"""Bijective reparameterisations for constrained parameters.

Gradient-based updates (HMC, NUTS) operate on an unconstrained space.
When the heuristic scheduler assigns such an update to a variable with
constrained support -- e.g. ``sigma2 ~ Exponential(lam)`` in the HLR
model, which is positive -- the compiler wraps the variable in one of
these transforms.  Each transform contributes the log-Jacobian of the
inverse map to the target density, which is the standard change of
variables used by Stan.
"""

from __future__ import annotations

import numpy as np


class Transform:
    """A bijection between a constrained space and the real line.

    Every transform acts element-wise and preserves size, so the packed
    HMC state applies each one to its variable's slice.
    """

    name: str

    def to_unconstrained(self, x):
        raise NotImplementedError

    def to_constrained(self, z):
        raise NotImplementedError

    def log_jacobian(self, z):
        """``log |d constrained / d z|`` at unconstrained point ``z``."""
        raise NotImplementedError

    def grad_log_jacobian(self, z):
        """Gradient of :meth:`log_jacobian` w.r.t. ``z``."""
        raise NotImplementedError

    def grad_constrained_wrt_z(self, z):
        """``d constrained / d z`` (for chain-ruling density gradients)."""
        raise NotImplementedError


class IdentityTransform(Transform):
    name = "identity"

    def to_unconstrained(self, x):
        return np.asarray(x, dtype=np.float64)

    def to_constrained(self, z):
        return np.asarray(z, dtype=np.float64)

    def log_jacobian(self, z):
        return np.zeros_like(np.asarray(z, dtype=np.float64))

    def grad_log_jacobian(self, z):
        return np.zeros_like(np.asarray(z, dtype=np.float64))

    def grad_constrained_wrt_z(self, z):
        return np.ones_like(np.asarray(z, dtype=np.float64))


class LogTransform(Transform):
    """Positive reals <-> reals via ``x = exp(z)``."""

    name = "log"

    def to_unconstrained(self, x):
        return np.log(np.asarray(x, dtype=np.float64))

    def to_constrained(self, z):
        # A diverging leapfrog trajectory may push z to overflow; the
        # resulting inf density evaluates to -inf and gets rejected.
        with np.errstate(over="ignore"):
            return np.exp(np.asarray(z, dtype=np.float64))

    def log_jacobian(self, z):
        return np.asarray(z, dtype=np.float64)

    def grad_log_jacobian(self, z):
        return np.ones_like(np.asarray(z, dtype=np.float64))

    def grad_constrained_wrt_z(self, z):
        with np.errstate(over="ignore"):
            return np.exp(np.asarray(z, dtype=np.float64))


class LogitTransform(Transform):
    """Open unit interval <-> reals via ``x = sigmoid(z)``."""

    name = "logit"

    def to_unconstrained(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.log(x) - np.log1p(-x)

    def to_constrained(self, z):
        z = np.asarray(z, dtype=np.float64)
        return 1.0 / (1.0 + np.exp(-z))

    def log_jacobian(self, z):
        z = np.asarray(z, dtype=np.float64)
        # log sigmoid(z) + log (1 - sigmoid(z)), computed stably.  A
        # diverged trajectory may hand us nan/inf; propagate quietly and
        # let the acceptance test reject.
        with np.errstate(invalid="ignore"):
            return -np.logaddexp(0.0, z) - np.logaddexp(0.0, -z)

    def grad_log_jacobian(self, z):
        z = np.asarray(z, dtype=np.float64)
        return 1.0 - 2.0 / (1.0 + np.exp(-z))

    def grad_constrained_wrt_z(self, z):
        s = self.to_constrained(z)
        return s * (1.0 - s)


def transform_for_support(support: str) -> Transform:
    """Pick the unconstraining transform for a distribution support tag."""
    if support in ("real", "real_vec"):
        return IdentityTransform()
    if support == "pos_real":
        return LogTransform()
    if support == "unit_interval":
        return LogitTransform()
    raise ValueError(f"no unconstraining transform for support {support!r}")
