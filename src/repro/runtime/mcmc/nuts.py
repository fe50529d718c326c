"""No-U-Turn sampler (prototype, paper footnote 5).

Implements the efficient NUTS of Hoffman & Gelman (2014, Algorithm 3)
with multinomial-free slice sampling and a fixed maximum tree depth,
on the packed flat state of
:class:`~repro.runtime.mcmc.hmc.FlatLogDensity` (:func:`nuts_step_flat`).
Each tree endpoint carries its gradient alongside position and
momentum, so every leaf costs exactly one fused compiled evaluation
instead of three (gradient at the start point, gradient at the new
point, log density at the new point).
"""

from __future__ import annotations

import numpy as np

from repro.runtime.mcmc.hmc import FlatLogDensity, flat_gaussian

_MAX_DEPTH = 8
_DELTA_MAX = 1000.0


def _leapfrog_one_flat(target: FlatLogDensity, z, p, g, eps, scratch,
                       metric=None):
    """One leapfrog step from ``(z, p)`` with the gradient ``g`` at ``z``
    already known; returns fresh ``(z1, p1, g1, lp1)``.

    One fused compiled evaluation (value+gradient at the new point) per
    call -- the gradient at the start point rides in with the endpoint.
    With a metric the drift picks up ``M^-1`` elementwise; the ``None``
    branch is the exact pre-adaptation code path.
    """
    half = 0.5 * eps
    p1 = np.empty_like(p)
    z1 = np.empty_like(z)
    np.multiply(g, half, out=p1)
    np.add(p1, p, out=p1)
    if metric is None:
        np.multiply(p1, eps, out=z1)
    else:
        np.multiply(p1, metric.inv_mass, out=z1)
        np.multiply(z1, eps, out=z1)
    np.add(z1, z, out=z1)
    lp1, g1 = target.value_and_grad(z1)
    g1 = g1.copy()  # detach from the density's internal buffer
    np.multiply(g1, half, out=scratch)
    np.add(p1, scratch, out=p1)
    return z1, p1, g1, lp1


def _flat_kin(p, metric) -> float:
    """Kinetic energy; the ``None`` branch matches the pre-metric code."""
    if metric is None:
        return 0.5 * float(np.dot(p, p))
    return 0.5 * float(np.dot(p, metric.inv_mass * p))


def _no_uturn_flat(z_minus, z_plus, p_minus, p_plus, metric=None) -> bool:
    diff = z_plus - z_minus
    if metric is not None:
        # The no-U-turn criterion compares against *velocities* M^-1 p.
        p_minus = metric.inv_mass * p_minus
        p_plus = metric.inv_mass * p_plus
    return float(np.dot(diff, p_minus)) >= 0 and float(np.dot(diff, p_plus)) >= 0


def nuts_step_flat(
    rng,
    target: FlatLogDensity,
    z: np.ndarray,
    step_size: float,
    info: dict | None = None,
    metric=None,
):
    """One NUTS transition on the packed flat state.

    Returns ``(next position, n_leapfrog, accept_stat)`` where
    ``accept_stat`` is the average Metropolis acceptance over the tree's
    leaf states -- the statistic dual-averaging step-size adaptation
    targets (Hoffman & Gelman 2014).  Tree endpoints are
    ``(position, momentum, gradient)`` vector triples; leapfrog and
    no-U-turn arithmetic is whole-vector, with one fused compiled
    evaluation per leaf.  ``z`` is never mutated.

    When ``info`` is supplied it is filled with the per-transition
    telemetry record: ``tree_depth``, ``n_leapfrog``, ``accept_stat``,
    the initial Hamiltonian ``energy``, and a ``divergent`` flag (a
    leaf's energy error exceeded ``_DELTA_MAX``).
    ``metric`` (a :class:`~repro.runtime.mcmc.adapt.DiagMetric`,
    ``None`` = identity) is one contiguous array applied in the momentum
    scale, drift, kinetic energy, and U-turn test; the momentum is
    scaled after the standard-normal draw (same RNG stream either way)
    and the ``None`` branches are the exact pre-adaptation code path.
    """
    p0 = np.empty_like(z)
    flat_gaussian(rng, target.layout, out=p0)
    if metric is not None:
        np.multiply(p0, metric.momentum_scale, out=p0)
    scratch = np.empty_like(z)
    with np.errstate(invalid="ignore", over="ignore"):
        lp0, g0 = target.value_and_grad(z)
    joint0 = lp0 - _flat_kin(p0, metric)
    log_u = joint0 + np.log(rng.uniform())
    divergent = False

    z_minus = z.copy()
    z_plus = z.copy()
    p_minus = p0.copy()
    p_plus = p0.copy()
    g_minus = g0.copy()
    g_plus = g0.copy()
    z_sample = z.copy()
    n = 1
    leapfrogs = 0
    keep_going = True
    alpha_sum = 0.0
    n_alpha = 0

    def build(zb, pb, gb, direction, depth):
        nonlocal leapfrogs, alpha_sum, n_alpha, divergent
        if depth == 0:
            with np.errstate(invalid="ignore", over="ignore"):
                z1, p1, g1, lp1 = _leapfrog_one_flat(
                    target, zb, pb, gb, direction * step_size, scratch,
                    metric=metric,
                )
                joint = lp1 - _flat_kin(p1, metric)
            leapfrogs += 1
            # NaN energies (overflowed trajectories) count as zero
            # acceptance -- min(0.0, nan) would silently yield 1.0 and
            # feed dual averaging a perfect score for a divergence.
            delta = joint - joint0
            if not np.isnan(delta):
                alpha_sum += float(min(1.0, np.exp(min(0.0, delta))))
            n_alpha += 1
            n1 = 1 if log_u <= joint else 0
            s1 = log_u < joint + _DELTA_MAX
            if not s1:
                divergent = True
            return z1, p1, g1, z1, p1, g1, z1, n1, s1
        zm, pm, gm, zp, pp, gp, zs, n1, s1 = build(zb, pb, gb, direction, depth - 1)
        if s1:
            if direction == -1:
                zm, pm, gm, _, _, _, zs2, n2, s2 = build(
                    zm, pm, gm, direction, depth - 1
                )
            else:
                _, _, _, zp, pp, gp, zs2, n2, s2 = build(
                    zp, pp, gp, direction, depth - 1
                )
            if n2 > 0 and rng.uniform() < n2 / max(1, n1 + n2):
                zs = zs2
            n1 += n2
            s1 = s2 and _no_uturn_flat(zm, zp, pm, pp, metric)
        return zm, pm, gm, zp, pp, gp, zs, n1, s1

    depth = 0
    while keep_going and depth < _MAX_DEPTH:
        direction = -1 if rng.uniform() < 0.5 else 1
        if direction == -1:
            z_minus, p_minus, g_minus, _, _, _, z_prop, n_prime, s_prime = build(
                z_minus, p_minus, g_minus, direction, depth
            )
        else:
            _, _, _, z_plus, p_plus, g_plus, z_prop, n_prime, s_prime = build(
                z_plus, p_plus, g_plus, direction, depth
            )
        if s_prime and rng.uniform() < min(1.0, n_prime / n):
            z_sample = z_prop
        n += n_prime
        keep_going = s_prime and _no_uturn_flat(
            z_minus, z_plus, p_minus, p_plus, metric
        )
        depth += 1
    accept_stat = alpha_sum / n_alpha if n_alpha else 0.0
    if info is not None:
        info["tree_depth"] = depth
        info["n_leapfrog"] = leapfrogs
        info["accept_stat"] = accept_stat
        info["energy"] = float(-joint0)
        info["divergent"] = divergent
    return z_sample, leapfrogs, accept_stat
