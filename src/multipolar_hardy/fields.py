"""Pointwise fields attached to a pole configuration.

Everything downstream (quadrature, energy functionals, spectral bounds) is
built from the closed-form fields evaluated here:

* the multipolar potential

      V(x) = 1/2 sum_{i != j} |a_i - a_j|^2 / (|x - a_i|^2 |x - a_j|^2),

* the weight mu and its logarithmic gradient grad(mu)/mu,

* the Hardy factor f(x) = prod_i |x - a_i|^(-beta) together with

      grad(f)/f = -beta sum_i (x - a_i)/|x - a_i|^2,
      Delta(f)/f = sum_i (n beta^2 - beta (N - 2))/|x - a_i|^2 - beta^2 V(x),

* the perturbation field

      W(x) = -sum_i beta/|x - a_i|^2 * ((x - a_i).grad(mu)/mu - K_mu),

* the flux field F(x) = -(grad(f)/f) mu(x) whose divergence theorem is the
  source of the energy identity checked in `functionals`.

All evaluators accept a single point of shape (N,) or a batch of shape
(M, N) and are vectorised over the batch.  Evaluating within the resolution
guard of a pole raises AtPole; integration routines are responsible for
keeping their nodes clear of the guard.
"""

from __future__ import annotations

import numpy as np

from .config import HardyParams, PoleConfig, WeightSpec, resolution_guard
from .errors import AtPole

__all__ = [
    "weight_value",
    "weight_log_value",
    "weight_log_grad",
    "potential_v",
    "potential_w",
    "hardy_factor",
    "laplacian_ratio",
    "vector_field_f",
    "cross_term_identity_gap",
]


def _as_batch(x, dim: int):
    """Coerce a point or batch of points to shape (M, dim)."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"points must have shape (M, {dim}) or ({dim},), got {np.shape(x)}")
    return pts, single


def _pole_frame(x, cfg: PoleConfig, guarded: bool = True):
    """Differences and distances to every pole, with the AtPole guard.

    Returns (pts (M,N), diffs (M,n,N), dist (M,n), single flag).  Fields
    that stay regular at the poles (e.g. the Unit weight) pass
    guarded=False and handle zero distances themselves.
    """
    pts, single = _as_batch(x, cfg.dim)
    diffs = pts[:, None, :] - cfg.poles[None, :, :]
    dist = np.linalg.norm(diffs, axis=2)
    if guarded:
        guard = resolution_guard(cfg)
        if np.any(dist <= guard):
            k, i = np.argwhere(dist <= guard)[0]
            raise AtPole(
                f"point {pts[k]} is within {guard:.3e} of pole {i} at {cfg.poles[i]}"
            )
    return pts, diffs, dist, single


def _weight_is_singular(w: WeightSpec) -> bool:
    """Whether mu itself blows up or vanishes at the poles."""
    return (not w.is_unit) and w.gamma != 0.0


def _log_grad_is_singular(w: WeightSpec) -> bool:
    """Whether grad(mu)/mu is singular at the poles (gamma term, or m < 2)."""
    if w.is_unit:
        return False
    return w.gamma != 0.0 or (w.delta > 0.0 and w.m < 2.0)


def _maybe_scalar(values, single: bool):
    return values[0] if single else values


def weight_value(x, cfg: PoleConfig, w: WeightSpec):
    """Evaluate the weight mu(x).

    Raises AtPole only when mu is actually singular there (gamma != 0); the
    Unit weight evaluates to 1 everywhere including at the poles.
    """
    if w.is_unit:
        pts, single = _as_batch(x, cfg.dim)
        return _maybe_scalar(np.ones(pts.shape[0]), single)
    return np.exp(weight_log_value(x, cfg, w))


def weight_log_value(x, cfg: PoleConfig, w: WeightSpec):
    """Evaluate log mu(x) (well scaled far from the poles)."""
    pts, _, dist, single = _pole_frame(x, cfg, guarded=_weight_is_singular(w))
    if w.is_unit:
        return _maybe_scalar(np.zeros(pts.shape[0]), single)
    log_mu = np.zeros(pts.shape[0])
    if w.gamma != 0.0:
        log_mu -= w.gamma * np.sum(np.log(dist), axis=1)
    if w.delta > 0.0:
        log_mu -= w.delta * np.sum(dist**w.m, axis=1)
    return _maybe_scalar(log_mu, single)


def weight_log_grad(x, cfg: PoleConfig, w: WeightSpec):
    """Evaluate grad(mu)/mu as a vector field.

    For the PolyExp weight:

        grad(mu)/mu = sum_i (-gamma / |x - a_i|^2
                             - delta m |x - a_i|^(m-2)) * (x - a_i)

    The AtPole guard applies when the gamma term is present or when m < 2
    makes the exponential term singular.
    """
    pts, diffs, dist, single = _pole_frame(x, cfg, guarded=_log_grad_is_singular(w))
    if w.is_unit:
        out = np.zeros_like(pts)
        return out[0] if single else out
    coeff = np.zeros_like(dist)
    if w.gamma != 0.0:
        coeff -= w.gamma / dist**2
    if w.delta > 0.0:
        coeff -= w.delta * w.m * dist ** (w.m - 2.0)
    out = np.einsum("mi,min->mn", coeff, diffs)
    return out[0] if single else out


def potential_v(x, cfg: PoleConfig):
    """Evaluate the multipolar potential V(x).

    For a single pole the pair sum is empty and V == 0.
    """
    pts, _, dist, single = _pole_frame(x, cfg)
    n = cfg.n_poles
    if n < 2:
        return _maybe_scalar(np.zeros(pts.shape[0]), single)
    inv2 = 1.0 / dist**2
    pole_diff = cfg.poles[:, None, :] - cfg.poles[None, :, :]
    gap2 = np.sum(pole_diff**2, axis=2)
    iu, ju = np.triu_indices(n, k=1)
    vals = np.einsum("k,mk,mk->m", gap2[iu, ju], inv2[:, iu], inv2[:, ju])
    return _maybe_scalar(vals, single)


def potential_w(x, cfg: PoleConfig, w: WeightSpec, p: HardyParams):
    """Evaluate the perturbation W(x) for the weight w at parameters p.

    W is identically zero for the Unit weight with K_mu = 0 and for a
    single-pole PolyExp weight with delta = 0 and K_mu = -gamma; in general
    its boundedness from above is the hypothesis certified by
    `experiments.h2_certify`.

    The bracket (x - a_i) . grad(mu)/mu - K_mu is assembled with its
    diagonal term (x - a_i) . (x - a_i)/|x - a_i|^2 simplified
    algebraically, so the null cases above evaluate to exactly 0.0 even
    arbitrarily close to the poles, where a one-ulp residue would be
    amplified by the 1/|x - a_i|^2 factor.
    """
    pts, diffs, dist, single = _pole_frame(x, cfg)
    bracket = np.full((pts.shape[0], cfg.n_poles), -p.k_mu)
    if not w.is_unit:
        coeff = np.zeros_like(dist)
        if w.gamma != 0.0:
            coeff -= w.gamma / dist**2
        if w.delta > 0.0:
            coeff -= w.delta * w.m * dist ** (w.m - 2.0)
        dots = np.einsum("min,mjn->mij", diffs, diffs)
        cross = np.einsum("mij,mj->mi", dots, coeff)
        diag = np.einsum("mii->mi", dots) * coeff
        if w.gamma != 0.0:
            bracket -= w.gamma
        if w.delta > 0.0:
            bracket -= w.delta * w.m * dist**w.m
        bracket += cross - diag
    vals = -p.beta * np.sum(bracket / dist**2, axis=1)
    return _maybe_scalar(vals, single)


def hardy_factor(x, cfg: PoleConfig, beta: float):
    """Evaluate f(x) = prod_i |x - a_i|^(-beta) and grad(f)/f.

    Returns (value, grad_ratio) with shapes (M,) and (M, N).
    """
    pts, diffs, dist, single = _pole_frame(x, cfg)
    value = np.exp(-beta * np.sum(np.log(dist), axis=1))
    grad_ratio = -beta * np.einsum("mi,min->mn", 1.0 / dist**2, diffs)
    if single:
        return value[0], grad_ratio[0]
    return value, grad_ratio


def laplacian_ratio(x, cfg: PoleConfig, beta: float):
    """Evaluate Delta(f)/f for the Hardy factor f = prod_i |x - a_i|^(-beta).

        Delta(f)/f = sum_i (n beta^2 - beta (N - 2))/|x - a_i|^2 - beta^2 V(x)

    At beta = (N - 2)/n the first sum drops out and Delta(f)/f = -beta^2 V.
    """
    pts, _, dist, single = _pole_frame(x, cfg)
    n = cfg.n_poles
    coeff = n * beta * beta - beta * (cfg.dim - 2.0)
    vals = coeff * np.sum(1.0 / dist**2, axis=1) - beta * beta * potential_v(pts, cfg)
    return _maybe_scalar(vals, single)


def vector_field_f(x, cfg: PoleConfig, w: WeightSpec, beta: float):
    """Evaluate the flux field F(x) = -(grad(f)/f) mu(x)."""
    pts, diffs, dist, single = _pole_frame(x, cfg)
    mu = weight_value(pts, cfg, w)
    grad_ratio = -beta * np.einsum("mi,min->mn", 1.0 / dist**2, diffs)
    out = -grad_ratio * mu[:, None]
    return out[0] if single else out


def cross_term_identity_gap(x, cfg: PoleConfig):
    """Residual of the algebraic cross-term identity.

    The left side is the raw double sum

        sum_{i != j} (x - a_i).(x - a_j) / (|x - a_i|^2 |x - a_j|^2)

    and the right side its closed form (n - 1) sum_i 1/|x - a_i|^2 - V(x),
    obtained from 2 (x - a_i).(x - a_j) = |x - a_i|^2 + |x - a_j|^2
    - |a_i - a_j|^2.  The gap is pure rounding noise, of order
    1e-16 * (|lhs| + |rhs|); it is exposed so tests can pin the identity.
    """
    pts, diffs, dist, single = _pole_frame(x, cfg)
    n = cfg.n_poles
    if n < 2:
        return _maybe_scalar(np.zeros(pts.shape[0]), single)
    scaled = diffs / (dist**2)[:, :, None]
    dots = np.einsum("min,mjn->mij", scaled, scaled)
    idx = np.arange(n)
    dots[:, idx, idx] = 0.0
    lhs = np.sum(dots, axis=(1, 2))
    rhs = (n - 1) * np.sum(1.0 / dist**2, axis=1) - potential_v(pts, cfg)
    return _maybe_scalar(lhs - rhs, single)
