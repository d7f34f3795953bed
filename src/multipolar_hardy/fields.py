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

All evaluators accept a single point of shape (N,), a batch of shape
(M, N), or a `PoleFrame` of such points, and are vectorised over the
batch.  Every field is built from the differences x - a_i and the
distances |x - a_i|; a `PoleFrame` holds them (and, computed on first
use, sum_i log|x - a_i|, which mu and f share), so kernels evaluated on
one frame compute the pole geometry once between them.  A kernel given
plain points builds its own frame, with the same values bit for bit.
Distances are the squares summed in axis order, then the square root
(`_length`), and sums over the poles add the columns in pole order
(`_pole_sum`).  Evaluating within the resolution guard of a pole raises
AtPole; each guarded kernel checks the frame it is given, and
integration routines are responsible for keeping their nodes clear of
the guard.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .config import HardyParams, PoleConfig, WeightSpec, resolution_guard
from .errors import AtPole

__all__ = [
    "PoleFrame",
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


def _length(v: np.ndarray) -> np.ndarray:
    """Euclidean lengths along the last axis of v.

    The squares are summed in axis order and then square-rooted.  For a
    last axis of length up to 7 this is `np.linalg.norm(v, axis=-1)` bit
    for bit; from length 8 on numpy's reduction sums pairwise, and the two
    may differ by a few ulps.
    """
    sq = v[..., 0] * v[..., 0]
    for k in range(1, v.shape[-1]):
        sq += v[..., k] * v[..., k]
    return np.sqrt(sq)


def _pole_sum(a: np.ndarray) -> np.ndarray:
    """Sums over the pole axis of a (M, n) array, shape (M,).

    The columns are added in pole order, one running column sum started,
    as numpy's reduction is, from +0 (so a row of -0 terms sums to +0).
    For up to 7 poles this is `np.sum(a, axis=1)` bit for bit, signed
    zeros included, at a fraction of its cost on a short axis; from 8
    poles on numpy's reduction sums pairwise, and the two may differ by a
    few ulps.
    """
    out = 0.0 + a[:, 0]
    for i in range(1, a.shape[1]):
        out += a[:, i]
    return out


class PoleFrame:
    """A batch of points with its differences and distances to every pole.

    Holds pts (M, N), diffs (M, n, N) and dist (M, n); `log_dist_sum`,
    sum_i log|x - a_i| of shape (M,), is computed on first use.  `shape`
    is that of pts, so ``np.shape`` of a frame is that of its points.
    A frame of one point of shape (N,) has ``single`` set, and kernels
    return its values as scalars, as they do for the point.  Built
    without the AtPole guard: each guarded kernel checks the frame it is
    given.  A frame belongs to the configuration it was built for.
    """

    def __init__(self, x, cfg: PoleConfig):
        self.pts, self.single = _as_batch(x, cfg.dim)
        # Column by column: each difference x_k - a_ik is formed once, on
        # a contiguous column, stored, and squared into its distance in
        # axis order, so diffs and dist are those of the broadcast
        # difference and `_length` bit for bit.
        m, (n, dim) = self.pts.shape[0], cfg.poles.shape
        cols = [self.pts[:, k].copy() for k in range(dim)]
        self.diffs = np.empty((m, n, dim))
        self.dist = np.empty((m, n))
        for i, pole in enumerate(cfg.poles):
            for k in range(dim):
                d = cols[k] - pole[k]
                self.diffs[:, i, k] = d
                if k == 0:
                    sq = d * d
                else:
                    sq += d * d
            self.dist[:, i] = np.sqrt(sq)

    @property
    def shape(self) -> tuple:
        return self.pts.shape

    @cached_property
    def log_dist_sum(self) -> np.ndarray:
        return _pole_sum(np.log(self.dist))


def _frame(x, cfg: PoleConfig, guarded: bool = True) -> PoleFrame:
    """The frame of x (x itself if it is one), with the AtPole guard.

    Fields that stay regular at the poles (e.g. the Unit weight) pass
    guarded=False and handle zero distances themselves.
    """
    frame = x if isinstance(x, PoleFrame) else PoleFrame(x, cfg)
    if guarded:
        guard = resolution_guard(cfg)
        if np.any(frame.dist <= guard):
            k, i = np.argwhere(frame.dist <= guard)[0]
            raise AtPole(
                f"point {frame.pts[k]} is within {guard:.3e} of pole {i} at {cfg.poles[i]}"
            )
    return frame


def _batch(x, cfg: PoleConfig):
    """(pts (M, N), single flag) of a point, a batch or a frame."""
    if isinstance(x, PoleFrame):
        return x.pts, x.single
    return _as_batch(x, cfg.dim)


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
        pts, single = _batch(x, cfg)
        return _maybe_scalar(np.ones(pts.shape[0]), single)
    return np.exp(weight_log_value(x, cfg, w))


def weight_log_value(x, cfg: PoleConfig, w: WeightSpec):
    """Evaluate log mu(x) (well scaled far from the poles)."""
    if w.is_unit:
        pts, single = _batch(x, cfg)
        return _maybe_scalar(np.zeros(pts.shape[0]), single)
    frame = _frame(x, cfg, guarded=_weight_is_singular(w))
    log_mu = np.zeros(frame.pts.shape[0])
    if w.gamma != 0.0:
        log_mu -= w.gamma * frame.log_dist_sum
    if w.delta > 0.0:
        log_mu -= w.delta * _pole_sum(frame.dist**w.m)
    return _maybe_scalar(log_mu, frame.single)


def _log_grad_coeff(dist: np.ndarray, w: WeightSpec) -> np.ndarray:
    """c_i = -gamma / |x - a_i|^2 - delta m |x - a_i|^(m-2) of a PolyExp
    weight, shape (M, n): grad(mu)/mu = sum_i c_i (x - a_i)."""
    coeff = np.zeros_like(dist)
    if w.gamma != 0.0:
        coeff -= w.gamma / dist**2
    if w.delta > 0.0:
        coeff -= w.delta * w.m * dist ** (w.m - 2.0)
    return coeff


def weight_log_grad(x, cfg: PoleConfig, w: WeightSpec):
    """Evaluate grad(mu)/mu as a vector field.

    For the PolyExp weight:

        grad(mu)/mu = sum_i (-gamma / |x - a_i|^2
                             - delta m |x - a_i|^(m-2)) * (x - a_i)

    The AtPole guard applies when the gamma term is present or when m < 2
    makes the exponential term singular.
    """
    if w.is_unit:
        pts, single = _batch(x, cfg)
        out = np.zeros_like(pts)
        return out[0] if single else out
    frame = _frame(x, cfg, guarded=_log_grad_is_singular(w))
    out = np.einsum("mi,min->mn", _log_grad_coeff(frame.dist, w), frame.diffs)
    return out[0] if frame.single else out


def potential_v(x, cfg: PoleConfig):
    """Evaluate the multipolar potential V(x).

    For a single pole the pair sum is empty and V == 0.
    """
    frame = _frame(x, cfg)
    n = cfg.n_poles
    if n < 2:
        return _maybe_scalar(np.zeros(frame.pts.shape[0]), frame.single)
    inv2 = 1.0 / frame.dist**2
    pole_diff = cfg.poles[:, None, :] - cfg.poles[None, :, :]
    gap2 = np.sum(pole_diff**2, axis=2)
    iu, ju = np.triu_indices(n, k=1)
    vals = np.einsum("k,mk,mk->m", gap2[iu, ju], inv2[:, iu], inv2[:, ju])
    return _maybe_scalar(vals, frame.single)


def potential_w(x, cfg: PoleConfig, w: WeightSpec, p: HardyParams):
    """Evaluate the perturbation W(x) for the weight w at parameters p.

    W is identically zero for the Unit weight with K_mu = 0 and for a
    single-pole PolyExp weight with delta = 0 and K_mu = -gamma; in general
    its boundedness from above is the hypothesis certified by
    `experiments.h2_certify`.

    With grad(mu)/mu = g = sum_j c_j (x - a_j) (`_log_grad_coeff`), the
    bracket (x - a_i) . g - K_mu is assembled with its own term
    c_i |x - a_i|^2 simplified algebraically (to -gamma - delta m
    |x - a_i|^m), and the other poles' terms as the contraction
    (x - a_i) . (g - c_i (x - a_i)), one pole at a time on (M, N) arrays.
    For a single pole g - c_i (x - a_i) is exactly 0, so the null cases
    above evaluate to exactly 0.0 even arbitrarily close to the poles,
    where a one-ulp residue would be amplified by the 1/|x - a_i|^2
    factor.  W is linear in beta: beta enters only as the last factor,
    applied to a beta-free sum.
    """
    frame = _frame(x, cfg)
    diffs, dist = frame.diffs, frame.dist
    bracket = np.full((frame.pts.shape[0], cfg.n_poles), -p.k_mu)
    if not w.is_unit:
        coeff = _log_grad_coeff(dist, w)
        g = np.einsum("mi,min->mn", coeff, diffs)
        if w.gamma != 0.0:
            bracket -= w.gamma
        if w.delta > 0.0:
            bracket -= w.delta * w.m * dist**w.m
        for i in range(cfg.n_poles):
            d_i = diffs[:, i, :]
            bracket[:, i] += np.einsum("mn,mn->m", d_i, g - coeff[:, i, None] * d_i)
    vals = -p.beta * _pole_sum(bracket / dist**2)
    return _maybe_scalar(vals, frame.single)


def hardy_factor(x, cfg: PoleConfig, beta: float):
    """Evaluate f(x) = prod_i |x - a_i|^(-beta) and grad(f)/f.

    Returns (value, grad_ratio) with shapes (M,) and (M, N).
    """
    frame = _frame(x, cfg)
    value = np.exp(-beta * frame.log_dist_sum)
    grad_ratio = -beta * np.einsum("mi,min->mn", 1.0 / frame.dist**2, frame.diffs)
    if frame.single:
        return value[0], grad_ratio[0]
    return value, grad_ratio


def laplacian_ratio(x, cfg: PoleConfig, beta: float):
    """Evaluate Delta(f)/f for the Hardy factor f = prod_i |x - a_i|^(-beta).

        Delta(f)/f = sum_i (n beta^2 - beta (N - 2))/|x - a_i|^2 - beta^2 V(x)

    At beta = (N - 2)/n the first sum drops out and Delta(f)/f = -beta^2 V.
    """
    frame = _frame(x, cfg)
    n = cfg.n_poles
    coeff = n * beta * beta - beta * (cfg.dim - 2.0)
    vals = (coeff * _pole_sum(1.0 / frame.dist**2)
            - beta * beta * potential_v(frame, cfg))
    return _maybe_scalar(vals, frame.single)


def vector_field_f(x, cfg: PoleConfig, w: WeightSpec, beta: float):
    """Evaluate the flux field F(x) = -(grad(f)/f) mu(x)."""
    frame = _frame(x, cfg)
    mu = np.atleast_1d(weight_value(frame, cfg, w))
    grad_ratio = -beta * np.einsum("mi,min->mn", 1.0 / frame.dist**2, frame.diffs)
    out = -grad_ratio * mu[:, None]
    return out[0] if frame.single else out


def cross_term_identity_gap(x, cfg: PoleConfig):
    """Residual of the algebraic cross-term identity.

    The left side is the raw double sum

        sum_{i != j} (x - a_i).(x - a_j) / (|x - a_i|^2 |x - a_j|^2)

    and the right side its closed form (n - 1) sum_i 1/|x - a_i|^2 - V(x),
    obtained from 2 (x - a_i).(x - a_j) = |x - a_i|^2 + |x - a_j|^2
    - |a_i - a_j|^2.  The gap is pure rounding noise, of order
    1e-16 * (|lhs| + |rhs|); it is exposed so tests can pin the identity.
    """
    frame = _frame(x, cfg)
    dist = frame.dist
    n = cfg.n_poles
    if n < 2:
        return _maybe_scalar(np.zeros(frame.pts.shape[0]), frame.single)
    scaled = frame.diffs / (dist**2)[:, :, None]
    dots = np.einsum("min,mjn->mij", scaled, scaled)
    idx = np.arange(n)
    dots[:, idx, idx] = 0.0
    lhs = np.sum(dots, axis=(1, 2))
    rhs = (n - 1) * np.sum(1.0 / dist**2, axis=1) - potential_v(frame, cfg)
    return _maybe_scalar(lhs - rhs, frame.single)
