"""Configurations and derived constants for the multipolar Hardy laboratory.

The objects here pin down a problem instance:

* a pole set a_1, ..., a_n in R^N (N >= 3) carried by `PoleConfig`,
* a weight mu from the admissible family carried by `WeightSpec`,

      mu(x) = prod_i |x - a_i|^(-gamma) * exp(-delta * sum_i |x - a_i|^m),
      gamma < N - 2,  delta >= 0,  m <= 2   (Unit weight: gamma = delta = 0),

* the constants derived from the weight's pole strength K_mu carried by
  `HardyParams`:

      beta    = (N + K_mu - 2) / n
      c_n_mu  = (N + K_mu - 2)^2 / n^2      (constant in front of the potential)
      c_nn_mu = (N + K_mu - 2)^2 / (4 n)    (optimal single-term constant)

K_mu is the number such that (x - a_i) . grad(mu)/mu -> K_mu - (N - 2) ... at
each pole; for the Unit weight K_mu = 0, for a single-pole PolyExp weight
K_mu = -gamma, and in general it is certified numerically (see
`experiments.h2_certify`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadExponentM,
    DimensionTooSmall,
    DuplicatePoles,
    GammaOutOfRange,
    NonpositiveBeta,
    SinglePole,
)

__all__ = [
    "PoleConfig",
    "WeightSpec",
    "HardyParams",
    "validate_config",
    "derive_params",
    "min_pole_gap",
    "enclosing_radius",
    "resolution_guard",
    "far_field_decay_exponent",
    "suggest_k_mu",
]


@dataclass(frozen=True, eq=False)
class PoleConfig:
    """Ambient dimension and pole locations.

    Parameters
    ----------
    dim : int
        Ambient dimension N >= 3.
    poles : array_like, shape (n, dim)
        Pole locations a_1, ..., a_n, pairwise distinct.
    """

    dim: int
    poles: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.poles, dtype=float))
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(
                f"poles must have shape (n, {self.dim}), got {arr.shape}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "poles", arr)

    @property
    def n_poles(self) -> int:
        return self.poles.shape[0]

    @property
    def pole_scale(self) -> float:
        """Length scale 1 + max_i |a_i| used by resolution guards."""
        return 1.0 + float(np.max(np.linalg.norm(self.poles, axis=1)))


@dataclass(frozen=True)
class WeightSpec:
    """Weight family selector.

    kind "unit" is mu == 1; kind "polyexp" is the product weight
    prod_i |x - a_i|^(-gamma) * exp(-delta * sum_i |x - a_i|^m).
    """

    kind: str
    gamma: float = 0.0
    delta: float = 0.0
    m: float = 2.0

    @classmethod
    def unit(cls) -> "WeightSpec":
        return cls(kind="unit")

    @classmethod
    def polyexp(cls, gamma: float, delta: float = 0.0, m: float = 2.0) -> "WeightSpec":
        return cls(kind="polyexp", gamma=float(gamma), delta=float(delta), m=float(m))

    @property
    def is_unit(self) -> bool:
        return self.kind == "unit"


@dataclass(frozen=True)
class HardyParams:
    """Constants derived from (N, n, K_mu); see module docstring."""

    k_mu: float
    beta: float
    c_n_mu: float
    c_nn_mu: float


def validate_config(cfg: PoleConfig, w: WeightSpec | None = None) -> None:
    """Check a pole configuration (and optionally a weight) for admissibility.

    Raises
    ------
    DimensionTooSmall
        if cfg.dim < 3.
    DuplicatePoles
        if two poles are closer than the resolution guard.
    GammaOutOfRange
        if w is a PolyExp weight with gamma >= cfg.dim - 2.
    BadExponentM
        if w is a PolyExp weight with m > 2 or delta < 0.
    """
    if cfg.dim < 3:
        raise DimensionTooSmall(f"dim must be >= 3, got {cfg.dim}")
    if cfg.n_poles < 1:
        raise ValueError("at least one pole is required")
    guard = resolution_guard(cfg)
    if cfg.n_poles > 1:
        diff = cfg.poles[:, None, :] - cfg.poles[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        iu = np.triu_indices(cfg.n_poles, k=1)
        closest = float(dist[iu].min())
        if closest <= guard:
            raise DuplicatePoles(
                f"two poles are within {closest:.3e} of each other (guard {guard:.3e})"
            )
    if w is not None and not w.is_unit:
        if w.kind != "polyexp":
            raise ValueError(f"unknown weight kind {w.kind!r}")
        if not w.gamma < cfg.dim - 2:
            raise GammaOutOfRange(
                f"gamma must satisfy gamma < N - 2 = {cfg.dim - 2}, got {w.gamma}"
            )
        if w.m > 2.0:
            raise BadExponentM(f"m must satisfy m <= 2, got {w.m}")
        if w.delta < 0.0:
            raise BadExponentM(f"delta must be >= 0, got {w.delta}")


def derive_params(cfg: PoleConfig, k_mu: float) -> HardyParams:
    """Derive (beta, c_n_mu, c_nn_mu) from the pole count and K_mu.

    K_mu is accepted as a candidate (certified separately); the
    exact formulas give beta = (N+K_mu-2)/n, c_n_mu = (N+K_mu-2)^2/n^2 and
    c_nn_mu = (N+K_mu-2)^2/(4n).  Raises NonpositiveBeta unless
    N + K_mu - 2 > 0.
    """
    n = cfg.n_poles
    s = cfg.dim + k_mu - 2.0
    if not s > 0.0:
        raise NonpositiveBeta(
            f"need N + K_mu - 2 > 0; got {cfg.dim} + {k_mu} - 2 = {s}"
        )
    return HardyParams(
        k_mu=float(k_mu),
        beta=s / n,
        c_n_mu=s * s / (n * n),
        c_nn_mu=s * s / (4.0 * n),
    )


def min_pole_gap(cfg: PoleConfig) -> float:
    """Half the smallest pairwise pole distance: min_{i<j} |a_i - a_j| / 2.

    Pole-centred balls of this radius are disjoint.  Raises SinglePole for
    n == 1 (no pairwise gaps exist).
    """
    if cfg.n_poles < 2:
        raise SinglePole("min_pole_gap needs at least two poles")
    diff = cfg.poles[:, None, :] - cfg.poles[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    iu = np.triu_indices(cfg.n_poles, k=1)
    return float(dist[iu].min()) / 2.0


def enclosing_radius(cfg: PoleConfig, r0: float) -> float:
    """Radius of an origin-centred ball containing all pole balls B(a_i, r0).

    Requires r0 > 0 and, for n >= 2, r0 <= min_pole_gap so the balls are
    disjoint before being enclosed.
    """
    if r0 <= 0:
        raise ValueError(f"r0 must be > 0, got {r0}")
    if cfg.n_poles >= 2 and r0 > min_pole_gap(cfg):
        raise ValueError(
            f"r0 = {r0} exceeds min_pole_gap = {min_pole_gap(cfg)}"
        )
    return float(np.max(np.linalg.norm(cfg.poles, axis=1)) + r0)


def resolution_guard(cfg: PoleConfig) -> float:
    """Distance below which a point counts as sitting on a pole."""
    return 1e-12 * cfg.pole_scale


def far_field_decay_exponent(cfg: PoleConfig, w: WeightSpec) -> float:
    """Power d with mu(x) ~ |x|^(-d) as |x| -> infinity.

    Unit weight decays like |x|^0; a PolyExp weight with delta == 0 decays
    like |x|^(-n*gamma); with delta > 0 the decay is superpolynomial and
    +inf is returned.
    """
    if w.is_unit:
        return 0.0
    if w.delta > 0.0:
        return float("inf")
    return cfg.n_poles * w.gamma


def suggest_k_mu(cfg: PoleConfig, w: WeightSpec) -> float:
    """Heuristic seed for the weight's pole strength K_mu.

    Exact for the Unit weight (0) and for a single-pole PolyExp weight with
    delta == 0 or m == 2 (-gamma, where the perturbation W is constant).  In
    every other case the bracket (x - a_i).grad(mu)/mu + gamma vanishes only
    to first order at the poles, so K_mu = -gamma leaves W unbounded above;
    the seed is then shifted a fifth of the admissible window (2 - N, -gamma)
    below -gamma, which restores a -1/r^2 leading term and keeps the derived
    beta positive.  Callers are expected to re-certify the returned candidate
    with `experiments.h2_certify`.
    """
    if w.is_unit:
        return 0.0
    if cfg.n_poles == 1 and (w.delta == 0.0 or w.m == 2.0):
        return -w.gamma
    return -w.gamma - (cfg.dim - 2.0 - w.gamma) / 5.0
