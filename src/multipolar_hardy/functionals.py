"""Test functions and the energy ledger for the multipolar Hardy identity.

This module supplies the concrete test functions the identity is probed
with (smooth bumps, radial cutoffs, and the near-optimal singular family)
and one energy ledger, `energy_report` (`energy_reports` for a corpus of
functions at several exponents in one call), which computes at an
exponent ``beta > 0`` of the comparison factor ``f = prod_i |x - a_i|^-beta``

    dirichlet   = integral |grad phi|^2 dmu     v_mass  = integral V phi^2 dmu
    w_mass      = integral W_beta phi^2 dmu     l2_mass = integral phi^2 dmu
    remainder   = integral |grad(phi/f)|^2 f^2 dmu
    inv_sq_mass = integral sum_i |x - a_i|^-2 phi^2 dmu

on shared quadrature nodes.  Every ``beta > 0`` satisfies the general
integral identity

    dirichlet = remainder + [beta (N + K_mu - 2) - n beta^2] * inv_sq_mass
                + beta^2 * v_mass - w_mass,

whose bracket vanishes at the optimal exponent ``beta = (N + K_mu - 2)/n``;
there the identity reads ``dirichlet = remainder + c * v_mass - w_mass``
and the inverse-square mass is not integrated.  `identity_residual` and
`identity_residual_error` evaluate the identity and its error estimate
from the ledger alone.

The ledger is one `integrate_many` call however many functions and
exponents it covers, with one `Integrand` per integral kind and function.
`_entries` builds them, and the Gram entries of
`experiments.spectral_bound` too: every kind is bilinear in a pair of
test functions, and a ledger integral is the pair (phi, phi).
`integrate_many` hands every integrand the same array of each slice of
nodes in turn, and they all share one `_Nodes` of that slice.  So each
field is evaluated once per node for the whole ledger: mu, V, W (once
for every exponent, as W is linear in beta) and the inverse-square sum,
all from one `fields.PoleFrame` of the slice (the pole differences,
distances and their log sum, computed once); the Hardy factor once per
exponent; and each test function's value and gradient once.  The
`OptimalityPhi` members of one exponent (the sharpness family
``theta_eps f``) share |x| and the Hardy factor ``f``, read from the same
frame, and the members whose plateau clears far_radius are integrated
once on the pole balls and the mid region, where each equals ``f``.  A
far-shell slice evaluates only the functions of its support.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import HardyParams, PoleConfig, WeightSpec, validate_config
from .errors import ConfigError, EpsilonInadmissible, NonpositiveBeta, ZeroVMass
from .fields import (
    PoleFrame,
    _as_batch,
    _length,
    hardy_factor,
    potential_v,
    potential_w,
    weight_value,
)
from .quadrature import (
    _DEAD_MARGIN,
    Integrand,
    IntegralResult,
    QuadratureSpec,
    integrate_many,
    integrate_radial_annulus,
)

__all__ = [
    "GaussianBump",
    "CutoffTheta",
    "OptimalityPhi",
    "TestFunction",
    "EnergyReport",
    "energy_report",
    "energy_reports",
    "identity_residual",
    "identity_residual_error",
    "hardy_ratio",
    "beta_identity_check",
    "max_admissible_eps",
]


@dataclass(frozen=True, eq=False)
class GaussianBump:
    """Smooth strictly positive bump ``exp(-|x - center|^2 / (2 width^2))``.

    Parameters
    ----------
    center : array_like, shape (N,)
        Centre of the bump.
    width : float
        Length scale; must be positive.
    """

    center: np.ndarray
    width: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if center.ndim != 1:
            raise ConfigError(f"center must be a vector, got shape {center.shape}")
        if not self.width > 0:
            raise ConfigError(f"width must be positive, got {self.width}")
        center.flags.writeable = False
        object.__setattr__(self, "center", center)

    #: the bump never vanishes; the quadrature's far shells run to a fixed
    #: multiple of far_radius and close the rest geometrically.
    support_radius = None
    #: phi is bounded near the poles.
    pole_singularity = 0.0

    def value(self, x):
        pts, squeeze = _as_batch(x, self.center.shape[0])
        d = pts - self.center
        out = np.exp(-0.5 * np.einsum("ij,ij->i", d, d) / self.width**2)
        return out[0] if squeeze else out

    def _gradient_at(self, pts, value):
        """The gradient at points pts (M, N) where the bump takes `value`."""
        return -((pts - self.center) / self.width**2) * value[:, None]

    def gradient(self, x):
        pts, squeeze = _as_batch(x, self.center.shape[0])
        out = self._gradient_at(pts, self.value(pts))
        return out[0] if squeeze else out


@dataclass(frozen=True)
class CutoffTheta:
    """Radial cutoff equal to 1 inside ``|x| <= R/eps``, 0 outside ``2R/eps``.

    On the transition annulus the profile is
    ``cos^2((pi/2) (eps |x| / R - 1))``, which is C^1 with gradient bounded
    by ``pi eps / (2 R)`` everywhere.

    Parameters
    ----------
    R : float
        Reference radius; the cutoff is identically 1 on the ball of
        radius ``R/eps``.
    eps : float
        Cutoff parameter in (0, 1]; smaller values push the transition
        annulus outward.
    """

    R: float
    eps: float

    def __post_init__(self):
        if not self.R > 0:
            raise ConfigError(f"R must be positive, got {self.R}")
        if not 0 < self.eps <= 1:
            raise EpsilonInadmissible(f"eps must lie in (0, 1], got {self.eps}")

    @property
    def support_radius(self) -> float:
        return 2.0 * self.R / self.eps

    pole_singularity = 0.0

    def _u(self, r):
        """Phase (pi/2)(eps r / R - 1), clipped to the transition annulus."""
        return 0.5 * math.pi * (self.eps * r / self.R - 1.0)

    def _value_at(self, r):
        """The profile at radii r = |x|, shape (M,)."""
        out = np.ones_like(r)
        out[r >= 2.0 * self.R / self.eps] = 0.0
        mid = (r > self.R / self.eps) & (r < 2.0 * self.R / self.eps)
        out[mid] = np.cos(self._u(r[mid])) ** 2
        return out

    def _gradient_at(self, pts, r):
        """The gradient at points pts (M, N) of radii r = |x|."""
        out = np.zeros_like(pts)
        mid = (r > self.R / self.eps) & (r < 2.0 * self.R / self.eps)
        if np.any(mid):
            slope = -0.5 * math.pi * self.eps / self.R
            dr = slope * np.sin(2.0 * self._u(r[mid]))
            out[mid] = (dr / r[mid])[:, None] * pts[mid]
        return out

    def value(self, x):
        pts, squeeze = _as_batch(x, np.shape(x)[-1])
        out = self._value_at(_length(pts))
        return out[0] if squeeze else out

    def gradient(self, x):
        pts, squeeze = _as_batch(x, np.shape(x)[-1])
        out = self._gradient_at(pts, _length(pts))
        return out[0] if squeeze else out


@dataclass(frozen=True, eq=False)
class OptimalityPhi:
    """Near-optimal test function ``theta_eps * f`` for the sharpness limit.

    ``f`` is the product ``prod_i |x - a_i|^(-beta)``; the cutoff keeps the
    function compactly supported while leaving it untouched near the poles,
    so it is singular there exactly like ``f``.  As ``eps`` decreases the
    Hardy ratio of this function descends to the optimal constant.

    Parameters
    ----------
    cfg : PoleConfig
        Pole configuration the singular factor is built from.
    R : float
        Cutoff reference radius.
    eps : float
        Cutoff parameter; must satisfy ``eps <= min(1, R / (2 max_i |a_i|))``
        so that every pole lies well inside the region where the cutoff is
        identically 1.
    beta : float
        Singularity exponent of ``f``; must be positive.
    """

    cfg: PoleConfig
    R: float
    eps: float
    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        limit = max_admissible_eps(self.cfg, self.R)
        if not 0 < self.eps <= limit:
            raise EpsilonInadmissible(
                f"eps = {self.eps} outside (0, {limit:.6g}]; the cutoff "
                f"annulus must stay clear of the poles"
            )
        object.__setattr__(self, "_theta", CutoffTheta(self.R, self.eps))

    @property
    def support_radius(self) -> float:
        return 2.0 * self.R / self.eps

    @property
    def pole_singularity(self) -> float:
        return self.beta

    def _value_at(self, r, hardy):
        """phi from the radii r = |x| and `hardy_factor` at `beta`."""
        f, _ = hardy
        return self._theta._value_at(r) * f

    def _gradient_at(self, pts, r, hardy):
        """grad phi at pts (M, N) from their radii and `hardy_factor`."""
        f, grad_ratio = hardy
        theta = self._theta
        th = theta._value_at(r)
        return f[:, None] * (th[:, None] * grad_ratio + theta._gradient_at(pts, r))

    def value(self, x):
        pts, squeeze = _as_batch(x, self.cfg.dim)
        out = self._value_at(_length(pts), hardy_factor(pts, self.cfg, self.beta))
        return out[0] if squeeze else out

    def gradient(self, x):
        pts, squeeze = _as_batch(x, self.cfg.dim)
        out = self._gradient_at(
            pts, _length(pts), hardy_factor(pts, self.cfg, self.beta)
        )
        return out[0] if squeeze else out


def _core(phi, radius: float):
    """What `phi` is on |x| <= radius, as a key: ``("f", beta)`` for an
    `OptimalityPhi` whose plateau R/eps clears `radius` by the rounding
    margin _DEAD_MARGIN * radius, `phi` itself otherwise.

    On |x| <= radius such a member's cutoff is exactly 1.0 and its
    gradient exactly 0, so its value and gradient there are those of the
    Hardy factor at its exponent, bit for bit, whatever eps: the members
    of one exponent are equal there.
    """
    cleared = radius * (1.0 + _DEAD_MARGIN)
    if isinstance(phi, OptimalityPhi) and phi.R / phi.eps > cleared:
        return ("f", phi.beta)
    return phi


#: Union of the supported test-function kinds.  All expose ``value``,
#: ``gradient``, ``support_radius`` and ``pole_singularity``.
TestFunction = GaussianBump | CutoffTheta | OptimalityPhi


def max_admissible_eps(cfg: PoleConfig, R: float) -> float:
    """Largest cutoff parameter keeping all poles inside the flat region.

    Returns ``min(1, R / (2 max_i |a_i|))``; for a single pole at the
    origin the geometric constraint is vacuous and the bound is 1.
    """
    if not R > 0:
        raise ConfigError(f"R must be positive, got {R}")
    biggest = float(np.max(np.linalg.norm(cfg.poles, axis=1)))
    if biggest == 0.0:
        return 1.0
    return min(1.0, R / (2.0 * biggest))


@dataclass(frozen=True)
class EnergyReport:
    """The energy integrals of one test function at one exponent.

    Attributes
    ----------
    dirichlet : IntegralResult
        ``integral |grad phi|^2 dmu``.
    v_mass : IntegralResult
        ``integral V phi^2 dmu``; zero when there is a single pole.
    w_mass : IntegralResult
        ``integral W phi^2 dmu`` with W built at `beta`.
    l2_mass : IntegralResult
        ``integral phi^2 dmu``.
    remainder : IntegralResult
        ``integral |grad(phi/f)|^2 f^2 dmu`` with ``f`` at exponent
        `beta`, the nonnegative defect that closes the integral identity.
    beta : float
        Exponent of the comparison factor ``f = prod_i |x - a_i|^-beta``.
    inv_sq_coefficient : float
        ``beta (N + K_mu - 2) - n beta^2``, the weight of `inv_sq_mass` in
        the general identity; it vanishes at the optimal exponent.
    inv_sq_mass : IntegralResult or None
        ``integral sum_i |x - a_i|^-2 phi^2 dmu``; None at the optimal
        exponent, where its coefficient vanishes.
    """

    dirichlet: IntegralResult
    v_mass: IntegralResult
    w_mass: IntegralResult
    l2_mass: IntegralResult
    remainder: IntegralResult
    beta: float
    inv_sq_coefficient: float
    inv_sq_mass: IntegralResult | None = None


def energy_report(
    phi: TestFunction,
    cfg: PoleConfig,
    w: WeightSpec,
    p: HardyParams,
    spec: QuadratureSpec,
    *,
    beta: float | None = None,
    allow_truncation: bool = False,
) -> EnergyReport:
    """Compute the energy integrals of `phi` at exponent `beta` on shared nodes.

    All integrals are evaluated by one `integrate_many` call over one
    common node set, so differences between them carry correlated rather
    than independent quadrature noise.  The inverse-square mass is only
    integrated away from the optimal exponent ``p.beta``, since its
    coefficient vanishes there.  For an `OptimalityPhi` whose own exponent
    is `beta` the remainder integrand reduces analytically to
    ``|grad theta_eps|^2 f^2 mu`` (because phi/f is the cutoff itself),
    which is supported on the cutoff annulus only and is integrated there
    by a deterministic product rule.

    Parameters
    ----------
    phi : TestFunction
        Test function to report on.
    cfg, w, p : PoleConfig, WeightSpec, HardyParams
        Pole geometry, weight, and derived constants.
    spec : QuadratureSpec
        Quadrature discretization.
    beta : float, optional
        Exponent of the comparison factor ``f``; defaults to ``p.beta``.
    allow_truncation : bool, optional
        Permit borderline non-integrable singularities; the affected
        integrals are then reported over the truncated domain with their
        ``truncated`` flag set.

    Raises
    ------
    NonpositiveBeta
        If ``beta <= 0``.
    NonIntegrableSingularity
        If any integrand fails the local integrability check.
    """
    beta = p.beta if beta is None else beta
    return energy_reports(
        [phi], cfg, w, p, spec, [beta], allow_truncation=allow_truncation
    )[0][0]


def energy_reports(
    functions: Sequence[TestFunction],
    cfg: PoleConfig,
    w: WeightSpec,
    p: HardyParams,
    spec: QuadratureSpec,
    betas: Sequence[float],
    *,
    allow_truncation: bool | Sequence[bool] = False,
) -> list[list[EnergyReport]]:
    """`energy_report` of every function at every exponent, in one call.

    Returns ``reports[j][b]``, the report of ``functions[j]`` at
    ``betas[b]``.  Each integral kind is one `Integrand` per function, and
    all of them go to one `integrate_many` call, so the pole balls and the
    mid region are built once for the whole corpus and the far shells once
    per support radius, for the functions of that support.  The integrals
    that do not depend on the exponent (Dirichlet, V-mass, L2-mass and, if
    any exponent is not ``p.beta``, the inverse-square mass) are
    integrated once; the W-mass and the remainder once per distinct
    exponent.  Each integrand is the `_entries` entry of one kind and the
    pair (phi, phi), and they share one `_Nodes` per slice of nodes, so
    mu, V, the inverse-square sum, the Hardy factor at each exponent and
    each function's value and gradient are evaluated once per node for
    the whole call, and the `OptimalityPhi` members of one exponent share
    |x| and the Hardy factor.  W is evaluated once per node for all
    exponents: it is linear in beta, so each exponent's W is that
    multiple of the one at beta = 1.  The `OptimalityPhi` members of one
    exponent and truncation flag whose plateau R/eps clears far_radius
    equal the Hardy factor at every pole and mid node, so each kind's
    integrands of theirs share one `Integrand.inner` key (`_core`): the
    pole balls and the mid region integrate the first member only, and
    each member its own far shells.  Every report equals, bit for bit, the
    `energy_report` of its function at its exponent alone (apart from
    ``cells``, the node count of the whole call).

    `allow_truncation` is one flag for every function or a sequence of
    one flag per function.  Raises as `energy_report`.
    """
    functions = list(functions)
    betas = [float(b) for b in betas]
    for b in betas:
        if not b > 0:
            raise NonpositiveBeta(f"beta must be positive, got {b}")
    validate_config(cfg, w)
    if isinstance(allow_truncation, bool):
        allow = [allow_truncation] * len(functions)
    else:
        allow = [bool(a) for a in allow_truncation]
        if len(allow) != len(functions):
            raise ValueError(
                f"{len(allow)} truncation flags for {len(functions)} functions"
            )

    def reduced(phi, beta):
        return isinstance(phi, OptimalityPhi) and phi.beta == beta

    everyone = range(len(functions))
    table = [("dirichlet", None, everyone), ("v_mass", None, everyone),
             ("l2_mass", None, everyone)]
    if any(b != p.beta for b in betas):
        table.append(("inv_sq_mass", None, everyone))
    for b in dict.fromkeys(betas):
        table.append(("w_mass", b, everyone))
        table.append(
            ("remainder", b, [j for j in everyone if not reduced(functions[j], b)])
        )

    entry = _entries(cfg, w, p, spec)
    integrands = [
        entry(kind, (kind,), functions[j], functions[j], b, allow[j])
        for kind, b, members in table for j in members
    ]
    results = iter(integrate_many(integrands, cfg, spec))
    got = {
        (kind, b): {j: next(results) for j in members} for kind, b, members in table
    }

    reports = []
    for j, phi in enumerate(functions):
        reports.append([
            EnergyReport(
                beta=b,
                inv_sq_coefficient=b * (cfg.dim + p.k_mu - 2.0) - cfg.n_poles * b**2,
                inv_sq_mass=None if b == p.beta else got["inv_sq_mass", None][j],
                dirichlet=got["dirichlet", None][j],
                v_mass=got["v_mass", None][j],
                l2_mass=got["l2_mass", None][j],
                w_mass=got["w_mass", b][j],
                remainder=(
                    _annulus_remainder(phi, cfg, w, p)
                    if reduced(phi, b) else got["remainder", b][j]
                ),
            )
            for b in betas
        ])
    return reports


class _Nodes:
    """The fields of one slice of quadrature nodes, each evaluated once.

    `_entries` makes one per slice, shared by every integrand of an
    `energy_reports` or `experiments.spectral_bound` call; the methods
    named after the integral kinds give the integrand of a pair of test
    functions, bilinear and symmetric in the pair: (phi, phi) for a
    ledger integral, (phi_i, phi_j) for a Gram entry.  mu,
    V, W and the inverse-square sum are evaluated once, on first use, the
    Hardy factor once per exponent, and each test function's value and
    gradient once per function.  W is linear in beta, so it is evaluated
    once, at beta = 1 (`w_unit`), and `w_pot(beta)` is ``beta * w_unit``:
    `fields.potential_w` applies beta last, to a beta-free sum, and
    rounding is symmetric in sign, so this is W at beta bit for bit.  All
    of them read one `PoleFrame` of the slice, built on first use, so the
    pole differences, distances and their log sum are computed once per
    slice; the unit mu needs no frame.
    `OptimalityPhi` members share |x| and the Hardy factor at their
    exponent, through the same `_value_at` and `_gradient_at` as their own
    `value` and `gradient`; a `GaussianBump`'s gradient comes from the
    value already held, through the `_gradient_at` its own `gradient`
    uses, so its exponential is evaluated once per node; every other test
    function is evaluated by its own `value` and `gradient`.  Values and
    gradients are kept by the identity of the function, which the caller
    keeps alive for the slice.
    """

    def __init__(self, x, cfg: PoleConfig, w: WeightSpec, p: HardyParams):
        self.x, self.cfg, self.w, self.p = x, cfg, w, p
        self._hardy = {}
        self._values = {}
        self._gradients = {}

    @cached_property
    def frame(self):
        return PoleFrame(self.x, self.cfg)

    @cached_property
    def mu(self):
        return weight_value(self.x if self.w.is_unit else self.frame, self.cfg, self.w)

    @cached_property
    def v_pot(self):
        return potential_v(self.frame, self.cfg)

    @cached_property
    def inv_sq_sum(self):
        diffs = self.frame.diffs
        return (1.0 / np.einsum("ipj,ipj->ip", diffs, diffs)).sum(axis=1)

    @cached_property
    def radius(self):
        return _length(self.x)

    def hardy(self, beta):
        if beta not in self._hardy:
            self._hardy[beta] = hardy_factor(self.frame, self.cfg, beta)
        return self._hardy[beta]

    @cached_property
    def w_unit(self):
        params = dataclasses.replace(self.p, beta=1.0)
        return potential_w(self.frame, self.cfg, self.w, params)

    def w_pot(self, beta):
        return beta * self.w_unit

    def value(self, phi):
        if id(phi) not in self._values:
            if isinstance(phi, OptimalityPhi):
                v = phi._value_at(self.radius, self.hardy(phi.beta))
            else:
                v = phi.value(self.x)
            self._values[id(phi)] = v
        return self._values[id(phi)]

    def gradient(self, phi):
        if id(phi) not in self._gradients:
            if isinstance(phi, OptimalityPhi):
                g = phi._gradient_at(self.x, self.radius, self.hardy(phi.beta))
            elif isinstance(phi, GaussianBump):
                g = phi._gradient_at(self.x, self.value(phi))
            else:
                g = phi.gradient(self.x)
            self._gradients[id(phi)] = g
        return self._gradients[id(phi)]

    # The integral kinds of a pair (phi, psi).  Each multiplies the two
    # members once, by one product or one dot product, which commutes:
    # swapping them changes no bit.

    def l2_mass(self, phi, psi, beta):
        return self.value(phi) * self.value(psi) * self.mu

    def dirichlet(self, phi, psi, beta):
        return np.einsum("ij,ij->i", self.gradient(phi), self.gradient(psi)) * self.mu

    def v_mass(self, phi, psi, beta):
        return self.v_pot * self.l2_mass(phi, psi, beta)

    def inv_sq_mass(self, phi, psi, beta):
        return self.inv_sq_sum * self.l2_mass(phi, psi, beta)

    def w_mass(self, phi, psi, beta):
        return self.w_pot(beta) * self.l2_mass(phi, psi, beta)

    def remainder(self, phi, psi, beta):
        _, grad_ratio = self.hardy(beta)

        def defect(f):
            return self.gradient(f) - self.value(f)[:, None] * grad_ratio

        d = defect(phi)
        return np.einsum("ij,ij->i", d, d if psi is phi else defect(psi)) * self.mu


def _entries(cfg: PoleConfig, w: WeightSpec, p: HardyParams, spec: QuadratureSpec):
    """entry(name, kinds, phi, psi, beta, allow): the `Integrand` of the
    sum of the `_Nodes` kinds named in `kinds` (a tuple) for the pair
    (phi, psi) at exponent `beta`, with truncation flag `allow`.

    This is the one code that turns test functions into integrands.  The
    entries of one `_entries` read one `_Nodes` per slice: integrate_many
    calls every integrand of a rule on one slice, with the same array,
    before the next slice, so one cell holds the `_Nodes` of the current
    slice.  An entry's pole exponent is the largest of its kinds', its
    support the smaller of its members' (a pair vanishes wherever either
    function does), and its `Integrand.inner` key is
    ``(kinds, beta, _core(phi), _core(psi), allow)`` at far_radius, so
    the entries whose members agree on the pole balls and the mid region
    are integrated there once.  The kinds commute, so the entry of
    (phi, psi) equals that of (psi, phi) at every node, bit for bit.
    """
    gamma = 0.0 if w.is_unit else w.gamma
    current = (None, None)  # (slice array, its _Nodes)

    def nodes_of(x):
        nonlocal current
        if current[0] is not x:
            current = (x, _Nodes(x, cfg, w, p))
        return current[1]

    def exponent(kind, s):
        # Per-pole singularity exponents: phi psi contributes s, the
        # gradients add 2 when the pair is singular, the potentials add 2,
        # and the weight adds gamma.
        if kind == "dirichlet":
            return s + gamma + (2.0 if s > 0 else 0.0)
        if kind == "l2_mass":
            return s + gamma
        return s + 2.0 + gamma

    def entry(name, kinds, phi, psi, beta, allow):
        def func(x):
            nodes = nodes_of(x)
            terms = [getattr(nodes, kind)(phi, psi, beta) for kind in kinds]
            return sum(terms[1:], terms[0])

        s = phi.pole_singularity + psi.pole_singularity
        bounded = [f.support_radius for f in (phi, psi) if f.support_radius is not None]
        return Integrand(
            func=func,
            pole_exponents=[max(exponent(kind, s) for kind in kinds)] * cfg.n_poles,
            support_radius=min(bounded, default=None),
            allow_truncation=allow,
            name=name,
            inner=(kinds, beta, _core(phi, spec.far_radius),
                   _core(psi, spec.far_radius), allow),
        )

    return entry


def _annulus_remainder(
    phi: OptimalityPhi, cfg: PoleConfig, w: WeightSpec, p: HardyParams
) -> IntegralResult:
    """Remainder of `phi` at its own exponent: ``|grad theta_eps|^2 f^2 mu``
    over the cutoff annulus, by the deterministic annulus rule."""

    def annulus_remainder(x):
        nodes = _Nodes(x, cfg, w, p)
        g = phi._theta._gradient_at(x, nodes.radius)
        f, _ = nodes.hardy(phi.beta)
        return np.einsum("ij,ij->i", g, g) * f * f * nodes.mu

    return integrate_radial_annulus(
        annulus_remainder,
        cfg.dim,
        phi.R / phi.eps,
        2.0 * phi.R / phi.eps,
    )


def _derived(terms) -> tuple[float, float]:
    """Value and error bar of a derived quantity ``sum_k c_k value_k``.

    `terms` are (coefficient, value, error) triples.  The value is the
    `math.fsum` of ``c_k value_k``, the bar ``sum_k |c_k| error_k``, added
    in term order, so it treats the terms' errors as independent.  This is
    the one rule of every derived bar.  The linear quantities, the identity
    residual and the optimality deficit ``dirichlet + w_mass - c v_mass``,
    take it directly.  The roots take the bar of the combination they zero
    divided by its slope in the root: the Hardy ratio r, of
    ``dirichlet + w_mass - r v_mass``, over ``v_mass``, and lambda_min, of
    ``w^T (A - lambda B) w`` at the witness w, over ``w^T B w``.
    """
    terms = list(terms)
    error = 0.0
    for c, _, e in terms:
        error += abs(c) * e
    return math.fsum([c * v for c, v, _ in terms]), error


def _identity_terms(report: EnergyReport, p: HardyParams):
    """(coefficient, value, error) terms of ``dirichlet - right-hand side``."""
    if report.inv_sq_mass is None:
        middle = [(-p.c_n_mu, report.v_mass)]
    else:
        middle = [
            (-report.inv_sq_coefficient, report.inv_sq_mass),
            (-(report.beta**2), report.v_mass),
        ]
    terms = [(1.0, report.dirichlet), (-1.0, report.remainder), *middle,
             (1.0, report.w_mass)]
    return [(c, r.value, r.error) for c, r in terms]


def _residual(report: EnergyReport, p: HardyParams, extra=()):
    """`identity_residual` and its bar (`_derived`), with the `extra`
    terms (the flux of a truncated row) after the identity's own."""
    value, error = _derived([*_identity_terms(report, p), *extra])
    scale = max(report.dirichlet.value, 1.0)
    return value / scale, error / scale


def identity_residual(report: EnergyReport, p: HardyParams) -> float:
    """Normalized residual of the general integral identity.

    For every exponent ``beta > 0`` the identity

        dirichlet = remainder
                    + [beta (N + K_mu - 2) - n beta^2] * inv_sq_mass
                    + beta^2 * v_mass - w_mass

    holds, with every term of `report` taken at ``report.beta``.  At the
    optimal exponent the bracket vanishes and ``beta^2 = c_n_mu``, so the
    identity reads ``dirichlet = remainder + c_n_mu * v_mass - w_mass``;
    that form is used whenever the report carries no inverse-square mass.
    The residual is the left-minus-right difference divided by
    ``max(dirichlet, 1)``.  It vanishes up to quadrature error for every
    admissible test function.
    """
    return _residual(report, p)[0]


def identity_residual_error(report: EnergyReport, p: HardyParams) -> float:
    """Error estimate of `identity_residual`: the bar of the same terms by
    the derived-bar rule (`_derived`), with the same normalization."""
    return _residual(report, p)[1]


def hardy_ratio(report: EnergyReport) -> float:
    """Ratio ``(dirichlet + w_mass) / v_mass`` bounded below by ``c_n_mu``.

    Raises
    ------
    ZeroVMass
        If the V-mass is zero or indistinguishable from zero at three
        standard errors (in particular for single-pole configurations,
        where V vanishes identically).
    """
    v = report.v_mass
    if v.value <= 3.0 * v.stderr:
        raise ZeroVMass(
            f"v_mass = {v.value:.3e} +- {v.stderr:.3e} is not positive; "
            f"the Hardy ratio is undefined"
        )
    return (report.dirichlet.value + report.w_mass.value) / v.value


def beta_identity_check(
    phi: TestFunction,
    beta: float,
    cfg: PoleConfig,
    w: WeightSpec,
    p: HardyParams,
    spec: QuadratureSpec,
    *,
    allow_truncation: bool = False,
) -> float:
    """`identity_residual` of the energy report of `phi` at exponent `beta`.

    Raises `NonpositiveBeta` if ``beta <= 0``.
    """
    rep = energy_report(
        phi, cfg, w, p, spec, beta=beta, allow_truncation=allow_truncation
    )
    return identity_residual(rep, p)
