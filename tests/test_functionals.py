"""Test functions and energy functionals: calculus, support, and identities.

The integral identity and ratio bounds are gated by the error budgets the
package itself reports (three combined standard errors), never by loose
magic tolerances; exactness claims (cutoff support, unit-weight W-mass,
scaling invariance) are asserted bitwise.
"""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from multipolar_hardy import (
    ConfigError,
    CutoffTheta,
    EnergyReport,
    EpsilonInadmissible,
    GaussianBump,
    NonpositiveBeta,
    OptimalityPhi,
    PoleConfig,
    QuadratureSpec,
    WeightSpec,
    ZeroVMass,
    beta_identity_check,
    derive_params,
    energy_report,
    energy_reports,
    hardy_factor,
    hardy_ratio,
    identity_residual,
    identity_residual_error,
    max_admissible_eps,
    weight_value,
)
from multipolar_hardy import fields, functionals, quadrature
from multipolar_hardy.fields import _as_batch, potential_v, potential_w
from multipolar_hardy.quadrature import (
    Integrand,
    integrate_many,
    integrate_radial_annulus,
)


def fd_gradient(func, pts: np.ndarray, h: float = 1e-6) -> np.ndarray:
    out = np.empty_like(pts)
    for k in range(pts.shape[1]):
        e = np.zeros(pts.shape[1])
        e[k] = h
        out[:, k] = (func(pts + e) - func(pts - e)) / (2 * h)
    return out


def report_error(res) -> float:
    return res.stderr + res.trunc_bound


@dataclasses.dataclass(frozen=True)
class Scaled:
    """phi multiplied by a constant; used to probe homogeneity bitwise."""

    base: object
    factor: float

    @property
    def support_radius(self):
        return self.base.support_radius

    @property
    def pole_singularity(self):
        return self.base.pole_singularity

    def value(self, x):
        return self.factor * self.base.value(x)

    def gradient(self, x):
        return self.factor * self.base.gradient(x)


# --------------------------------------------------------------------------
# test-function calculus
# --------------------------------------------------------------------------


class TestGaussianBump:
    def test_value_formula(self):
        phi = GaussianBump(center=np.array([1.0, -1.0, 0.0]), width=0.7)
        x = np.array([[0.2, 0.3, -0.4]])
        d2 = np.sum((x[0] - phi.center) ** 2)
        assert phi.value(x)[0] == pytest.approx(math.exp(-d2 / (2 * 0.49)), rel=1e-14)

    def test_gradient_matches_fd(self):
        phi = GaussianBump(center=np.array([0.5, 0.5, -0.2, 0.0]), width=1.3)
        pts = np.random.default_rng(3).uniform(-2, 2, size=(12, 4))
        np.testing.assert_allclose(
            phi.gradient(pts), fd_gradient(phi.value, pts), atol=1e-9
        )

    def test_gradient_from_held_value_is_bitwise(self, two_poles_n3, unit_weight):
        """The node context builds the gradient from the value it already
        holds; that, `gradient` and the direct formula agree bit for bit."""
        phi = GaussianBump(center=np.array([1.0, 0.3, -0.2]), width=0.8)
        pts = np.random.default_rng(5).uniform(-3, 3, size=(200, 3))
        nodes = functionals._Nodes(
            pts, two_poles_n3, unit_weight, derive_params(two_poles_n3, 0.0)
        )
        d = pts - phi.center
        value = np.exp(-0.5 * np.einsum("ij,ij->i", d, d) / 0.8**2)
        direct = -(d / 0.8**2) * value[:, None]
        assert nodes.gradient(phi).tolist() == direct.tolist()
        assert phi.gradient(pts).tolist() == direct.tolist()
        assert phi.gradient(pts[3]).tolist() == direct[3].tolist()

    def test_metadata(self):
        phi = GaussianBump(center=np.zeros(3), width=1.0)
        assert phi.support_radius is None
        assert phi.pole_singularity == 0.0

    def test_rejects_bad_width_and_center(self):
        with pytest.raises(ConfigError):
            GaussianBump(center=np.zeros(3), width=0.0)
        with pytest.raises(ConfigError):
            GaussianBump(center=np.zeros((2, 3)), width=1.0)


class TestCutoffTheta:
    def test_piecewise_profile(self):
        theta = CutoffTheta(R=1.0, eps=0.25)
        inner, mid, outer = 4.0, 6.0, 8.0  # R/eps = 4, 2R/eps = 8
        pts = np.array([[r, 0.0, 0.0] for r in (0.5, inner, mid, outer, 11.0)])
        vals = theta.value(pts)
        assert vals[0] == 1.0 and vals[1] == 1.0
        # midpoint of the annulus: u = pi/4, cos^2 = 1/2
        assert vals[2] == pytest.approx(0.5, rel=1e-14)
        assert vals[3] == 0.0 and vals[4] == 0.0

    def test_support_is_exact_zero(self):
        theta = CutoffTheta(R=2.0, eps=0.5)
        rng = np.random.default_rng(11)
        dirs = rng.normal(size=(40, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = dirs * rng.uniform(8.0, 30.0, size=(40, 1))
        assert np.all(theta.value(pts) == 0.0)
        assert np.all(theta.gradient(pts) == 0.0)

    def test_gradient_matches_fd_on_annulus(self):
        theta = CutoffTheta(R=1.0, eps=0.2)
        rng = np.random.default_rng(5)
        dirs = rng.normal(size=(15, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = dirs * rng.uniform(5.2, 9.8, size=(15, 1))
        np.testing.assert_allclose(
            theta.gradient(pts), fd_gradient(theta.value, pts), atol=1e-8
        )

    def test_gradient_bound(self):
        """|grad theta| <= pi eps / (2 R) everywhere."""
        theta = CutoffTheta(R=1.5, eps=0.4)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-9, 9, size=(4000, 3))
        norms = np.linalg.norm(theta.gradient(pts), axis=1)
        assert np.max(norms) <= 0.5 * math.pi * 0.4 / 1.5 + 1e-12

    def test_c1_at_the_seams(self):
        """The gradient vanishes continuously at both annulus boundaries."""
        theta = CutoffTheta(R=1.0, eps=0.5)
        for r in (2.0 + 1e-9, 4.0 - 1e-9):
            g = theta.gradient(np.array([[r, 0.0, 0.0]]))
            assert np.linalg.norm(g) < 1e-7

    @pytest.mark.parametrize("eps", [0.0, -0.2, 1.5])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(EpsilonInadmissible):
            CutoffTheta(R=1.0, eps=eps)

    def test_rejects_bad_radius(self):
        with pytest.raises(ConfigError):
            CutoffTheta(R=-1.0, eps=0.5)


class TestOptimalityPhi:
    def test_value_is_cutoff_times_singular_factor(self, two_poles_n3):
        phi = OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=0.2, beta=0.5)
        pts = np.array([[0.7, 0.4, -0.3], [6.0, 1.0, 0.0]])
        f, _ = hardy_factor(pts, two_poles_n3, 0.5)
        theta = CutoffTheta(R=1.0, eps=0.2)
        np.testing.assert_allclose(phi.value(pts), theta.value(pts) * f, rtol=1e-14)

    def test_gradient_matches_fd(self, two_poles_n3):
        phi = OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=0.2, beta=0.5)
        rng = np.random.default_rng(13)
        pts = []
        while len(pts) < 12:
            x = rng.uniform(-8, 8, size=3)
            if np.min(np.linalg.norm(two_poles_n3.poles - x, axis=1)) > 0.5:
                pts.append(x)
        pts = np.array(pts)
        g = phi.gradient(pts)
        scale = np.linalg.norm(g, axis=1, keepdims=True) + 1e-3
        np.testing.assert_allclose(
            g / scale, fd_gradient(phi.value, pts) / scale, atol=1e-6
        )

    def test_max_admissible_eps(self, two_poles_n3):
        # farthest pole at |(2,0,0)| = 2, so the cap is R / 4
        assert max_admissible_eps(two_poles_n3, 1.0) == pytest.approx(0.25)
        assert max_admissible_eps(two_poles_n3, 20.0) == 1.0
        origin_only = PoleConfig(dim=3, poles=np.zeros((1, 3)))
        assert max_admissible_eps(origin_only, 0.3) == 1.0

    def test_rejects_eps_reaching_the_poles(self, two_poles_n3):
        with pytest.raises(EpsilonInadmissible):
            OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=0.3, beta=0.5)

    def test_rejects_nonpositive_beta(self, two_poles_n3):
        with pytest.raises(ConfigError):
            OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=0.2, beta=0.0)

    def test_metadata(self, two_poles_n3):
        phi = OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=0.1, beta=0.4)
        assert phi.support_radius == pytest.approx(20.0)
        assert phi.pole_singularity == 0.4


# --------------------------------------------------------------------------
# energy reports
# --------------------------------------------------------------------------


class TestEnergyReport:
    def test_identity_residual_within_error_budget(self, two_poles_n3, lean_spec):
        phi = GaussianBump(center=np.array([1.0, 0.3, 0.0]), width=0.8)
        w = WeightSpec.unit()
        p = derive_params(two_poles_n3, 0.0)
        rep = energy_report(phi, two_poles_n3, w, p, lean_spec)
        res = identity_residual(rep, p)
        budget = (
            report_error(rep.dirichlet)
            + report_error(rep.remainder)
            + p.c_n_mu * report_error(rep.v_mass)
            + report_error(rep.w_mass)
        ) / max(rep.dirichlet.value, 1.0)
        assert abs(res) <= 3 * budget + 1e-12

    def test_identity_residual_polyexp(self, two_poles_n3, lean_spec):
        phi = GaussianBump(center=np.array([1.0, 0.3, 0.0]), width=0.8)
        w = WeightSpec.polyexp(gamma=0.5)
        p = derive_params(two_poles_n3, -0.6)
        rep = energy_report(phi, two_poles_n3, w, p, lean_spec)
        res = identity_residual(rep, p)
        budget = (
            report_error(rep.dirichlet)
            + report_error(rep.remainder)
            + p.c_n_mu * report_error(rep.v_mass)
            + report_error(rep.w_mass)
        ) / max(rep.dirichlet.value, 1.0)
        assert abs(res) <= 3 * budget + 1e-12

    def test_unit_weight_w_mass_is_exactly_zero(self, two_poles_n3, lean_spec):
        phi = GaussianBump(center=np.array([0.5, 0.0, 0.0]), width=1.0)
        p = derive_params(two_poles_n3, 0.0)
        rep = energy_report(phi, two_poles_n3, WeightSpec.unit(), p, lean_spec)
        assert rep.w_mass.value == 0.0
        assert rep.w_mass.stderr == 0.0

    def test_remainder_is_nonnegative(self, two_poles_n3, lean_spec):
        phi = GaussianBump(center=np.array([1.0, 0.0, 0.0]), width=0.6)
        p = derive_params(two_poles_n3, 0.0)
        rep = energy_report(phi, two_poles_n3, WeightSpec.unit(), p, lean_spec)
        assert rep.remainder.value >= -3 * report_error(rep.remainder)

    def test_hardy_ratio_respects_lower_bound(self, two_poles_n3, lean_spec):
        phi = GaussianBump(center=np.array([1.0, 0.0, 0.0]), width=0.6)
        p = derive_params(two_poles_n3, 0.0)
        rep = energy_report(phi, two_poles_n3, WeightSpec.unit(), p, lean_spec)
        ratio = hardy_ratio(rep)
        err = (
            report_error(rep.dirichlet) + report_error(rep.w_mass)
        ) / rep.v_mass.value + ratio * report_error(rep.v_mass) / rep.v_mass.value
        assert ratio >= p.c_n_mu * (1 - 1e-9) - 3 * err

    def test_hardy_ratio_is_scale_invariant_bitwise(self, two_poles_n3, lean_spec):
        """phi -> 2 phi multiplies every integrand by the exact float 4.0,
        so each integral, and hence the ratio, must match bit for bit."""
        phi = GaussianBump(center=np.array([1.0, 0.2, 0.0]), width=0.7)
        p = derive_params(two_poles_n3, 0.0)
        base = energy_report(phi, two_poles_n3, WeightSpec.unit(), p, lean_spec)
        scaled = energy_report(
            Scaled(phi, 2.0), two_poles_n3, WeightSpec.unit(), p, lean_spec
        )
        assert hardy_ratio(scaled) == hardy_ratio(base)
        assert scaled.dirichlet.value == 4.0 * base.dirichlet.value
        assert scaled.v_mass.value == 4.0 * base.v_mass.value

    def test_single_pole_has_zero_v_mass(self, lean_spec):
        cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))
        phi = GaussianBump(center=np.array([0.5, 0.0, 0.0]), width=0.8)
        p = derive_params(cfg, 0.0)
        spec = dataclasses.replace(lean_spec, far_radius=6.0)
        rep = energy_report(phi, cfg, WeightSpec.unit(), p, spec)
        assert rep.v_mass.value == 0.0
        with pytest.raises(ZeroVMass):
            hardy_ratio(rep)

    def test_annulus_reduction_matches_general_path(self, two_poles_n3):
        """For theta * f the remainder integrand collapses to
        |grad theta|^2 f^2 mu; the deterministic annulus rule and the
        general-path evaluation must agree within combined errors."""
        w = WeightSpec.polyexp(gamma=0.5)
        p = derive_params(two_poles_n3, -0.6)  # beta = 0.2: strictly integrable
        phi = OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=0.2, beta=p.beta)
        spec = QuadratureSpec(
            pole_radius=0.9,
            far_radius=6.0,
            radial_levels=20,
            mc_samples=200_000,
            seed=1234,
        )
        reduced = energy_report(phi, two_poles_n3, w, p, spec)
        proxy = Scaled(phi, 1.0)  # defeats the isinstance dispatch only
        general = energy_report(proxy, two_poles_n3, w, p, spec)
        tol = 3 * (
            report_error(reduced.remainder) + report_error(general.remainder)
        )
        assert reduced.remainder.value == pytest.approx(
            general.remainder.value, abs=max(tol, 1e-10)
        )
        assert reduced.remainder.stderr == 0.0  # deterministic annulus rule


# --------------------------------------------------------------------------
# general-exponent identity
# --------------------------------------------------------------------------


def reference_beta_identity_check(phi, beta, cfg, w, p, spec):
    """The general-exponent residual as a standalone computation, kept as
    the reference the single energy ledger must reproduce bitwise."""
    gamma = 0.0 if w.is_unit else w.gamma
    sigma = phi.pole_singularity
    n = cfg.n_poles
    w_params = dataclasses.replace(p, beta=beta)

    def mu(x):
        return weight_value(x, cfg, w)

    def phi2_mu(x):
        v = phi.value(x)
        return v * v * mu(x)

    def dirichlet(x):
        g = phi.gradient(x)
        return np.einsum("ij,ij->i", g, g) * mu(x)

    def v_mass(x):
        return potential_v(x, cfg) * phi2_mu(x)

    def w_mass(x):
        return potential_w(x, cfg, w, w_params) * phi2_mu(x)

    def inv_sq_mass(x):
        pts, _ = _as_batch(x, cfg.dim)
        diffs = pts[:, None, :] - cfg.poles[None, :, :]
        inv = 1.0 / np.einsum("ipj,ipj->ip", diffs, diffs)
        return inv.sum(axis=1) * phi2_mu(pts)

    def remainder_beta(x):
        g = phi.gradient(x)
        v = phi.value(x)
        _, grad_ratio = hardy_factor(x, cfg, beta)
        d = g - v[:, None] * grad_ratio
        return np.einsum("ij,ij->i", d, d) * mu(x)

    grad_exp = 2.0 * sigma + gamma + (2.0 if sigma > 0 else 0.0)
    mass_exp = 2.0 * sigma + 2.0 + gamma
    funcs = [dirichlet, v_mass, w_mass, phi2_mu, inv_sq_mass, remainder_beta]
    exps = [grad_exp, mass_exp, mass_exp, 2.0 * sigma + gamma, mass_exp, mass_exp]
    names = ["dirichlet", "v_mass", "w_mass", "l2_mass", "inv_sq_mass", "remainder"]
    integrands = [
        Integrand(
            func=f, pole_exponents=[e] * n, support_radius=phi.support_radius,
            name=nm,
        )
        for f, e, nm in zip(funcs, exps, names)
    ]
    dir_r, v_r, w_r, _, inv_r, rem_r = integrate_many(integrands, cfg, spec)
    coeff = beta * (cfg.dim + p.k_mu - 2.0) - cfg.n_poles * beta**2
    num = math.fsum(
        [
            dir_r.value,
            -rem_r.value,
            -coeff * inv_r.value,
            -(beta**2) * v_r.value,
            w_r.value,
        ]
    )
    return num / max(dir_r.value, 1.0)


class TestBetaIdentity:
    @pytest.fixture()
    def beta_spec(self, lean_spec):
        """The residual is pure MC noise (~1/sqrt(mc)); 240k samples put the
        observed values near 1e-3 so a 5e-3 gate is meaningful."""
        return dataclasses.replace(lean_spec, mc_samples=240_000)

    @pytest.mark.parametrize("beta", [0.2, 0.5, 0.9])
    def test_residual_small_unit_weight(self, two_poles_n3, beta_spec, beta):
        phi = GaussianBump(center=np.array([1.0, 0.3, 0.0]), width=0.8)
        p = derive_params(two_poles_n3, 0.0)
        res = beta_identity_check(
            phi, beta, two_poles_n3, WeightSpec.unit(), p, beta_spec
        )
        assert abs(res) < 5e-3

    def test_residual_small_polyexp(self, two_poles_n3, beta_spec):
        phi = GaussianBump(center=np.array([0.8, 0.0, 0.0]), width=0.9)
        w = WeightSpec.polyexp(gamma=0.5)
        p = derive_params(two_poles_n3, -0.6)
        res = beta_identity_check(phi, 0.35, two_poles_n3, w, p, beta_spec)
        assert abs(res) < 5e-3

    def test_reduces_to_identity_residual_at_optimal_beta(
        self, two_poles_n3, lean_spec
    ):
        """At beta = p.beta the bracket coefficient vanishes and both code
        paths integrate the same integrands on the same nodes: the residuals
        agree bitwise, not just approximately."""
        phi = GaussianBump(center=np.array([1.0, 0.3, 0.0]), width=0.8)
        p = derive_params(two_poles_n3, 0.0)
        rep = energy_report(phi, two_poles_n3, WeightSpec.unit(), p, lean_spec)
        direct = identity_residual(rep, p)
        via_beta = beta_identity_check(
            phi, p.beta, two_poles_n3, WeightSpec.unit(), p, lean_spec
        )
        assert via_beta == direct

    @pytest.mark.parametrize("beta", [0.2, "optimal", 0.9])
    def test_ledger_matches_reference_unit_weight(self, two_poles_n3, lean_spec, beta):
        """The one ledger reproduces the standalone general-exponent
        residual bitwise, including at the optimal exponent, where it skips
        the inverse-square mass whose coefficient is exactly zero."""
        phi = GaussianBump(center=np.array([1.0, 0.3, 0.0]), width=0.8)
        p = derive_params(two_poles_n3, 0.0)
        beta = p.beta if beta == "optimal" else beta
        w = WeightSpec.unit()
        expected = reference_beta_identity_check(
            phi, beta, two_poles_n3, w, p, lean_spec
        )
        assert beta_identity_check(phi, beta, two_poles_n3, w, p, lean_spec) == expected
        rep = energy_report(phi, two_poles_n3, w, p, lean_spec, beta=beta)
        assert identity_residual(rep, p) == expected
        assert rep.beta == beta
        assert (rep.inv_sq_mass is None) == (beta == p.beta)

    def test_ledger_matches_reference_power_weight(self, two_poles_n3, lean_spec):
        phi = GaussianBump(center=np.array([0.8, 0.0, 0.0]), width=0.9)
        w = WeightSpec.polyexp(gamma=0.5)
        p = derive_params(two_poles_n3, -0.6)
        expected = reference_beta_identity_check(
            phi, 0.35, two_poles_n3, w, p, lean_spec
        )
        assert beta_identity_check(phi, 0.35, two_poles_n3, w, p, lean_spec) == expected

    def test_default_ledger_skips_inverse_square_mass(self, two_poles_n3, lean_spec):
        """At the default exponent the ledger is the five integrals of the
        exact identity; its error is the sum of their weighted errors."""
        phi = GaussianBump(center=np.array([1.0, 0.3, 0.0]), width=0.8)
        p = derive_params(two_poles_n3, 0.0)
        rep = energy_report(phi, two_poles_n3, WeightSpec.unit(), p, lean_spec)
        assert rep.inv_sq_mass is None
        assert rep.beta == p.beta
        expected = (
            rep.dirichlet.error
            + rep.remainder.error
            + p.c_n_mu * rep.v_mass.error
            + rep.w_mass.error
        ) / max(rep.dirichlet.value, 1.0)
        assert identity_residual_error(rep, p) == expected

    def test_rejects_nonpositive_beta(self, two_poles_n3, lean_spec):
        phi = GaussianBump(center=np.array([1.0, 0.0, 0.0]), width=0.8)
        p = derive_params(two_poles_n3, 0.0)
        with pytest.raises(NonpositiveBeta):
            beta_identity_check(
                phi, -0.5, two_poles_n3, WeightSpec.unit(), p, lean_spec
            )
        with pytest.raises(NonpositiveBeta):
            energy_report(phi, two_poles_n3, WeightSpec.unit(), p, lean_spec, beta=0.0)


# --------------------------------------------------------------------------
# the shared-node ledger against the per-integrand one
# --------------------------------------------------------------------------


def reference_energy_report(phi, cfg, w, p, spec, *, beta=None, allow_truncation=False):
    """The energy ledger with one integrand per integral, each evaluating
    phi, its gradient, mu and the potentials on its own: the reference the
    ledger, whose integrands share one `_Nodes` per slice, must reproduce
    bitwise."""
    beta = p.beta if beta is None else float(beta)
    w_params = dataclasses.replace(p, beta=beta)

    def mu(x):
        return weight_value(x, cfg, w)

    def phi2_mu(x):
        v = phi.value(x)
        return v * v * mu(x)

    def dirichlet(x):
        g = phi.gradient(x)
        return np.einsum("ij,ij->i", g, g) * mu(x)

    def v_mass(x):
        return potential_v(x, cfg) * phi2_mu(x)

    def w_mass(x):
        return potential_w(x, cfg, w, w_params) * phi2_mu(x)

    def remainder(x):
        g = phi.gradient(x)
        v = phi.value(x)
        _, grad_ratio = hardy_factor(x, cfg, beta)
        d = g - v[:, None] * grad_ratio
        return np.einsum("ij,ij->i", d, d) * mu(x)

    def inv_sq_mass(x):
        pts, _ = _as_batch(x, cfg.dim)
        diffs = pts[:, None, :] - cfg.poles[None, :, :]
        inv = 1.0 / np.einsum("ipj,ipj->ip", diffs, diffs)
        return inv.sum(axis=1) * phi2_mu(pts)

    sigma = phi.pole_singularity
    gamma = 0.0 if w.is_unit else w.gamma
    mass_exp = 2.0 * sigma + 2.0 + gamma
    table = [
        ("dirichlet", dirichlet, 2.0 * sigma + gamma + (2.0 if sigma > 0 else 0.0)),
        ("v_mass", v_mass, mass_exp),
        ("w_mass", w_mass, mass_exp),
        ("l2_mass", phi2_mu, 2.0 * sigma + gamma),
    ]
    reduced = isinstance(phi, OptimalityPhi) and phi.beta == beta
    if not reduced:
        table.append(("remainder", remainder, mass_exp))
    if beta != p.beta:
        table.append(("inv_sq_mass", inv_sq_mass, mass_exp))
    integrands = [
        Integrand(
            func=f,
            pole_exponents=[e] * cfg.n_poles,
            support_radius=phi.support_radius,
            allow_truncation=allow_truncation,
            name=name,
        )
        for name, f, e in table
    ]
    results = {
        f.name: r for f, r in zip(integrands, integrate_many(integrands, cfg, spec))
    }
    if reduced:
        theta = phi._theta

        def annulus_remainder(x):
            g = theta.gradient(x)
            f, _ = hardy_factor(x, cfg, phi.beta)
            return np.einsum("ij,ij->i", g, g) * f * f * weight_value(x, cfg, w)

        results["remainder"] = integrate_radial_annulus(
            annulus_remainder, cfg.dim, phi.R / phi.eps, 2.0 * phi.R / phi.eps,
        )
    coefficient = beta * (cfg.dim + p.k_mu - 2.0) - cfg.n_poles * beta**2
    return EnergyReport(beta=beta, inv_sq_coefficient=coefficient, **results)


class TestBundledLedger:
    @pytest.mark.parametrize(
        "case, beta",
        [("bump", None), ("bump", 0.3), ("polyexp", None), ("polyexp", 0.35),
         ("optimal", None), ("optimal", 0.7)],
    )
    def test_matches_per_integrand_reference(self, two_poles_n3, lean_spec, case, beta):
        """Every integral of the shared-node ledger, at beta = p.beta and
        away from it, equals the per-integrand ledger's bit for bit."""
        w, k_mu = WeightSpec.unit(), 0.0
        if case == "polyexp":
            w, k_mu = WeightSpec.polyexp(gamma=0.5), -0.6
        p = derive_params(two_poles_n3, k_mu)
        phi = GaussianBump(center=np.array([1.0, 0.3, 0.0]), width=0.8)
        allow = case == "optimal"
        if allow:
            phi = OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=0.25, beta=p.beta)
        args = (phi, two_poles_n3, w, p, lean_spec)
        expected = reference_energy_report(*args, beta=beta, allow_truncation=allow)
        assert energy_report(*args, beta=beta, allow_truncation=allow) == expected

    def test_one_call_equals_one_report_per_beta(self, two_poles_n3, lean_spec):
        """The multi-exponent ledger shares its exponent-free integrals, and
        W between its exponents, and still gives each exponent's report
        exactly.  At the unit weight with K_mu = 0, W vanishes; the
        gamma = 1/2 weight has a W of every sign."""
        for w, k_mu, other in [
            (WeightSpec.unit(), 0.0, 0.2),
            (WeightSpec.polyexp(gamma=0.5), -0.6, 0.35),
        ]:
            p = derive_params(two_poles_n3, k_mu)
            phi = OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=0.25, beta=p.beta)
            betas = [other, p.beta, 0.8]
            args = (two_poles_n3, w, p, lean_spec)
            (reports,) = energy_reports([phi], *args, betas, allow_truncation=True)
            assert reports == [
                energy_report(phi, *args, beta=b, allow_truncation=True)
                for b in betas
            ]
            assert reports[1].inv_sq_mass is None
            assert reports[0].inv_sq_mass is reports[2].inv_sq_mass

    def test_rejects_nonpositive_beta_anywhere(self, two_poles_n3, lean_spec):
        phi = GaussianBump(center=np.array([1.0, 0.0, 0.0]), width=0.8)
        p = derive_params(two_poles_n3, 0.0)
        with pytest.raises(NonpositiveBeta):
            energy_reports(
                [phi], two_poles_n3, WeightSpec.unit(), p, lean_spec, [0.5, -0.1]
            )


# --------------------------------------------------------------------------
# one ledger call for a whole corpus
# --------------------------------------------------------------------------


def integrals(rep):
    """Every field of a report, each integral as (value, stderr, trunc_bound,
    truncated, eta): a result's ``cells`` counts the nodes of its whole
    integrate_many call, so a corpus with several supports counts more."""
    out = {}
    for f in dataclasses.fields(rep):
        v = getattr(rep, f.name)
        if hasattr(v, "trunc_bound"):
            v = (v.value, v.stderr, v.trunc_bound, v.truncated, v.eta)
        out[f.name] = v
    return out


def corpus(cfg, p):
    """Two bumps, a cutoff, and a near-optimal family of three members of one
    exponent and three different supports."""
    dim = cfg.dim
    bumps = [
        GaussianBump(center=np.eye(dim)[0] * 1.0 + 0.3 * np.eye(dim)[1], width=0.8),
        GaussianBump(center=-0.4 * np.eye(dim)[2], width=0.6),
    ]
    family = [
        OptimalityPhi(cfg=cfg, R=1.0, eps=eps, beta=p.beta)
        for eps in (0.25, 0.2, 0.125)
    ]
    return bumps + [CutoffTheta(R=1.0, eps=0.5)] + family


class TestCorpusLedger:
    CASES = {
        # gamma = 1/2 in N = 3: every exponent strictly below N.
        "strict_n3_power": (3, WeightSpec.polyexp(gamma=0.5), -0.6, 0.35),
        # unit weight in N = 4: the family's masses are borderline, truncated.
        "truncated_n4_unit": (4, WeightSpec.unit(), 0.0, 0.7),
    }

    @pytest.mark.parametrize("repeats", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_equal_each_functions_own_report(self, case, repeats):
        """One call for the corpus gives every function, at beta = p.beta and
        away from it, the integrals of its own energy_report bit for bit, on
        the first call in a row and on a later one.  Besides the corpus, two
        families of a second exponent: one whose plateaus R/eps = 8, 10, 16
        clear far_radius, so that its members share their pole and mid
        integrals, and one whose plateaus 4 and 5 do not."""
        dim, w, k_mu, other = self.CASES[case]
        cfg = PoleConfig(dim=dim, poles=np.array([np.zeros(dim), 2.0 * np.eye(dim)[0]]))
        p = derive_params(cfg, k_mu)
        spec = QuadratureSpec(
            pole_radius=0.9, far_radius=6.0, radial_levels=10, mc_samples=20_000,
            seed=17,
        )
        second = 0.75 * p.beta
        functions = corpus(cfg, p) + [
            OptimalityPhi(cfg=cfg, R=1.0, eps=eps, beta=second)
            for eps in (0.125, 0.1, 0.0625, 0.25, 0.2)
        ]
        assert [functionals._core(phi, spec.far_radius)
                for phi in functions[-5:]] == [("f", second)] * 3 + functions[-2:]
        truncate = case.startswith("truncated")
        allow = [truncate and isinstance(phi, OptimalityPhi) for phi in functions]
        betas = [p.beta, other]
        runs = [
            energy_reports(functions, cfg, w, p, spec, betas, allow_truncation=allow)
            for _ in range(repeats)
        ]
        reports = runs[-1]
        assert [[[integrals(r) for r in own] for own in run] for run in runs] == [
            [[integrals(r) for r in own] for own in reports]
        ] * repeats
        assert len(reports) == len(functions)
        for phi, flag, own in zip(functions, allow, reports):
            assert [integrals(r) for r in own] == [
                integrals(energy_report(
                    phi, cfg, w, p, spec, beta=b, allow_truncation=flag
                ))
                for b in betas
            ]
        # The second exponent's masses are integrable: none is truncated.
        assert [r[0].v_mass.truncated for r in reports] == [
            flag and phi.beta == p.beta for phi, flag in zip(functions, allow)
        ]

    def test_hardy_factor_once_per_slice_per_bundle(
        self, two_poles_n3, lean_spec, monkeypatch
    ):
        """A near-optimal family of one exponent evaluates the Hardy factor
        once per slice of nodes, whatever its size: once for all its members
        and all the integrands of the ledger together."""
        p = derive_params(two_poles_n3, 0.0)
        slices = []  # the distinct slice arrays handed to the integrands
        counts = {"calls": 0, "hardy": 0}
        inside = []
        original_hardy = functionals.hardy_factor
        original_many = functionals.integrate_many

        def counted_hardy(*args, **kwargs):
            counts["hardy"] += bool(inside)
            return original_hardy(*args, **kwargs)

        def counted_func(func):
            def wrapper(x):
                counts["calls"] += 1
                if not slices or slices[-1] is not x:
                    slices.append(x)
                inside.append(True)
                try:
                    return func(x)
                finally:
                    inside.pop()

            return wrapper

        def counted_many(fields, cfg, spec):
            fields = [dataclasses.replace(f, func=counted_func(f.func)) for f in fields]
            return original_many(fields, cfg, spec)

        monkeypatch.setattr(functionals, "hardy_factor", counted_hardy)
        monkeypatch.setattr(functionals, "integrate_many", counted_many)
        for eps_list in ([0.25], [0.25, 0.2, 0.125]):
            slices.clear()
            counts.update(calls=0, hardy=0)
            family = [
                OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=eps, beta=p.beta)
                for eps in eps_list
            ]
            energy_reports(
                family, two_poles_n3, WeightSpec.unit(), p, lean_spec, [p.beta],
                allow_truncation=True,
            )
            assert counts["hardy"] == len(slices) > 0
            assert counts["calls"] > len(slices)

    def test_w_once_per_slice_for_every_exponent(
        self, two_poles_n3, lean_spec, monkeypatch
    ):
        """A ledger at three exponents evaluates W once per slice of nodes,
        for all its exponents and integrands together."""
        w, p = WeightSpec.polyexp(gamma=0.5), derive_params(two_poles_n3, -0.6)
        slices = []  # the distinct slice arrays handed to the integrands
        calls = []  # the slice each potential_w call was made on
        original_w = functionals.potential_w
        original_many = functionals.integrate_many

        def counted_w(*args, **kwargs):
            calls.append(slices[-1])
            return original_w(*args, **kwargs)

        def counted_func(func):
            def wrapper(x):
                if not slices or slices[-1] is not x:
                    slices.append(x)
                return func(x)

            return wrapper

        def counted_many(integrands, cfg, spec):
            integrands = [
                dataclasses.replace(f, func=counted_func(f.func)) for f in integrands
            ]
            return original_many(integrands, cfg, spec)

        monkeypatch.setattr(functionals, "potential_w", counted_w)
        monkeypatch.setattr(functionals, "integrate_many", counted_many)
        functions = corpus(two_poles_n3, p)[:3]
        energy_reports(
            functions, two_poles_n3, w, p, lean_spec, [p.beta, 0.35, 0.1]
        )
        assert len(slices) > 0
        assert len(calls) == len(slices)
        assert all(a is b for a, b in zip(calls, slices))

    @pytest.mark.parametrize("weight", ["unit", "gamma"])
    def test_one_pole_frame_per_slice_per_kind_bundle(
        self, weight, two_poles_n3, monkeypatch
    ):
        """On each distinct slice array the whole ledger, all its integrands
        together, builds just one pole frame (in the first kind that needs
        one: the unit mu needs none); it also evaluates the Hardy factor
        once per exponent, and the value and gradient of each function
        whose integrands the slice serves once: every function on pole and
        mid slices, on a far-shell slice the functions of its support."""
        cfg = two_poles_n3
        if weight == "unit":
            w, p = WeightSpec.unit(), derive_params(cfg, 0.0)
            functions = corpus(cfg, p)[:3]
            framer = "v_mass"
        else:
            # With a near-optimal family of three members of one exponent.
            w, p = WeightSpec.polyexp(gamma=0.5), derive_params(cfg, -0.6)
            functions = corpus(cfg, p)
            framer = "dirichlet"
        betas = [p.beta, 0.35]
        spec = QuadratureSpec(
            pole_radius=0.9, far_radius=6.0, radial_levels=10, mc_samples=20_000,
            seed=17,
        )
        # (the slice's array, [(kind, event)] of its calls, the supports of
        # the integrands called on it)
        slices = []
        inside = []  # the kind of the integrand being evaluated
        original_many = functionals.integrate_many
        original_hardy = functionals.hardy_factor
        original_init = fields.PoleFrame.__init__

        def record(event):
            if inside:
                slices[-1][1].append((inside[-1], event))

        def counted_func(f):
            def wrapper(x):
                if not slices or slices[-1][0] is not x:
                    slices.append((x, [], set()))
                slices[-1][2].add(f.support_radius)
                inside.append(f.name)
                record("call")
                try:
                    return f.func(x)
                finally:
                    inside.pop()

            return wrapper

        def counted_many(integrands, cfg, spec):
            integrands = [
                dataclasses.replace(f, func=counted_func(f)) for f in integrands
            ]
            return original_many(integrands, cfg, spec)

        def counted_hardy(frame, cfg, beta):
            record(("hardy", beta))
            return original_hardy(frame, cfg, beta)

        def counted_init(self, *args, **kwargs):
            record("frame")
            original_init(self, *args, **kwargs)

        def counted_method(label, method):
            def wrapper(self, *args, **kwargs):
                record((label, id(self)))
                return method(self, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(functionals, "integrate_many", counted_many)
        monkeypatch.setattr(functionals, "hardy_factor", counted_hardy)
        monkeypatch.setattr(fields.PoleFrame, "__init__", counted_init)
        for cls, names in [
            (GaussianBump, ("value", "_gradient_at")),
            (CutoffTheta, ("value", "gradient")),
            (OptimalityPhi, ("_value_at", "_gradient_at")),
        ]:
            for name, label in zip(names, ("value", "gradient")):
                monkeypatch.setattr(cls, name, counted_method(label, getattr(cls, name)))
        energy_reports(functions, cfg, w, p, spec, betas)

        kinds = {"dirichlet", "l2_mass", "v_mass", "inv_sq_mass", "w_mass", "remainder"}
        assert len(slices) > 10
        assert len({id(x) for x, _, _ in slices}) == len(slices)
        for _, events, supports in slices:
            members = [phi for phi in functions if phi.support_radius in supports]
            once = Counter(
                [("hardy", b) for b in betas]
                + [(label, id(phi)) for phi in members
                   for label in ("value", "gradient")]
            )
            assert {kind for kind, e in events if e == "call"} == kinds
            assert [kind for kind, e in events if e == "frame"] == [framer]
            assert Counter(e for _, e in events if e not in ("call", "frame")) == once
        # Far-shell slices serve one support each.
        assert any(len(supports) == 1 for _, _, supports in slices)

    def test_family_core_once_per_slice(self, two_poles_n3, lean_spec, monkeypatch):
        """A family of four members whose plateaus clear far_radius runs each
        kind's integrand once per pole and mid slice, the first member's,
        and on the far shells every member's integrands of its support."""
        p = derive_params(two_poles_n3, 0.0)
        family = [
            OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=eps, beta=p.beta)
            for eps in (0.125, 0.1, 0.0625, 0.05)
        ]
        slices = []  # (in a far pass, Counter of (kind, support) of its calls)
        last, far_pass = [None], []
        original_far = quadrature._far_region
        original_many = functionals.integrate_many

        def in_far_pass(*args):
            far_pass.append(True)
            try:
                return original_far(*args)
            finally:
                far_pass.pop()

        def counted(f):
            def wrapper(x):
                if last[0] is not x:
                    last[0] = x
                    slices.append((bool(far_pass), Counter()))
                slices[-1][1][f.name, f.support_radius] += 1
                return f.func(x)

            return wrapper

        def counted_many(integrands, cfg, spec):
            return original_many(
                [dataclasses.replace(f, func=counted(f)) for f in integrands],
                cfg, spec,
            )

        monkeypatch.setattr(quadrature, "_far_region", in_far_pass)
        monkeypatch.setattr(functionals, "integrate_many", counted_many)
        energy_reports(
            family, two_poles_n3, WeightSpec.unit(), p, lean_spec, [p.beta],
            allow_truncation=True,
        )
        kinds = ("dirichlet", "v_mass", "l2_mass", "w_mass")
        supports = [phi.support_radius for phi in family]
        inner = [calls for far, calls in slices if not far]
        far = [calls for far, calls in slices if far]
        assert len(inner) >= 4 and len(far) >= 4
        assert all(
            calls == Counter({(kind, supports[0]): 1 for kind in kinds})
            for calls in inner
        )
        for calls in far:
            (support,) = {s for _, s in calls}
            assert calls == Counter({(kind, support): 1 for kind in kinds})
        assert set().union(*far) == {(k, s) for k in kinds for s in supports}

    def test_far_shells_evaluate_only_their_support(
        self, two_poles_n3, lean_spec, far_slices
    ):
        """A far-shell pass runs only the integrands of its own support, so
        each far slice evaluates the value and gradient of exactly the
        functions whose support that pass runs to."""
        p = derive_params(two_poles_n3, 0.0)
        functions = [GaussianBump(center=np.array([1.0, 0.3, 0.0]), width=0.8)] + [
            OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=eps, beta=p.beta)
            for eps in (0.25, 0.125)
        ]
        slices = far_slices(functionals)
        energy_reports(
            functions, two_poles_n3, WeightSpec.unit(), p, lean_spec, [p.beta],
            allow_truncation=True,
        )
        seen = set()
        for _, supports, evaluated in slices.values():
            (support,) = supports
            seen.add(support)
            assert evaluated == {
                phi for phi in functions if phi.support_radius == support
            }
        assert seen == {None, 8.0, 16.0}

    def test_empty_corpus_and_flag_count(self, two_poles_n3, lean_spec):
        p = derive_params(two_poles_n3, 0.0)
        args = (two_poles_n3, WeightSpec.unit(), p, lean_spec, [p.beta])
        assert energy_reports([], *args) == []
        with pytest.raises(ConfigError):
            energy_reports(
                [], *args[:3], dataclasses.replace(lean_spec, radial_levels=2),
                [p.beta],
            )
        phi = GaussianBump(center=np.array([1.0, 0.0, 0.0]), width=0.8)
        with pytest.raises(ValueError, match="flags"):
            energy_reports([phi], *args, allow_truncation=[False, True])
