"""Quadrature engine against closed forms and a scipy.integrate oracle.

Closed-form targets (Gaussian moments, power-law ball integrals, surface
measures) never go through the package's own pipeline, so agreement is
meaningful.  Determinism contracts are checked bitwise: the engine promises
identical output for identical (spec, integrand) regardless of batch
composition.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy.special import roots_jacobi

from multipolar_hardy import quadrature
from multipolar_hardy import (
    BudgetExceeded,
    ConfigError,
    Integrand,
    NonIntegrableSingularity,
    OptimalityPhi,
    PoleConfig,
    QuadratureSpec,
    integrate,
    integrate_many,
    integrate_pole_ball,
    integrate_radial_annulus,
    sphere_flux,
    sphere_surface_measure,
    GaussianBump,
    derive_params,
    enclosing_radius,
    min_pole_gap,
    potential_v,
    unit_sphere_rule,
    weight_value,
    WeightSpec,
)


def gaussian(pts: np.ndarray) -> np.ndarray:
    return np.exp(-np.sum(pts * pts, axis=1))


# --------------------------------------------------------------------------
# angular building blocks
# --------------------------------------------------------------------------


class TestSphereRule:
    @pytest.mark.parametrize(
        "dim,expected",
        [
            (2, 2 * math.pi),
            (3, 4 * math.pi),
            (4, 2 * math.pi**2),
            (5, 8 * math.pi**2 / 3),
            (6, math.pi**3),
        ],
    )
    def test_surface_measure_closed_forms(self, dim, expected):
        assert sphere_surface_measure(dim) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_weights_sum_to_surface_measure(self, dim):
        dirs, wts = unit_sphere_rule(dim)
        assert dirs.shape[1] == dim
        assert np.linalg.norm(dirs, axis=1) == pytest.approx(1.0, abs=1e-13)
        assert math.fsum(wts) == pytest.approx(sphere_surface_measure(dim), rel=1e-13)

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_low_degree_moments(self, dim):
        """The product rule must integrate quartics exactly: the moment
        formulas int x_i^2 = omega/N, int x_i^4 = 3 omega/(N(N+2)),
        int x_i^2 x_j^2 = omega/(N(N+2)), odd moments = 0."""
        dirs, wts = unit_sphere_rule(dim)
        omega = sphere_surface_measure(dim)
        for i in range(dim):
            assert np.dot(wts, dirs[:, i]) == pytest.approx(0.0, abs=1e-13)
            assert np.dot(wts, dirs[:, i] ** 2) == pytest.approx(
                omega / dim, rel=1e-12
            )
            assert np.dot(wts, dirs[:, i] ** 4) == pytest.approx(
                3 * omega / (dim * (dim + 2)), rel=1e-12
            )
        assert np.dot(wts, dirs[:, 0] ** 2 * dirs[:, 1] ** 2) == pytest.approx(
            omega / (dim * (dim + 2)), rel=1e-12
        )
        assert np.dot(wts, dirs[:, 0] * dirs[:, 1] ** 2) == pytest.approx(
            0.0, abs=1e-13
        )

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    def test_gauss_gegenbauer_against_scipy_and_beta_moments(self, alpha):
        """The polar-angle factor, a Gauss rule for (1 - t^2)^alpha, agrees
        with scipy's roots_jacobi to 1e-12, is exactly symmetric about 0,
        and integrates t^(2k) to B(k + 1/2, alpha + 1) for every 2k <= 2n - 2."""
        for order in range(1, 25):
            t, w = quadrature._gauss_gegenbauer(order, alpha)
            t_ref, w_ref = roots_jacobi(order, alpha, alpha)
            assert np.max(np.abs(t - t_ref)) <= 1e-12
            assert np.max(np.abs(w - w_ref)) <= 1e-12
            assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
            for k in range(order):
                exact = math.exp(
                    math.lgamma(k + 0.5) + math.lgamma(alpha + 1.0)
                    - math.lgamma(k + alpha + 1.5)
                )
                assert abs(np.dot(w, t ** (2 * k)) - exact) <= 5e-13 * exact


class TestSphereFlux:
    def test_linear_field_divergence_theorem(self):
        """F(x) = x has div F = N, so the flux equals omega_N R^N."""
        for dim, radius in [(3, 1.7), (4, 0.6)]:
            center = np.full(dim, 0.3)
            flux = sphere_flux(lambda p: p - center, center, radius, dim)
            assert flux == pytest.approx(
                sphere_surface_measure(dim) * radius**dim, rel=1e-12
            )

    def test_constant_field_has_zero_flux(self):
        flux = sphere_flux(
            lambda p: np.tile([1.0, -2.0, 0.5], (len(p), 1)),
            np.zeros(3),
            2.0,
            3,
        )
        assert flux == pytest.approx(0.0, abs=1e-12)

    def test_inverse_power_field_flux_is_radius_free(self):
        """x / |x|^N is divergence-free away from 0; flux = omega_N always."""
        def field(p):
            r = np.linalg.norm(p, axis=1, keepdims=True)
            return p / r**4
        for radius in (0.01, 1.0, 25.0):
            assert sphere_flux(field, np.zeros(4), radius, 4) == pytest.approx(
                sphere_surface_measure(4), rel=1e-12
            )


# --------------------------------------------------------------------------
# deterministic sub-rules
# --------------------------------------------------------------------------


class TestPoleBall:
    @pytest.mark.parametrize(
        "dim,p,radius",
        [(3, 2.0, 1.0), (3, 2.5, 0.7), (4, 3.0, 1.3), (5, 2.0, 1.0)],
    )
    def test_pure_power_closed_form(self, dim, p, radius):
        """int_{B(a,R)} |x-a|^-p dx = omega_N R^(N-p) / (N-p)."""
        pole = np.full(dim, 0.25)
        cfg = PoleConfig(dim=dim, poles=pole[None, :])

        def func(pts):
            return np.linalg.norm(pts - pole, axis=1) ** -p

        res = integrate_pole_ball(func, cfg, 0, radius, levels=16, exponent=p)
        exact = sphere_surface_measure(dim) * radius ** (dim - p) / (dim - p)
        assert res.value == pytest.approx(exact, rel=1e-12)
        assert res.stderr == 0.0
        assert res.trunc_bound < 1e-10 * exact

    def test_smooth_times_power(self):
        """int_{B(0,1)} e^(-r^2) r^-2 dx in N=3 equals
        4 pi int_0^1 e^(-r^2) dr = 2 pi^1.5 erf(1)."""
        cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))

        def func(pts):
            r2 = np.sum(pts * pts, axis=1)
            return np.exp(-r2) / r2

        res = integrate_pole_ball(func, cfg, 0, 1.0, levels=16, exponent=2.0)
        exact = 2.0 * math.pi**1.5 * math.erf(1.0)
        assert res.value == pytest.approx(exact, rel=1e-10)

    @staticmethod
    def reference_pole_ball(func, cfg, radius, levels, exponent, radial_order, order):
        """One graded-ball pass closed by the inner tail: the single-pass
        rule `integrate_pole_ball` used before it had a two-level error."""
        f = Integrand(func=func, pole_exponents=[exponent] * cfg.n_poles)
        n, rule = quadrature._pole_ball_pass(
            cfg.poles[0], radius, levels, radial_order, order, fade=False
        )
        value, err = quadrature._closed_sum(rule([f])[0], 2.0 ** -(cfg.dim - exponent))
        return value, err, n

    @pytest.mark.parametrize("dim, order", [(3, 10), (4, 8)])
    def test_error_is_a_two_level_difference(self, dim, order):
        """The value is still the single pass at radial order 8 and the
        default angular order, bit for bit; its error is the difference to
        the pass refined by the two-level step (3 radial points, half again
        the angular order) plus the inner-closure term."""
        cfg = PoleConfig(dim=dim, poles=[[0.0] * dim, [2.0] + [0.0] * (dim - 1)])

        def func(pts):
            r2 = np.sum(pts * pts, axis=1)
            return np.exp(-r2 - pts[:, 0]) * r2**-0.75

        res = integrate_pole_ball(func, cfg, 0, 0.8, levels=12, exponent=1.5)
        value, err, n = self.reference_pole_ball(func, cfg, 0.8, 12, 1.5, 8, order)
        fine, _, n_fine = self.reference_pole_ball(
            func, cfg, 0.8, 12, 1.5, 11, (3 * order + 1) // 2
        )
        assert res.value == value
        assert res.trunc_bound == abs(fine - value) + err
        assert res.trunc_bound > err
        assert res.cells == n + n_fine

    def test_rejects_non_integrable_exponent(self):
        cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))
        with pytest.raises(NonIntegrableSingularity):
            integrate_pole_ball(
                lambda p: np.ones(len(p)), cfg, 0, 1.0, levels=8, exponent=3.0
            )

    @pytest.mark.parametrize("p", [2.93, 2.99])
    def test_closes_near_borderline_power(self, p):
        """int_{B(0,1)} |x|^-p dx = 4 pi / (3 - p) in N = 3 for p within
        0.074 of N, where the octave ratio 2^-(3-p) exceeds 0.95: the
        geometric closure restores the inner ball, most of the integral at
        p = 2.99, within its bar, and the bar stays at rounding scale."""
        cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))
        res = integrate_pole_ball(
            lambda x: np.sum(x * x, axis=1) ** (-0.5 * p), cfg, 0, 1.0,
            levels=20, exponent=p,
        )
        exact = 4.0 * math.pi / (3.0 - p)
        assert abs(res.value - exact) <= 3 * res.error
        assert res.error < 1e-10 * exact

    def test_rejects_near_borderline_exponent(self):
        """N - 1e-10 is the borderline, which a whole ball cannot close."""
        cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))
        with pytest.raises(NonIntegrableSingularity):
            integrate_pole_ball(
                lambda p: np.ones(len(p)), cfg, 0, 0.9, levels=20,
                exponent=3.0 - 1e-10,
            )

    @staticmethod
    def ball(**kwargs):
        """integrate_pole_ball of 1 on a two-pole N = 3 config."""
        args = dict(pole_index=0, radius=0.5, levels=8, exponent=0.0)
        args.update(kwargs)
        return integrate_pole_ball(lambda p: np.ones(len(p)), two_poles(3), **args)

    @pytest.mark.parametrize("levels", [0, -1])
    def test_rejects_levels_below_one(self, levels):
        with pytest.raises(ValueError, match="levels must be >= 1"):
            self.ball(levels=levels)

    def test_rejects_negative_pole_index(self):
        """-1 would otherwise pick the last pole."""
        with pytest.raises(ValueError, match="pole_index"):
            self.ball(pole_index=-1)

    @pytest.mark.parametrize("pole_index", [2, 5])
    def test_rejects_pole_index_past_the_poles(self, pole_index):
        with pytest.raises(ValueError, match="pole_index"):
            self.ball(pole_index=pole_index)

    LADDER_WEIGHTS = {
        "unit": WeightSpec.unit(),
        "power": WeightSpec.polyexp(gamma=0.5),
        "power-exp": WeightSpec.polyexp(gamma=0.5, delta=0.3),
    }

    @pytest.mark.parametrize("weight", sorted(LADDER_WEIGHTS))
    @pytest.mark.parametrize("dim", [3, 4])
    def test_ladder_equals_its_rungs(self, dim, weight):
        """One ladder call gives, bit for bit, each ball's value and bound
        from a call on that ball alone."""
        w = self.LADDER_WEIGHTS[weight]
        cfg = two_poles(dim)
        exponent = 0.0 if w.is_unit else w.gamma
        radii = 0.9 * 2.0 ** -np.arange(5.0)

        def mu(x):
            return weight_value(x, cfg, w)

        ladder = integrate_pole_ball(mu, cfg, 1, radii, levels=12, exponent=exponent)
        assert len(ladder) == len(radii)
        for radius, res in zip(radii, ladder):
            alone = integrate_pole_ball(
                mu, cfg, 1, float(radius), levels=12, exponent=exponent
            )
            assert res.value == alone.value
            assert res.trunc_bound == alone.trunc_bound

    @pytest.mark.parametrize(
        "radius",
        [[1.0, 0.5, 0.26], [1.0, 0.6], [0.5, 1.0], [], [[1.0, 0.5]], 0.0, [-1.0, -0.5]],
    )
    def test_rejects_a_ladder_that_is_not_dyadic(self, radius):
        cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))
        with pytest.raises(ValueError):
            integrate_pole_ball(
                lambda p: np.ones(len(p)), cfg, 0, radius, levels=8, exponent=0.0
            )


def uniform_pole_region(integrands, cfg, spec, order):
    """Region (a) with every shell of every pole ball at one angular order:
    the high level of the rule before the angular schedule, at `order`."""
    values = np.zeros(len(integrands))
    for i, center in enumerate(cfg.poles):
        _, rule = quadrature._pole_ball_pass(
            center, spec.pole_radius, spec.radial_levels, quadrature._RADIAL_ORDER,
            order,
        )
        sums = rule(integrands)
        for k, f in enumerate(integrands):
            p = float(f.pole_exponents[i])
            values[k] += quadrature._closed_sum(
                sums[k], 2.0 ** -(cfg.dim - p), p < cfg.dim - 1e-9
            )[0]
    return values


def two_poles(dim):
    return PoleConfig(dim=dim, poles=np.array([[0.0] * dim, [2.0] + [0.0] * (dim - 1)]))


class TestGradedPoleBalls:
    """The faded pole balls keep the full angular order on their outer four
    shells and use order 3 below; against the same balls at a high uniform
    order the values stay within 1e-7 relative and within their bounds."""

    @staticmethod
    def integrands(dim, power_weight):
        cfg = two_poles(dim)
        out = []
        if dim == 3:
            bump = GaussianBump(center=[0.3, 0.0, 0.0], width=0.45)
            out += [
                Integrand(
                    func=lambda x: potential_v(x, cfg) * bump.value(x) ** 2,
                    pole_exponents=[2.0, 2.0], name="bump v_mass",
                ),
                Integrand(
                    func=lambda x: np.sum(bump.gradient(x) ** 2, axis=1),
                    pole_exponents=[0.0, 0.0], name="bump dirichlet",
                ),
                Integrand(
                    func=lambda x: weight_value(x, cfg, power_weight)
                    * bump.value(x) ** 2,
                    pole_exponents=[0.5, 0.5], name="gamma 1/2 l2_mass",
                ),
            ]
        p = derive_params(cfg, 0.0)
        phi = OptimalityPhi(cfg=cfg, R=1.0, eps=0.2, beta=p.beta)
        out.append(Integrand(
            func=lambda x: np.sum(phi.gradient(x) ** 2, axis=1),
            pole_exponents=[float(dim)] * 2, support_radius=phi.support_radius,
            allow_truncation=True, name="phi_eps dirichlet",
        ))
        return cfg, out

    @pytest.mark.parametrize("dim, order", [(3, 24), (4, 16)])
    def test_matches_high_order_balls(self, dim, order, power_weight, borderline_spec):
        cfg, integrands = self.integrands(dim, power_weight)
        values, truncs = quadrature._pole_region(
            integrands, cfg, quadrature._pole_plan(cfg, borderline_spec)
        )
        reference = uniform_pole_region(integrands, cfg, borderline_spec, order)
        assert quadrature._borderline(integrands[-1].pole_exponents[-1], dim)
        for f, value, trunc, ref in zip(integrands, values, truncs, reference):
            assert abs(value - ref) <= 1e-7 * abs(ref), f.name
            assert abs(value - ref) <= trunc, f.name

    def test_tiers_are_shells_of_one_faded_pass(self, power_weight, borderline_spec):
        """Each tier's sums are, bit for bit, those of its shells in one
        faded pass at the tier's order: the deep shells lie inside the fade
        onset, where the pole weight is exactly 1."""
        cfg, integrands = self.integrands(3, power_weight)
        full, deep = quadrature._ANGULAR_ORDER[3], quadrature._POLE_DEEP_ORDER
        outer = quadrature._POLE_FULL_SHELLS
        for center in cfg.poles:
            _, graded = quadrature._graded_pole_ball(center, borderline_spec, 8, full)
            graded = graded(integrands)
            tiers = ((full, slice(None, outer)), (deep, slice(outer, None)))
            for order, shells in tiers:
                _, one_pass = quadrature._pole_ball_pass(
                    center, borderline_spec.pole_radius,
                    borderline_spec.radial_levels, 8, order,
                )
                one_pass = one_pass(integrands)
                assert np.array_equal(graded[:, shells], one_pass[:, shells])

    @pytest.mark.parametrize("dim", [3, 4])
    def test_node_count_is_that_of_the_pass(self, dim, borderline_spec):
        """The count the evaluation cap uses, the pole plan's nodes, is the
        number of points the pole region evaluates."""
        cfg = two_poles(dim)
        points = []

        def ones(x):
            points.append(x.shape[0])
            return np.ones(x.shape[0])

        plan = quadrature._pole_plan(cfg, borderline_spec)
        integrand = Integrand(func=ones, pole_exponents=[0.0, 0.0])
        quadrature._pole_region([integrand], cfg, plan)
        assert sum(quadrature._plan_nodes(ball) for ball in plan) == sum(points)

    def test_evaluates_fewer_nodes(self, borderline_spec):
        """At 36 levels in N = 4 the pole region evaluates a fifth of the
        698,708 nodes of the uniform rule."""
        plan = quadrature._pole_plan(two_poles(4), borderline_spec)
        assert sum(quadrature._plan_nodes(ball) for ball in plan) == 139_348


class TestRadialAnnulus:
    def test_matches_scipy_quad(self):
        """Radial integrand in N=3: value = omega_3 int r^2 g(r) dr with the
        reference computed by scipy.integrate.quad."""
        def g(r):
            return np.sin(r) * np.exp(-r / 2.0)

        def func(pts):
            return g(np.linalg.norm(pts, axis=1))

        res = integrate_radial_annulus(func, dim=3, r_in=1.0, r_out=4.0)
        ref, ref_err = sp_integrate.quad(lambda r: g(r) * r * r, 1.0, 4.0)
        exact = sphere_surface_measure(3) * ref
        assert ref_err < 1e-10
        assert res.value == pytest.approx(exact, rel=1e-9)
        assert abs(res.value - exact) <= max(10 * res.trunc_bound, 1e-9 * abs(exact))

    def test_angular_dependence(self):
        """x_1^2 over the annulus: omega_N/N times the radial moment."""
        def func(pts):
            return pts[:, 0] ** 2

        res = integrate_radial_annulus(func, dim=4, r_in=0.5, r_out=2.0)
        exact = sphere_surface_measure(4) / 4.0 * (2.0**6 - 0.5**6) / 6.0
        assert res.value == pytest.approx(exact, rel=1e-12)

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            integrate_radial_annulus(lambda p: np.ones(len(p)), 3, 2.0, 1.0)

    def test_error_is_a_two_level_difference(self):
        """The value is the pass at radial order 8 and angular order 10
        (N = 3), bit for bit; its bound is the distance to the low level
        of `_level_orders` (5 radial points, angular order 6), with no
        closure error, recomputed from the rule's own passes."""
        def func(pts):
            r = np.linalg.norm(pts, axis=1)
            return np.sin(r) * pts[:, 0] ** 2 + np.exp(-r) * pts[:, 1] ** 4

        res = integrate_radial_annulus(func, dim=3, r_in=0.7, r_out=5.3)
        f = Integrand(func=func, pole_exponents=[])
        edges = quadrature._log_edges(0.7, 5.3)
        fine, coarse = (
            math.fsum(quadrature._shell_rule(np.zeros(3), edges, q, order)[1]([f])[0])
            for q, order in ((8, 10), (5, 6))
        )
        assert res.value == fine
        assert res.trunc_bound == abs(fine - coarse) + 0.0
        assert res.trunc_bound > 0.0


# --------------------------------------------------------------------------
# full-space engine
# --------------------------------------------------------------------------


class TestIntegrateMany:
    def test_gaussian_total_mass(self, two_poles_n3, lean_spec):
        res = integrate(gaussian, two_poles_n3, lean_spec)
        exact = math.pi**1.5
        budget = 6 * (res.stderr + res.trunc_bound)
        assert abs(res.value - exact) <= budget
        assert abs(res.value - exact) / exact < 2e-2

    def test_inverse_square_gaussian(self):
        """int e^(-|x|^2) / |x|^2 dx = 2 pi^1.5 in N=3."""
        cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))
        spec = QuadratureSpec(
            pole_radius=1.5,
            far_radius=7.0,
            radial_levels=24,
            mc_samples=60_000,
            seed=1234,
        )

        def func(pts):
            r2 = np.sum(pts * pts, axis=1)
            return np.exp(-r2) / r2

        res = integrate(Integrand(func=func, pole_exponents=[2.0]), cfg, spec)
        exact = 2.0 * math.pi**1.5
        assert abs(res.value - exact) <= 6 * (res.stderr + res.trunc_bound)
        assert abs(res.value - exact) / exact < 2e-3

    def test_bounded_support_is_respected(self, two_poles_n3, lean_spec):
        """A ball indicator integrates to the ball volume and the far shells
        stop at the declared support_radius."""
        radius = 4.0

        def func(pts):
            return (np.linalg.norm(pts, axis=1) <= radius).astype(float)

        res = integrate(
            Integrand(func=func, pole_exponents=[0.0, 0.0], support_radius=radius),
            two_poles_n3,
            lean_spec,
        )
        exact = sphere_surface_measure(3) * radius**3 / 3.0
        assert abs(res.value - exact) / exact < 5e-2  # indicator: MC-hard edge

    def test_bitwise_determinism(self, two_poles_n3, lean_spec):
        a = integrate(gaussian, two_poles_n3, lean_spec)
        b = integrate(gaussian, two_poles_n3, lean_spec)
        assert a.value == b.value
        assert a.stderr == b.stderr
        assert a.trunc_bound == b.trunc_bound
        assert a.cells == b.cells

    def test_batch_composition_does_not_change_values(self, two_poles_n3, lean_spec):
        """Solo evaluation and evaluation inside a batch agree bitwise."""
        def other(pts):
            return np.exp(-0.5 * np.sum(pts * pts, axis=1)) * (1 + pts[:, 0] ** 2)

        solo = integrate(gaussian, two_poles_n3, lean_spec)
        batch = integrate_many([gaussian, other], two_poles_n3, lean_spec)
        assert batch[0].value == solo.value
        assert batch[0].stderr == solo.stderr

    def test_linearity_within_rounding(self, two_poles_n3, lean_spec):
        def f(pts):
            return np.exp(-np.sum(pts * pts, axis=1))

        def g(pts):
            return np.exp(-2.0 * np.sum((pts - 1.0) ** 2, axis=1))

        def h(pts):
            return f(pts) + g(pts)

        rf, rg, rh = integrate_many([f, g, h], two_poles_n3, lean_spec)
        assert rh.value == pytest.approx(rf.value + rg.value, rel=1e-12)

    def test_seed_changes_value_within_error(self, two_poles_n3, lean_spec):
        import dataclasses

        other_spec = dataclasses.replace(lean_spec, seed=lean_spec.seed + 1)
        a = integrate(gaussian, two_poles_n3, lean_spec)
        b = integrate(gaussian, two_poles_n3, other_spec)
        assert a.value != b.value
        assert abs(a.value - b.value) <= 6 * (a.stderr + b.stderr)

    def test_truncated_borderline_exponent(self):
        """p == N with allow_truncation: flagged, eta equals the innermost
        shell radius, and raising radial_levels adds the annulus mass
        g(a) omega_N ln(eta_lo/eta_hi) for f = g |x-a|^-N with g smooth."""
        cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))

        def func(pts):
            r2 = np.sum(pts * pts, axis=1)
            return np.exp(-r2) * r2**-1.5

        def run(levels):
            spec = QuadratureSpec(
                pole_radius=1.0,
                far_radius=6.0,
                radial_levels=levels,
                mc_samples=20_000,
                seed=7,
            )
            return integrate(
                Integrand(func=func, pole_exponents=[3.0], allow_truncation=True),
                cfg,
                spec,
            )

        lo, hi = run(12), run(20)
        assert lo.truncated and hi.truncated
        assert lo.eta == pytest.approx(2.0**-12, rel=1e-12)
        assert hi.eta == pytest.approx(2.0**-20, rel=1e-12)
        gained = 4 * math.pi * math.log(lo.eta / hi.eta)
        assert hi.value - lo.value == pytest.approx(gained, rel=1e-3)

    def test_rejects_non_integrable_without_opt_in(self, two_poles_n3, lean_spec):
        bad = Integrand(func=gaussian, pole_exponents=[3.0, 0.0])
        with pytest.raises(NonIntegrableSingularity):
            integrate(bad, two_poles_n3, lean_spec)

    def test_near_borderline_is_the_borderline(self, two_poles_n3):
        """An exponent of N - 1e-10 is the borderline: without the opt-in it
        is rejected, not truncated with a wrong value, and with it the pole
        ball is truncated and flagged like p == N."""
        spec = QuadratureSpec(
            pole_radius=0.9, far_radius=6.0, radial_levels=20,
            mc_samples=20_000, seed=3,
        )
        p = 3.0 - 1e-10
        bad = Integrand(func=gaussian, pole_exponents=[p, 0.0])
        with pytest.raises(NonIntegrableSingularity):
            integrate_many([bad], two_poles_n3, spec)
        res = integrate_many(
            [dataclasses.replace(bad, allow_truncation=True)], two_poles_n3, spec
        )[0]
        assert res.truncated
        assert res.eta == 0.9 * 2.0**-20

    @pytest.mark.parametrize("p", [2.93, 2.99])
    def test_near_borderline_power_gaussian(self, two_poles_n3, lean_spec, p):
        """int |x|^-p e^(-|x|^2) dx = 2 pi Gamma((3 - p)/2) in N = 3: the
        pole ball's geometric closure carries most of it near p = N."""
        f = Integrand(
            func=lambda x: np.sum(x * x, axis=1) ** (-0.5 * p)
            * np.exp(-np.sum(x * x, axis=1)),
            pole_exponents=[p, 0.0],
        )
        res = integrate(f, two_poles_n3, lean_spec)
        exact = 2.0 * math.pi * math.gamma(0.5 * (3.0 - p))
        assert abs(res.value - exact) <= 3 * res.error

    def test_rejects_super_borderline_even_truncated(self, two_poles_n3, lean_spec):
        bad = Integrand(
            func=gaussian, pole_exponents=[3.5, 0.0], allow_truncation=True
        )
        with pytest.raises(NonIntegrableSingularity):
            integrate(bad, two_poles_n3, lean_spec)

    def test_mixed_support_batch_matches_solo_runs(self, two_poles_n3, lean_spec):
        """Each support radius gets its own far shells, so an integrand in a
        mixed-support batch gives its solo run's result bitwise."""
        def compact(radius):
            def func(pts):
                t = np.sum(pts * pts, axis=1) / radius**2
                return np.maximum(1.0 - t, 0.0) ** 3 * (1.0 + pts[:, 0])
            return Integrand(func=func, pole_exponents=[0.0, 0.0],
                             support_radius=radius)

        batch = [compact(3.0), Integrand(func=gaussian, pole_exponents=[0.0, 0.0]),
                 compact(9.0), compact(3.0)]
        for f, res in zip(batch, integrate_many(batch, two_poles_n3, lean_spec)):
            solo = integrate(f, two_poles_n3, lean_spec)
            assert (res.value, res.stderr, res.trunc_bound) == (
                solo.value, solo.stderr, solo.trunc_bound
            )

    def test_rejects_wrong_exponent_count(self, two_poles_n3, lean_spec):
        bad = Integrand(func=gaussian, pole_exponents=[0.0])
        with pytest.raises(ValueError):
            integrate(bad, two_poles_n3, lean_spec)

    def test_budget_cap(self, two_poles_n3):
        huge = QuadratureSpec(
            pole_radius=0.9,
            far_radius=6.0,
            radial_levels=8,
            mc_samples=1 << 30,
            seed=0,
        )
        with pytest.raises(BudgetExceeded):
            integrate(gaussian, two_poles_n3, huge)


class TestSpecValidation:
    def test_overlapping_pole_balls(self, two_poles_n3):
        spec = QuadratureSpec(
            pole_radius=1.5, far_radius=6.0, radial_levels=8,
            mc_samples=2000, seed=0,
        )
        with pytest.raises(ConfigError, match="min_pole_gap"):
            integrate(gaussian, two_poles_n3, spec)

    def test_far_radius_must_enclose(self, two_poles_n3):
        spec = QuadratureSpec(
            pole_radius=0.9, far_radius=1.0, radial_levels=8,
            mc_samples=2000, seed=0,
        )
        with pytest.raises(ConfigError, match="enclose"):
            integrate(gaussian, two_poles_n3, spec)

    @pytest.mark.parametrize(
        "field,value",
        [("radial_levels", 3), ("mc_samples", 10)],
    )
    def test_minimum_resolution_floors(self, two_poles_n3, field, value):
        base = dict(
            pole_radius=0.9, far_radius=6.0, radial_levels=8,
            mc_samples=2000, seed=0,
        )
        base[field] = value
        with pytest.raises(ConfigError):
            integrate(gaussian, two_poles_n3, QuadratureSpec(**base))

    def test_mesh_below_resolution_guard(self, two_poles_n3):
        spec = QuadratureSpec(
            pole_radius=0.9, far_radius=6.0, radial_levels=60,
            mc_samples=2000, seed=0,
        )
        with pytest.raises(ConfigError, match="guard"):
            integrate(gaussian, two_poles_n3, spec)


# --------------------------------------------------------------------------
# far region: deterministic shells and the geometric closure
# --------------------------------------------------------------------------


def _outer_tail(g):
    """4 pi int_6^inf g(r) r^2 dr by scipy quad, for far_radius = 6."""
    value, _ = sp_integrate.quad(lambda r: g(r) * r * r, 6.0, np.inf,
                                 epsabs=0.0, epsrel=1e-13, limit=200)
    return 4.0 * math.pi * value


FAR_PROFILES = {
    "r^-5": (lambda r: r**-5.0, math.pi / 18.0),
    "(1+r^2)^-3": (lambda r: (1.0 + r * r) ** -3.0,
                   _outer_tail(lambda r: (1.0 + r * r) ** -3.0)),
    "exp(-r/3)/r^2": (lambda r: np.exp(-r / 3.0) / r**2,
                      12.0 * math.pi * math.exp(-2.0)),
}


class TestFarRule:
    @pytest.mark.parametrize("name", list(FAR_PROFILES))
    def test_exact_beyond_far_radius(self, two_poles_n3, lean_spec, name):
        """An unbounded radial integrand that vanishes inside far_radius
        sees only the far shells and their closure beyond the cut: no
        Monte Carlo noise and a value exact to 1e-9."""
        g, exact = FAR_PROFILES[name]

        def func(pts):
            r = np.linalg.norm(pts, axis=1)
            return np.where(r > lean_spec.far_radius,
                            g(np.maximum(r, lean_spec.far_radius)), 0.0)

        res = integrate(func, two_poles_n3, lean_spec)
        assert res.stderr == 0.0
        assert abs(res.value - exact) <= 1e-9 * exact

    @pytest.mark.parametrize("support", [None, 20.0])
    def test_error_is_a_two_level_difference(self, two_poles_n3, lean_spec, support):
        """The far shells report the high level of `_level_orders`.  Their
        bound is the collar's and the plateau's distances to the low level,
        plus the high level's closure error for unbounded support,
        recomputed from the rule's own passes.  The integrand vanishes on
        the pole balls, so the bound is the far region's alone."""
        onset = 0.8 * lean_spec.far_radius

        def func(pts):
            r = np.linalg.norm(pts, axis=1)
            shape = 1.0 + 0.5 * pts[:, 0] * pts[:, 1] / r**2 + (pts[:, 2] / r) ** 4
            return np.where(r > onset, np.exp(-r / 3.0) * shape / r**2, 0.0)

        f = Integrand(func=func, pole_exponents=[0.0, 0.0], support_radius=support)
        res = integrate_many([f], two_poles_n3, lean_spec)[0]
        levels, rho_decl = quadrature._far_plan(3, lean_spec, support)
        (hi,), (lo,) = (sums([f]) for _, sums in levels)
        rest_hi = rest_lo = err = 0.0
        if support is None:
            # Plateau shells from the inside out; the collar is the last.
            rest_hi, err = quadrature._geometric_closure(hi[-2::-1], rho_decl)
            rest_lo, _ = quadrature._geometric_closure(lo[-2::-1], rho_decl)
            assert err > 0.0
        collar = abs(hi[-1] - lo[-1])
        plateau = abs(math.fsum(hi[:-1]) + rest_hi - (math.fsum(lo[:-1]) + rest_lo))
        assert collar > 0.0 and plateau > 0.0
        assert res.trunc_bound == collar + plateau + err


# --------------------------------------------------------------------------
# mid region: one node set per integrate_many call
# --------------------------------------------------------------------------


def reference_live(cfg, spec, grid, h):
    """The live strata by the box test on every stratum's coordinates: a box
    is dead if its nearest point to the origin lies beyond the far radius,
    or its farthest corner from a pole inside that pole's core, each by a
    margin of 1e-9 far radii."""
    R = spec.far_radius
    slack = 1e-9 * R
    lo = -R + grid * h
    hi = lo + h
    dead = np.linalg.norm(np.maximum(np.maximum(lo, -hi), 0.0), axis=1) >= R + slack
    core = quadrature._POLE_FADE_START * spec.pole_radius
    for pole in cfg.poles:
        far = np.maximum(np.abs(lo - pole), np.abs(hi - pole))
        dead |= np.linalg.norm(far, axis=1) <= core - slack
    return np.flatnonzero(~dead)


def reference_pairs(cfg, spec, grid, h):
    """Live strata and their pair counts, from the allocation rule: the
    live share B = round(mc_samples * S / (2 C)) of the pairs, n_s =
    max(2, floor(c * w_s)) with w_s = (1 + d_s / pole_radius)^-2, d_s the
    distance from a stratum's box to the nearest pole, and c water-filled
    so that sum max(2, c * w_s) = B.  The water level is found by sorting:
    with the m heaviest strata above the floor, c = (B - 2 (S - m)) / (the
    fsum of their weights), and m is the count that c keeps above it."""
    R = spec.far_radius
    live = reference_live(cfg, spec, grid, h)
    lo = -R + grid[live] * h
    nearest = np.clip(cfg.poles[None, :, :], lo[:, None, :], lo[:, None, :] + h)
    d = np.linalg.norm(nearest - cfg.poles[None, :, :], axis=2).min(axis=1)
    w = (1.0 + d / spec.pole_radius) ** -2.0
    S = live.size
    budget = round(spec.mc_samples * S / (2 * grid.shape[0]))
    heavy = np.sort(w)[::-1]
    level = (budget - 2 * (S - np.arange(1, S + 1))) / np.cumsum(heavy)
    m = 1 + int(np.flatnonzero(level * heavy > 2.0)[-1])
    c = (budget - 2 * (S - m)) / math.fsum(heavy[:m].tolist())
    n = np.maximum(2, np.floor(c * w).astype(int))
    return live, n, d, budget


def strata_grid(cfg, spec):
    """Every stratum's integer coordinates, in C order, and the box side."""
    s = quadrature._strata_grid(cfg.dim, spec.mc_samples)
    grid = np.stack(
        np.meshgrid(*([np.arange(s)] * cfg.dim), indexing="ij"), axis=-1
    ).reshape(-1, cfg.dim)
    return grid, 2.0 * spec.far_radius / s


def reference_mid_region(integrands, cfg, spec):
    """Region (b) with the node geometry rebuilt for every integrand and
    antithetic half: the per-integrand loop the shared node set replaced,
    on the pole-weighted pairs of the live strata, with one draw of all
    the uniforms, and each stratum's moments summed per block of
    _STRATA_BLOCK strata before math.fsum sums the blocks."""
    dim = cfg.dim
    R = spec.far_radius
    K = len(integrands)
    grid, h = strata_grid(cfg, spec)
    live, n, _, _ = reference_pairs(cfg, spec, grid, h)
    cell_vol = h**dim
    rng = np.random.Generator(
        np.random.Philox(key=spec.seed ^ quadrature._REGION_MID)
    )
    core = quadrature._POLE_FADE_START * spec.pole_radius

    def region_values(f, pts):
        r0 = np.linalg.norm(pts, axis=1)
        weight = 1.0 - quadrature._tail_partition_weight(r0, R)
        dist = np.linalg.norm(pts[:, None, :] - cfg.poles[None, :, :], axis=2)
        weight = weight - quadrature._pole_partition_weight(
            dist, spec.pole_radius
        ).sum(axis=1)
        mask = (np.min(dist, axis=1) > core) & (weight != 0.0)
        out = np.zeros(pts.shape[0])
        if np.any(mask):
            out[mask] = f.func(pts[mask]) * weight[mask]
        return out

    u = rng.random((n.sum(), dim))
    reps = np.repeat(np.arange(live.size), n)
    corners = grid[live][reps]
    block = np.arange(live.size) // quadrature._STRATA_BLOCK
    values = np.zeros(K)
    stderrs = np.zeros(K)
    for k, f in enumerate(integrands):
        a = region_values(f, -R + (corners + u) * h)
        b = region_values(f, -R + (corners + (1.0 - u)) * h)
        vals = 0.5 * (a + b)
        sums = np.bincount(reps, weights=vals, minlength=live.size)
        sumsq = np.bincount(reps, weights=vals**2, minlength=live.size)
        mean = sums / n
        var = np.maximum(0.0, sumsq / n - mean**2)
        var_mean = var / (n - 1)
        block_var = np.bincount(block, weights=var_mean)
        values[k] = cell_vol * math.fsum(np.bincount(block, weights=mean))
        stderrs[k] = cell_vol * math.sqrt(math.fsum(block_var))
    return values, stderrs


def weighted_bumps(cfg, w, count):
    """`count` integrands mu(x) * bump(x), one with an odd linear factor."""
    gamma = 0.0 if w.is_unit else w.gamma
    out = []
    for k in range(count):
        center = np.zeros(cfg.dim)
        center[:3] = [0.4 * k - 0.3, 0.2 * k, -0.1 * k]
        width = 0.6 + 0.15 * k

        def func(pts, center=center, width=width, k=k):
            d2 = np.sum((pts - center) ** 2, axis=1)
            bump = np.exp(-d2 / width**2) * (1.0 + k * pts[:, 0])
            return bump * weight_value(pts, cfg, w)

        out.append(Integrand(func=func, pole_exponents=[gamma] * cfg.n_poles))
    return out


def mid_region(integrands, cfg, spec):
    """Region (b) as integrate_many runs it: (values, stderrs)."""
    return quadrature._mid_region(
        integrands, cfg, spec, quadrature._mid_pairs(cfg, spec)
    )


def partitioned_points(monkeypatch):
    """Count the points of every _mid_partition call into the returned list."""
    seen = []
    original = quadrature._mid_partition

    def counted(pts, cfg, spec):
        seen.append(pts.shape[0])
        return original(pts, cfg, spec)

    monkeypatch.setattr(quadrature, "_mid_partition", counted)
    return seen


def assert_same_region(new, ref):
    assert new[0].tolist() == ref[0].tolist()
    assert new[1].tolist() == ref[1].tolist()


def mid_geometry(case):
    """A pole configuration and spec that press on the dead-stratum test."""
    two = PoleConfig(dim=3, poles=np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    if case == "mc_bump":
        return two, QuadratureSpec(
            pole_radius=1.0, far_radius=6.0, radial_levels=14,
            mc_samples=400_000, seed=7,
        )
    if case == "odd_grid":
        # An odd grid: the middle strata straddle the coordinate planes.
        return two, QuadratureSpec(
            pole_radius=0.9, far_radius=6.0, radial_levels=20,
            mc_samples=60_000, seed=1234,
        )
    if case == "enclosing":
        # The far sphere touches the outer pole ball.
        return two, QuadratureSpec(
            pole_radius=0.9, far_radius=enclosing_radius(two, 0.9),
            radial_levels=10, mc_samples=100_000, seed=5,
        )
    if case == "core_strata":
        # Touching pole balls on a fine grid: whole strata inside a core.
        return two, QuadratureSpec(
            pole_radius=min_pole_gap(two), far_radius=3.0, radial_levels=10,
            mc_samples=400_000, seed=11,
        )
    if case == "n4":
        cfg = PoleConfig(dim=4, poles=np.array(
            [[0.0, 0.0, 0.0, 0.0], [1.8, 0.3, 0.0, 0.0], [-0.4, 1.5, 0.7, 0.0]]
        ))
        return cfg, QuadratureSpec(
            pole_radius=0.6, far_radius=5.0, radial_levels=10,
            mc_samples=80_000, seed=3,
        )
    if case == "n6":
        # 2e5 samples give a 4^6 grid, some of whose strata are dead.
        cfg = PoleConfig(dim=6, poles=np.array(
            [[0.0] * 6, [1.5, 0.4, 0.0, 0.0, 0.0, 0.0]]
        ))
        return cfg, QuadratureSpec(
            pole_radius=min_pole_gap(cfg), far_radius=3.5, radial_levels=10,
            mc_samples=200_000, seed=3,
        )
    if case == "nine_poles":
        # numpy sums a pole axis of length >= 8 pairwise, not in order.
        cfg = PoleConfig(dim=3, poles=np.array([[i - 4.0, 0.0, 0.0] for i in range(9)]))
        gap = min_pole_gap(cfg)
        return cfg, QuadratureSpec(
            pole_radius=gap, far_radius=enclosing_radius(cfg, gap),
            radial_levels=10, mc_samples=300_000, seed=9,
        )
    raise ValueError(case)


# Strata per axis, live strata and pairs of each `mid_geometry` case.
PINNED_PAIRS = {
    "mc_bump": (40, 37252, 108436),
    "odd_grid": (21, 5832, 17695),
    "enclosing": (25, 9604, 28124),
    "core_strata": (40, 36768, 104212),
    "n4": (9, 3753, 21146),
    "n6": (4, 3648, 86288),
    "nine_poles": (36, 27520, 84656),
}


class TestMidRegionNodeSet:
    @pytest.mark.parametrize("weight", ["unit_weight", "power_weight"])
    @pytest.mark.parametrize("count", [1, 5])
    def test_matches_per_integrand_reference(
        self, two_poles_n3, lean_spec, weight, count, request
    ):
        """The shared node set gives the per-integrand loop's values and
        standard errors bit for bit."""
        w = request.getfixturevalue(weight)
        integrands = weighted_bumps(two_poles_n3, w, count)
        assert_same_region(
            mid_region(integrands, two_poles_n3, lean_spec),
            reference_mid_region(integrands, two_poles_n3, lean_spec),
        )

    def test_matches_reference_with_three_poles(self, three_poles_n4, power_weight):
        spec = QuadratureSpec(
            pole_radius=0.6, far_radius=5.0, radial_levels=10,
            mc_samples=80_000, seed=3,
        )
        integrands = weighted_bumps(three_poles_n4, power_weight, 3)
        assert_same_region(
            mid_region(integrands, three_poles_n4, spec),
            reference_mid_region(integrands, three_poles_n4, spec),
        )

    @pytest.mark.parametrize("case", ["enclosing", "n6", "nine_poles", "core_strata"])
    def test_matches_reference_on_edge_geometries(self, case, power_weight):
        """The shared node set, the per-stratum pair counts and the
        pole-by-pole partition change no bit, with the far sphere on a pole
        ball, in N = 6, with a pole axis numpy sums pairwise, and with
        strata inside a pole core."""
        cfg, spec = mid_geometry(case)
        integrands = weighted_bumps(cfg, power_weight, 2)
        assert_same_region(
            mid_region(integrands, cfg, spec),
            reference_mid_region(integrands, cfg, spec),
        )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "case",
        ["mc_bump", "odd_grid", "enclosing", "core_strata", "n4", "n6", "nine_poles"],
    )
    def test_dead_strata_hold_no_node(self, case, seed):
        """Every point of a skipped stratum's box, u or its antithetic
        partner 1 - u, is one that _mid_partition drops."""
        cfg, spec = mid_geometry(case)
        dim, R = cfg.dim, spec.far_radius
        grid, h = strata_grid(cfg, spec)
        s = quadrature._strata_grid(dim, spec.mc_samples)
        dead = np.setdiff1d(
            np.arange(grid.shape[0]), quadrature._live_strata(cfg, spec, s)
        )
        assert dead.size > 0
        if case == "core_strata":
            centres = -R + (grid[dead] + 0.5) * h
            gaps = np.linalg.norm(centres[:, None, :] - cfg.poles[None], axis=2)
            assert np.any(gaps.min(axis=1) < spec.pole_radius)
        u = np.random.default_rng(seed).random((dead.size, 16, dim))
        # The corners of every box too: u in {0, 1}^N.
        corners = np.stack(
            np.meshgrid(*([[0.0, 1.0]] * dim), indexing="ij"), axis=-1
        ).reshape(-1, dim)
        u = np.concatenate([u, np.broadcast_to(corners, (dead.size, *corners.shape))], axis=1)
        for half in (u, 1.0 - u):
            pts = (-R + (grid[dead][:, None, :] + half) * h).reshape(-1, dim)
            mask, _, _ = quadrature._mid_partition(pts, cfg, spec)
            assert not mask.any()

    def test_partition_skips_dead_strata(self, two_poles_n3, lean_spec, monkeypatch):
        """Each antithetic half partitions the pairs of the live strata
        only, none of the dead ones."""
        seen = partitioned_points(monkeypatch)
        mid_region(
            [Integrand(func=gaussian, pole_exponents=[0.0, 0.0])], two_poles_n3, lean_spec
        )
        _, _, n = quadrature._mid_pairs(two_poles_n3, lean_spec)
        grid, _ = strata_grid(two_poles_n3, lean_spec)
        assert sum(seen) == 2 * n.sum()
        assert n.size < grid.shape[0]

    @pytest.mark.parametrize(
        "case",
        ["mc_bump", "odd_grid", "enclosing", "core_strata", "n4", "n6", "nine_poles"],
    )
    def test_pairs_fall_with_pole_distance(self, case, monkeypatch):
        """n_s is non-increasing in the distance from the stratum's box to
        the nearest pole and at least 2, and the total is at most the
        budget B and loses less than one pair per live stratum to the
        rounding down.  The grid side, the live strata and the total are
        pinned.  The rule draws both halves of every pair, 2 * sum(n_s)
        nodes, the mid count of the cap."""
        cfg, spec = mid_geometry(case)
        grid, h = strata_grid(cfg, spec)
        live, n_ref, d, budget = reference_pairs(cfg, spec, grid, h)
        _, live_grid, n = quadrature._mid_pairs(cfg, spec)
        assert live_grid.tolist() == grid[live].tolist()
        assert n.tolist() == n_ref.tolist()
        assert (round(2.0 * spec.far_radius / h), n.size, n.sum()) == PINNED_PAIRS[case]
        order = np.argsort(d, kind="stable")
        assert np.all(np.diff(n[order]) <= 0)
        assert n.min() >= 2
        assert budget - n.size < n.sum() <= budget
        assert n.max() > n.min()
        seen = partitioned_points(monkeypatch)
        mid_region(weighted_bumps(cfg, WeightSpec.unit(), 1), cfg, spec)
        assert sum(seen) == 2 * n.sum()

    def test_budget_below_the_floor_gives_two_pairs_each(self):
        """With 1e3 samples on the 2^8 grid of N = 8 the budget B is less
        than 2 pairs per live stratum, and every live stratum gets 2."""
        cfg = two_poles(8)
        spec = QuadratureSpec(
            pole_radius=0.9, far_radius=6.0, radial_levels=10,
            mc_samples=1000, seed=1,
        )
        h, grid, n = quadrature._mid_pairs(cfg, spec)
        assert h == 6.0 and n.size > 0
        assert round(1000 * n.size / (2 * 2**8)) < 2 * n.size
        assert n.tolist() == [2] * n.size

    def test_matches_reference_over_several_slices(self, two_poles_n3, lean_spec):
        spec = dataclasses.replace(lean_spec, mc_samples=600_000)
        _, _, n = quadrature._mid_pairs(two_poles_n3, spec)
        # Region (b) is cut into at least 2 slices of whole blocks of strata
        # for one integrand.
        bounds = np.concatenate([[0], np.cumsum(n)])
        edges = np.append(np.arange(0, n.size, quadrature._STRATA_BLOCK), n.size)
        assert len(quadrature._slices(bounds[edges], 1)) >= 2
        integrands = [Integrand(func=gaussian, pole_exponents=[0.0, 0.0])]
        assert_same_region(
            mid_region(integrands, two_poles_n3, spec),
            reference_mid_region(integrands, two_poles_n3, spec),
        )

    def test_geometry_is_built_once_per_call(
        self, two_poles_n3, lean_spec, unit_weight, monkeypatch
    ):
        """The partition weights are computed at as many points for a batch
        of 6 integrands as for one: once per node, not per integrand.  The
        points are counted, not the calls, since the mid region cuts a
        larger batch into more slices."""
        calls = []
        original = quadrature._tail_partition_weight

        def counted(r, far_radius):
            calls.append(r.size)
            return original(r, far_radius)

        monkeypatch.setattr(quadrature, "_tail_partition_weight", counted)
        counts = []
        for count in (1, 6):
            calls.clear()
            integrate_many(
                weighted_bumps(two_poles_n3, unit_weight, count),
                two_poles_n3,
                lean_spec,
            )
            counts.append(sum(calls))
        assert counts[0] == counts[1] > 0

    def test_holds_no_array_of_all_its_points(self, two_poles_n3, lean_spec):
        """Region (b) builds each slice's points when it evaluates the
        slice: one call's traced peak stays below 3 times the bytes of its
        uniform draws, the one array it keeps for the whole call."""
        spec = dataclasses.replace(lean_spec, mc_samples=2_000_000)
        pairs = quadrature._mid_pairs(two_poles_n3, spec)
        n = pairs[-1]
        batch = [
            Integrand(func=lambda x: np.ones(x.shape[0]), pole_exponents=[0.0, 0.0])
            for _ in range(2)
        ]
        tracemalloc.start()
        try:
            quadrature._mid_region(batch, two_poles_n3, spec, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n.sum() * two_poles_n3.dim * 8


    def test_peak_does_not_grow_with_the_batch(self, two_poles_n3, lean_spec):
        """Region (b) holds nothing of one entry per integrand and stratum:
        from 16 to 64 integrands at 4e5 samples, the traced peak of one call
        grows by less than 1 MB.  Every slice evaluates about CHUNK values
        (CHUNK // K pairs for each of K integrands), so only what the call
        keeps per integrand could grow; a mean and a variance per integrand
        and stratum would add 48 * 16 bytes per live stratum, 29 MB here."""
        spec = dataclasses.replace(lean_spec, mc_samples=400_000)
        pairs = quadrature._mid_pairs(two_poles_n3, spec)
        peaks = []
        for k in (16, 64):
            batch = [
                Integrand(func=lambda x: np.ones(x.shape[0]), pole_exponents=[0.0, 0.0])
                for _ in range(k)
            ]
            tracemalloc.start()
            try:
                quadrature._mid_region(batch, two_poles_n3, spec, pairs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1e6
        assert pairs[-1].size * 48 * 16 > 20e6


class TestMidRegionCalibration:
    def test_z_scores_of_closed_forms_over_seeds(self, two_poles_n3):
        """Over 40 seeds at 1e5 samples, the L2 mass, the Dirichlet energy
        and the second moment of a Gaussian near both poles lie within
        three reported errors of their closed forms in all but at most 2
        of the 120 draws (the bound was fixed before the first run)."""
        dim, width = 3, 0.7
        center = np.array([1.0, 0.3, 0.0])
        a = 2.0 / width**2  # phi^2 = exp(-a |x - c|^2)
        mass = (math.pi / a) ** (dim / 2)
        exact = [
            mass,
            4.0 / width**4 * dim / (2.0 * a) * mass,
            (dim / (2.0 * a) + center @ center) * mass,
        ]

        def phi2(x):
            return np.exp(-a * np.sum((x - center) ** 2, axis=1))

        integrands = [
            phi2,
            lambda x: 4.0 / width**4 * np.sum((x - center) ** 2, axis=1) * phi2(x),
            lambda x: np.sum(x**2, axis=1) * phi2(x),
        ]
        z = []
        for seed in range(40):
            spec = QuadratureSpec(
                pole_radius=0.9, far_radius=6.0, radial_levels=14,
                mc_samples=100_000, seed=seed,
            )
            for res, ref in zip(integrate_many(integrands, two_poles_n3, spec), exact):
                z.append(abs(res.value - ref) / res.error)
        assert len(z) == 120
        assert sum(v > 3.0 for v in z) <= 2

    def test_z_scores_in_n4_over_seeds(self):
        """In N = 4, with two poles, over 40 seeds at 1e5 samples, the L2
        mass and the second moment of a Gaussian near both poles lie within
        three reported errors of their closed forms in all but at most 2 of
        the 80 draws (the bound was fixed before the first run)."""
        cfg = two_poles(4)
        dim, width = 4, 0.7
        center = np.array([1.0, 0.3, 0.0, 0.0])
        a = 2.0 / width**2
        mass = (math.pi / a) ** (dim / 2)
        exact = [mass, (dim / (2.0 * a) + center @ center) * mass]

        def phi2(x):
            return np.exp(-a * np.sum((x - center) ** 2, axis=1))

        integrands = [phi2, lambda x: np.sum(x**2, axis=1) * phi2(x)]
        z = []
        for seed in range(40):
            spec = QuadratureSpec(
                pole_radius=0.9, far_radius=6.0, radial_levels=14,
                mc_samples=100_000, seed=seed,
            )
            for res, ref in zip(integrate_many(integrands, cfg, spec), exact):
                z.append(abs(res.value - ref) / res.error)
        assert len(z) == 80
        assert sum(v > 3.0 for v in z) <= 2


# --------------------------------------------------------------------------
# one batch, slice by slice: every integrand on the rules of its support
# --------------------------------------------------------------------------


def mixed_integrands(cfg, w):
    """Unbounded bumps beside compactly supported integrands of two
    near-optimal functions, two of them borderline (p == N, truncated)."""
    p = derive_params(cfg, 0.0)
    out = weighted_bumps(cfg, w, 3)
    for eps in (0.25, 0.125):
        phi = OptimalityPhi(cfg=cfg, R=1.0, eps=eps, beta=p.beta)
        out.append(Integrand(
            func=lambda x, phi=phi: phi.value(x) ** 2,
            pole_exponents=[2.0 * p.beta] * cfg.n_poles,
            support_radius=phi.support_radius,
        ))
        out.append(Integrand(
            func=lambda x, phi=phi: potential_v(x, cfg) * phi.value(x) ** 2,
            pole_exponents=[2.0 * p.beta + 2.0] * cfg.n_poles,
            support_radius=phi.support_radius,
            allow_truncation=True,
        ))
    return out


def region_of(pts, cfg, spec):
    """pole, far or mid: which rule a slice of nodes comes from."""
    dist = np.linalg.norm(pts[:, None, :] - cfg.poles[None, :, :], axis=2)
    if np.all(dist.min(axis=1) <= spec.pole_radius * (1 + 1e-9)):
        return "pole"
    if np.all(np.linalg.norm(pts, axis=1) >= 0.8 * spec.far_radius * (1 - 1e-9)):
        return "far"
    return "mid"


def result_fields(res):
    return (res.value, res.stderr, res.trunc_bound, res.truncated, res.eta)


def earlier_runs(repeats, batch, cfg, spec):
    """The result fields of repeats - 1 runs of the batch made before the run a
    test checks: a later call must give the same bits as these, so nothing
    one call leaves behind (the cached sphere rules) changes the next."""
    return [
        [result_fields(r) for r in integrate_many(batch, cfg, spec)]
        for _ in range(repeats - 1)
    ]


class TestBundle:
    @pytest.fixture()
    def sliced_spec(self):
        """Deep enough that a batch of 7 integrands needs several slices of
        pole shells and of mid-region cells."""
        return QuadratureSpec(
            pole_radius=0.9, far_radius=6.0, radial_levels=24,
            mc_samples=200_000, seed=5,
        )

    @pytest.mark.parametrize("repeats", [1, 2])
    def test_rows_equal_separate_integrands(
        self, two_poles_n3, unit_weight, sliced_spec, repeats
    ):
        """Every integrand of a batch gives the value, errors, truncation
        flag and eta of the same integrand passed alone, bit for bit, on
        the first call in a row and on a later one."""
        batch = mixed_integrands(two_poles_n3, unit_weight)
        earlier = earlier_runs(repeats, batch, two_poles_n3, sliced_spec)
        regions = []

        def recorded(pts):
            regions.append(region_of(pts, two_poles_n3, sliced_spec))
            return batch[0].func(pts)

        alone = [
            integrate_many([f], two_poles_n3, sliced_spec)[0] for f in batch
        ]
        together = integrate_many(
            [dataclasses.replace(batch[0], func=recorded), *batch[1:]],
            two_poles_n3, sliced_spec,
        )
        split = [
            *integrate_many(batch[:1], two_poles_n3, sliced_spec),
            *integrate_many(batch[1:], two_poles_n3, sliced_spec),
        ]
        assert [result_fields(r) for r in together] == [
            result_fields(r) for r in alone
        ]
        assert [result_fields(r) for r in split] == [result_fields(r) for r in alone]
        assert earlier == [[result_fields(r) for r in together]] * (repeats - 1)
        assert [r.truncated for r in alone] == [False] * 4 + [True, False, True]
        # Two angular tiers and two levels per pole ball, two antithetic
        # halves: more mid calls than that means the cells were cut into
        # several slices.
        assert regions.count("pole") >= 4 * two_poles_n3.n_poles
        assert regions.count("mid") > 2

    @pytest.mark.parametrize("repeats", [1, 2])
    def test_graded_pole_slices_keep_values_in_n4(
        self, unit_weight, sliced_spec, repeats
    ):
        """In N = 4 the full-order tier of a pole ball is cut into several
        slices for a batch of 7; every integrand of the mixed batch of
        bumps and truncated phi_eps still gives bit for bit what it gives
        alone, on the first call in a row and on a later one."""
        cfg = two_poles(4)
        spec = dataclasses.replace(sliced_spec, mc_samples=20_000)
        batch = mixed_integrands(cfg, unit_weight)
        earlier = earlier_runs(repeats, batch, cfg, spec)
        pole_calls = []

        def recorded(pts):
            pole_calls.append(region_of(pts, cfg, spec) == "pole")
            return batch[0].func(pts)

        together = integrate_many(
            [dataclasses.replace(batch[0], func=recorded), *batch[1:]], cfg, spec
        )
        alone = [integrate_many([f], cfg, spec)[0] for f in batch]
        assert [result_fields(r) for r in together] == [
            result_fields(r) for r in alone
        ]
        assert earlier == [[result_fields(r) for r in together]] * (repeats - 1)
        assert [r.truncated for r in alone] == [False] * 4 + [True, False, True]
        # Two angular tiers and two levels per pole ball: more calls than
        # that means a tier was cut into several slices.
        assert sum(pole_calls) > 4 * cfg.n_poles

    @pytest.mark.parametrize("repeats", [1, 2])
    def test_every_integrand_sees_each_slice_in_turn(
        self, two_poles_n3, unit_weight, sliced_spec, monkeypatch, repeats
    ):
        """Evaluation is slice-major: on each slice of nodes every integrand
        of the batch that takes part in the rule is called once, in batch
        order, with the same array object, before the next slice.  A
        far-shell slice calls exactly the integrands of its support.  Every
        result still equals the same integrand alone, on the first call in
        a row and on a later one."""
        mixed = mixed_integrands(two_poles_n3, unit_weight)
        # Unbounded and compact integrands interleaved.
        batch = [mixed[k] for k in (0, 3, 4, 1, 5, 2, 6)]
        earlier = earlier_runs(repeats, batch, two_poles_n3, sliced_spec)
        calls = []  # (slice array, batch index, in a far pass)
        # Mid-region cells may also lie wholly beyond the far onset, so far
        # slices are told apart by the rule that is running.
        far_pass = []
        far_region = quadrature._far_region

        def in_far_pass(*args):
            far_pass.append(True)
            try:
                return far_region(*args)
            finally:
                far_pass.pop()

        monkeypatch.setattr(quadrature, "_far_region", in_far_pass)

        def recorded(k, f):
            def func(pts):
                calls.append((pts, k, bool(far_pass)))
                return f.func(pts)

            return dataclasses.replace(f, func=func)

        together = integrate_many(
            [recorded(k, f) for k, f in enumerate(batch)], two_poles_n3, sliced_spec
        )
        alone = [
            integrate_many([f], two_poles_n3, sliced_spec)[0] for f in batch
        ]
        assert [result_fields(r) for r in together] == [
            result_fields(r) for r in alone
        ]
        assert earlier == [[result_fields(r) for r in together]] * (repeats - 1)

        runs = []  # runs of consecutive calls with one array
        for pts, k, far in calls:
            if not runs or runs[-1][0] is not pts:
                runs.append((pts, [], far))
            runs[-1][1].append(k)
        # No array is visited twice: each slice is one run.
        assert len({id(pts) for pts, _, _ in runs}) == len(runs)
        by_region = {}
        for pts, order, far in runs:
            if far:
                region = "far"
            else:
                pole = region_of(pts, two_poles_n3, sliced_spec) == "pole"
                region = "pole" if pole else "mid"
            by_region.setdefault(region, []).append(order)
        assert sorted(by_region) == ["far", "mid", "pole"]
        for region in ("pole", "mid"):
            assert by_region[region] == [list(range(7))] * len(by_region[region])
        # Far shells run per support, each pass on its own integrands only:
        # the unbounded bumps, and the two compact supports 8 and 16.
        supports = [f.support_radius for f in batch]
        own = {
            s: [k for k in range(7) if supports[k] == s] for s in set(supports)
        }
        assert sorted(own.values()) == [[0, 3, 5], [1, 2], [4, 6]]
        assert {tuple(order) for order in by_region["far"]} == {
            tuple(ks) for ks in own.values()
        }

    def test_budget_counts_rows(self, two_poles_n3, lean_spec, monkeypatch):
        """The evaluation cap counts integrands: K of them trip it at K
        times the nodes of one."""
        one = Integrand(func=gaussian, pole_exponents=[0.0, 0.0])
        nodes = integrate(one, two_poles_n3, lean_spec).cells
        monkeypatch.setattr(quadrature, "MAX_EVALS", 3 * nodes)
        batch = [one] * 4
        assert len(integrate_many(batch[:3], two_poles_n3, lean_spec)) == 3
        with pytest.raises(BudgetExceeded):
            integrate_many(batch, two_poles_n3, lean_spec)

    def test_budget_counts_what_runs(self, two_poles_n3, monkeypatch):
        """The estimate checked against MAX_EVALS is the evaluation count:
        for one integrand the cells of its result (pole balls, mid pairs,
        far shells of its support), for a batch of supports None, 8 and 16
        the sum of those, while the batch's cells count each node once."""
        spec = QuadratureSpec(
            pole_radius=0.9, far_radius=6.0, radial_levels=24,
            mc_samples=100_000, seed=5,
        )
        batch = [
            Integrand(func=gaussian, pole_exponents=[0.0, 0.0], support_radius=r)
            for r in (None, 8.0, 16.0)
        ]
        alone = [integrate(f, two_poles_n3, spec).cells for f in batch]
        # The pole and mid nodes of the plan, which tests above match
        # against the points that each region evaluates.
        poles = quadrature._pole_plan(two_poles_n3, spec)
        shared = sum(quadrature._plan_nodes(ball) for ball in poles) + 2 * int(
            quadrature._mid_pairs(two_poles_n3, spec)[2].sum()
        )
        assert len(set(alone)) == 3 and min(alone) > shared
        together = integrate_many(batch, two_poles_n3, spec)[0].cells
        assert together == sum(alone) - 2 * shared
        for cap, fields in ((alone[1], batch[1:2]), (sum(alone), batch)):
            monkeypatch.setattr(quadrature, "MAX_EVALS", cap)
            integrate_many(fields, two_poles_n3, spec)
            monkeypatch.setattr(quadrature, "MAX_EVALS", cap - 1)
            with pytest.raises(BudgetExceeded):
                integrate_many(fields, two_poles_n3, spec)

    def test_shell_pass_holds_no_array_of_all_its_nodes(self):
        """A pole-ball or far-shell pass builds each slice's nodes when it
        evaluates that slice."""
        dim, levels = 4, 36
        edges = 0.9 * 2.0 ** -np.arange(levels + 1.0)
        batch = [
            Integrand(func=lambda x: np.ones(x.shape[0]), pole_exponents=[])
            for _ in range(8)
        ]
        tracemalloc.start()
        try:
            nodes, sums = quadrature._shell_rule(np.zeros(dim), edges, 8, 8)
            sums(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Less than half of what the points of the whole pass would take.
        assert peak < nodes * dim * 8 / 2

    @pytest.mark.parametrize("k", [1, 8, 64, 128])
    def test_slices_bound_the_evaluation_size(self, two_poles_n3, sliced_spec, k):
        """In a batch of K integrands no func sees more than CHUNK // K
        points, or the floor of 2048, or one shell or cell where that is
        larger: the peak memory of an evaluation stays flat in K up to
        K = 64, and K * 2048 * 8 bytes of values beyond."""
        sizes = []

        def func(pts):
            sizes.append(pts.shape[0])
            return np.ones(pts.shape[0])

        batch = [Integrand(func=func, pole_exponents=[0.0, 0.0]) for _ in range(k)]
        results = integrate_many(batch, two_poles_n3, sliced_spec)
        assert len(results) == k
        # The outermost pole shell is split in two panels at the fade onset.
        shell = 2 * quadrature._RADIAL_ORDER * unit_sphere_rule(3)[0].shape[0]
        pairs = quadrature._mid_pairs(two_poles_n3, sliced_spec)[2]
        assert max(sizes) <= max(quadrature.CHUNK // k, 2048, shell, pairs.max())

    def test_slice_floor_changes_no_bit(self, two_poles_n3, monkeypatch):
        """A batch of 100 integrands, where the floor of 2048 nodes per
        slice binds, gives bit for bit the same results with the floor
        lowered to CHUNK // 100 and raised to 8192: a bin is never split,
        so no sum changes, however the slices are cut."""
        spec = QuadratureSpec(
            pole_radius=0.9, far_radius=6.0, radial_levels=12,
            mc_samples=20_000, seed=3,
        )
        batch = [
            Integrand(
                func=lambda x, c=0.01 * k: gaussian(x - c) * (1.0 + x[:, 0]),
                pole_exponents=[0.0, 0.0],
                support_radius=(None, 8.0)[k % 2],
            )
            for k in range(100)
        ]
        runs, slices = [], []
        for floor in (1, 2048, 8192):
            sizes = []

            def first(x):
                sizes.append(x.shape[0])
                return batch[0].func(x)

            monkeypatch.setattr(quadrature, "_SLICE_FLOOR", floor)
            results = integrate_many(
                [dataclasses.replace(batch[0], func=first), *batch[1:]],
                two_poles_n3, spec,
            )
            runs.append([(*result_fields(r), r.cells) for r in results])
            slices.append(len(sizes))
        assert runs[0] == runs[1] == runs[2]
        # Each floor cut the nodes into fewer slices than the one below.
        assert slices[0] > slices[1] > slices[2]

    def test_mid_pairs_run_once_per_call(self, two_poles_n3, lean_spec, monkeypatch):
        """The pair counts of the mid region are planned once per call:
        the evaluation cap and the rule read the same ones."""
        calls = []
        original = quadrature._mid_pairs

        def counted(cfg, spec):
            calls.append(spec)
            return original(cfg, spec)

        monkeypatch.setattr(quadrature, "_mid_pairs", counted)
        integrate_many(
            weighted_bumps(two_poles_n3, WeightSpec.unit(), 3), two_poles_n3, lean_spec
        )
        assert len(calls) == 1

    def test_rejects_misshapen_rows(self, two_poles_n3, lean_spec):
        """An integrand must give one value per point, and one pole exponent
        per pole."""
        for bad in (lambda pts: gaussian(pts)[None, :], lambda pts: 1.0):
            integrand = Integrand(func=bad, pole_exponents=[0.0, 0.0])
            with pytest.raises(ValueError, match="shape"):
                integrate_many([integrand], two_poles_n3, lean_spec)
        short = Integrand(func=gaussian, pole_exponents=[0.0])
        with pytest.raises(ValueError, match="pole_exponents"):
            integrate_many([short], two_poles_n3, lean_spec)

    def test_empty_batch(self, two_poles_n3, lean_spec):
        """No fields give no results, once the spec is validated."""
        import dataclasses

        assert integrate_many([], two_poles_n3, lean_spec) == []
        shallow = dataclasses.replace(lean_spec, radial_levels=2)
        with pytest.raises(ConfigError, match="radial_levels"):
            integrate_many([], two_poles_n3, shallow)


# --------------------------------------------------------------------------
# integrands that share an inner key
# --------------------------------------------------------------------------


def slow_bump(pts: np.ndarray) -> np.ndarray:
    """(1 + |x|^2)^-3: its far tail moves the value at rounding scale and
    above, so a far shell run on the wrong support would show."""
    return (1.0 + np.sum(pts * pts, axis=1)) ** -3


def far_only(func, spec):
    """func, asserting that every slice it is called on is a far-shell one."""

    def wrapper(pts):
        assert np.all(
            np.linalg.norm(pts, axis=1)
            >= quadrature._TAIL_RISE_START * spec.far_radius * (1 - 1e-9)
        )
        return func(pts)

    return wrapper


class TestInnerKey:
    @staticmethod
    def members():
        """Three integrands equal inside B(0, 6) and different beyond it: one
        unbounded as is, one doubled beyond |x| = 7, one cut at |x| = 8."""

        def beyond(pts):
            return slow_bump(pts) * np.where(np.linalg.norm(pts, axis=1) > 7.0, 2.0, 1.0)

        def cut(pts):
            return slow_bump(pts) * (np.linalg.norm(pts, axis=1) <= 8.0)

        return [
            Integrand(func=slow_bump, pole_exponents=[0.0, 0.0], name="base"),
            Integrand(func=beyond, pole_exponents=[0.0, 0.0], name="beyond"),
            Integrand(func=cut, pole_exponents=[0.0, 0.0], support_radius=8.0,
                      name="cut"),
        ]

    def test_member_equals_itself_alone(self, two_poles_n3, lean_spec):
        """A group is evaluated on the pole balls and the mid region by its
        first member only, and every member on its own far shells: each
        result equals, bit for bit, that member passed alone."""
        base, beyond, cut = self.members()
        alone = [result_fields(integrate(f, two_poles_n3, lean_spec))
                 for f in (base, beyond, cut)]
        assert len({a[0] for a in alone}) == 3
        lone = Integrand(func=gaussian, pole_exponents=[0.0, 0.0], inner=None)
        batch = [
            dataclasses.replace(base, inner="g"),
            lone,
            dataclasses.replace(beyond, func=far_only(beyond.func, lean_spec), inner="g"),
            dataclasses.replace(cut, func=far_only(cut.func, lean_spec), inner="g"),
        ]
        got = [result_fields(r) for r in integrate_many(batch, two_poles_n3, lean_spec)]
        assert got == [alone[0], result_fields(integrate(lone, two_poles_n3, lean_spec)),
                       alone[1], alone[2]]

    @pytest.mark.parametrize("change", [
        {"pole_exponents": [1.0, 0.0]}, {"allow_truncation": True},
    ])
    def test_rejects_a_mixed_group(self, two_poles_n3, lean_spec, change):
        """A key's integrands must agree in pole exponents and truncation
        flag, which close and flag the shared sums."""
        base, beyond, _ = self.members()
        batch = [dataclasses.replace(base, inner="g"),
                 dataclasses.replace(beyond, inner="g", **change)]
        with pytest.raises(ValueError, match="inner key"):
            integrate_many(batch, two_poles_n3, lean_spec)
        # The same integrands with keys of their own are accepted.
        batch[1] = dataclasses.replace(batch[1], inner="h")
        assert len(integrate_many(batch, two_poles_n3, lean_spec)) == 2

    def test_budget_counts_a_group_once(self, two_poles_n3, lean_spec, monkeypatch):
        """The evaluation cap counts a group's pole and mid nodes once and
        the far shells of every member."""
        one = Integrand(func=slow_bump, pole_exponents=[0.0, 0.0], inner="g")
        poles = quadrature._pole_plan(two_poles_n3, lean_spec)
        shared = sum(quadrature._plan_nodes(ball) for ball in poles) + 2 * int(
            quadrature._mid_pairs(two_poles_n3, lean_spec)[2].sum()
        )
        far = integrate(one, two_poles_n3, lean_spec).cells - shared
        monkeypatch.setattr(quadrature, "MAX_EVALS", shared + 3 * far)
        integrate_many([one] * 3, two_poles_n3, lean_spec)
        monkeypatch.setattr(quadrature, "MAX_EVALS", shared + 3 * far - 1)
        with pytest.raises(BudgetExceeded):
            integrate_many([one] * 3, two_poles_n3, lean_spec)
