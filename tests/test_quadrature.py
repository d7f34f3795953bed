"""Quadrature engine against closed forms and a scipy.integrate oracle.

Closed-form targets (Gaussian moments, power-law ball integrals, surface
measures) never go through the package's own pipeline, so agreement is
meaningful.  Determinism contracts are checked bitwise: the engine promises
identical output for identical (spec, integrand) regardless of batch
composition or worker count.
"""

import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from multipolar_hardy import quadrature
from multipolar_hardy.quadrature import worker_count
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
    derive_params,
    enclosing_radius,
    min_pole_gap,
    potential_v,
    unit_sphere_rule,
    weight_value,
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
        sums, n = quadrature._pole_ball_pass(
            [f], cfg, cfg.poles[0], radius, levels, radial_order, order, fade=False
        )
        inner, err, _ = quadrature._inner_closure(sums[0], exponent, cfg.dim, False)
        return math.fsum(sums[0]) + inner, err, n

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

    def test_worker_count_env_override(self, two_poles_n3, lean_spec, monkeypatch):
        monkeypatch.setenv("MHARDY_WORKERS", "3")
        assert worker_count() == 3
        res = integrate(gaussian, two_poles_n3, lean_spec)
        monkeypatch.setenv("MHARDY_WORKERS", "1")
        assert res.value == integrate(gaussian, two_poles_n3, lean_spec).value

    @pytest.mark.parametrize("raw", ["abc", "0", "-2"])
    def test_worker_count_rejects_bad_env(self, raw, monkeypatch):
        monkeypatch.setenv("MHARDY_WORKERS", raw)
        with pytest.raises(ConfigError, match=f"MHARDY_WORKERS.*'{raw}'"):
            worker_count()

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
        [("radial_levels", 3), ("mc_samples", 10), ("radial_order", 3)],
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


# --------------------------------------------------------------------------
# mid region: one node set per integrate_many call
# --------------------------------------------------------------------------


def reference_mid_region(integrands, cfg, spec):
    """Region (b) with the node geometry rebuilt for every integrand and
    antithetic half: the per-integrand loop the shared node set replaced."""
    dim = cfg.dim
    R = spec.far_radius
    K = len(integrands)
    s = quadrature._strata_grid(dim, spec.mc_samples)
    C = s**dim
    lo_corner = -R
    h = 2.0 * R / s
    cell_vol = h**dim
    grid = np.stack(
        np.meshgrid(*([np.arange(s)] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)
    pairs = max(2, spec.mc_samples // (2 * C))
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

    u = rng.random((C * pairs, dim))
    reps = np.repeat(np.arange(C), pairs)
    values = np.zeros(K)
    stderrs = np.zeros(K)
    for k, f in enumerate(integrands):
        a = region_values(f, lo_corner + (grid[reps] + u) * h)
        b = region_values(f, lo_corner + (grid[reps] + (1.0 - u)) * h)
        vals = 0.5 * (a + b)
        sums = np.bincount(reps, weights=vals, minlength=C)
        sumsq = np.bincount(reps, weights=vals**2, minlength=C)
        mean = sums / pairs
        var = np.maximum(0.0, sumsq / pairs - mean**2)
        var_mean = var / (pairs - 1)
        values[k] = cell_vol * math.fsum(mean)
        stderrs[k] = cell_vol * math.sqrt(math.fsum(var_mean))
    return values, stderrs, int(2 * C * pairs)


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


def assert_same_region(new, ref):
    assert new[0].tolist() == ref[0].tolist()
    assert new[1].tolist() == ref[1].tolist()
    assert new[2] == ref[2]


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
        cfg = PoleConfig(dim=6, poles=np.array(
            [[0.0] * 6, [1.5, 0.4, 0.0, 0.0, 0.0, 0.0]]
        ))
        return cfg, QuadratureSpec(
            pole_radius=min_pole_gap(cfg), far_radius=3.5, radial_levels=10,
            mc_samples=100_000, seed=3,
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
            quadrature._mid_region(integrands, two_poles_n3, lean_spec),
            reference_mid_region(integrands, two_poles_n3, lean_spec),
        )

    def test_matches_reference_with_three_poles(self, three_poles_n4, power_weight):
        spec = QuadratureSpec(
            pole_radius=0.6, far_radius=5.0, radial_levels=10,
            mc_samples=80_000, seed=3,
        )
        integrands = weighted_bumps(three_poles_n4, power_weight, 3)
        assert_same_region(
            quadrature._mid_region(integrands, three_poles_n4, spec),
            reference_mid_region(integrands, three_poles_n4, spec),
        )

    @pytest.mark.parametrize("case", ["enclosing", "n6", "nine_poles", "core_strata"])
    def test_matches_reference_on_edge_geometries(self, case, power_weight):
        """Skipping dead strata and the pole-by-pole partition change no
        bit, with the far sphere on a pole ball, in N = 6, with a pole
        axis numpy sums pairwise, and with strata inside a pole core."""
        cfg, spec = mid_geometry(case)
        integrands = weighted_bumps(cfg, power_weight, 2)
        assert_same_region(
            quadrature._mid_region(integrands, cfg, spec),
            reference_mid_region(integrands, cfg, spec),
        )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "case",
        ["mc_bump", "odd_grid", "enclosing", "core_strata", "n4", "n6", "nine_poles"],
    )
    def test_dead_strata_hold_no_node(self, case, seed):
        """Every node of a skipped stratum, in either antithetic half, is
        one that _mid_partition drops."""
        cfg, spec = mid_geometry(case)
        spec = dataclasses.replace(spec, seed=seed)
        dim, R = cfg.dim, spec.far_radius
        s = quadrature._strata_grid(dim, spec.mc_samples)
        C, h = s**dim, 2.0 * R / s
        grid = np.stack(
            np.meshgrid(*([np.arange(s)] * dim), indexing="ij"), axis=-1
        ).reshape(-1, dim)
        dead = np.setdiff1d(np.arange(C), quadrature._live_strata(cfg, spec, grid, h))
        assert dead.size > 0
        if case == "core_strata":
            centres = -R + (grid[dead] + 0.5) * h
            gaps = np.linalg.norm(centres[:, None, :] - cfg.poles[None], axis=2)
            assert np.any(gaps.min(axis=1) < spec.pole_radius)
        pairs = max(2, spec.mc_samples // (2 * C))
        rng = np.random.Generator(
            np.random.Philox(key=spec.seed ^ quadrature._REGION_MID)
        )
        u = rng.random((C * pairs, dim)).reshape(C, pairs, dim)[dead]
        for half in (u, 1.0 - u):
            pts = (-R + (grid[dead][:, None, :] + half) * h).reshape(-1, dim)
            mask, _, _ = quadrature._mid_partition(pts, cfg, spec)
            assert not mask.any()

    def test_partition_skips_dead_strata(self, two_poles_n3, lean_spec, monkeypatch):
        """Neither antithetic half partitions the whole box."""
        seen = []
        original = quadrature._mid_partition

        def counted(pts, cfg, spec):
            seen.append(pts.shape[0])
            return original(pts, cfg, spec)

        monkeypatch.setattr(quadrature, "_mid_partition", counted)
        _, _, C, pairs, _ = quadrature._mid_rule(two_poles_n3, lean_spec)
        assert len(seen) == 2
        assert max(seen) < C * pairs

    def test_matches_reference_across_worker_counts(
        self, two_poles_n3, lean_spec, monkeypatch
    ):
        import dataclasses

        spec = dataclasses.replace(lean_spec, mc_samples=600_000)
        _, halves, _, _, _ = quadrature._mid_rule(two_poles_n3, spec)
        assert all(pts.shape[0] > quadrature.CHUNK for _, pts, _ in halves)
        integrands = [Integrand(func=gaussian, pole_exponents=[0.0, 0.0])]
        runs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("MHARDY_WORKERS", workers)
            new = quadrature._mid_region(integrands, two_poles_n3, spec)
            assert_same_region(
                new, reference_mid_region(integrands, two_poles_n3, spec)
            )
            runs.append(new)
        assert_same_region(*runs)

    def test_geometry_is_built_once_per_call(
        self, two_poles_n3, lean_spec, unit_weight, monkeypatch
    ):
        calls = []
        original = quadrature._tail_partition_weight

        def counted(r, far_radius):
            calls.append(r.shape)
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
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


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


class TestBundle:
    @pytest.fixture()
    def sliced_spec(self):
        """Deep enough that a batch of 7 integrands needs several slices of
        pole shells and of mid-region cells."""
        return QuadratureSpec(
            pole_radius=0.9, far_radius=6.0, radial_levels=24,
            mc_samples=200_000, seed=5,
        )

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_rows_equal_separate_integrands(
        self, two_poles_n3, unit_weight, sliced_spec, monkeypatch, workers
    ):
        """Every integrand of a batch gives the value, errors, truncation
        flag and eta of the same integrand passed alone, bit for bit."""
        monkeypatch.setenv("MHARDY_WORKERS", workers)
        batch = mixed_integrands(two_poles_n3, unit_weight)
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
        assert [r.truncated for r in alone] == [False] * 4 + [True, False, True]
        # Two levels per pole ball, two antithetic halves: more calls than
        # that means the rules were cut into several slices.
        assert regions.count("pole") > 2 * two_poles_n3.n_poles
        assert regions.count("mid") > 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_every_integrand_sees_each_slice_in_turn(
        self, two_poles_n3, unit_weight, sliced_spec, monkeypatch, workers
    ):
        """Evaluation is slice-major: on each slice of nodes every integrand
        of the batch that takes part in the rule is called once, in batch
        order, on one thread, with the same array object, before the next
        slice.  A far-shell slice calls exactly the integrands of its
        support.  Every result still equals the same integrand alone."""
        monkeypatch.setenv("MHARDY_WORKERS", workers)
        mixed = mixed_integrands(two_poles_n3, unit_weight)
        # Unbounded and compact integrands interleaved.
        batch = [mixed[k] for k in (0, 3, 4, 1, 5, 2, 6)]
        calls = []  # (thread, slice array, batch index)
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
                calls.append((threading.get_ident(), pts, k, bool(far_pass)))
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

        runs, current = [], {}  # runs of calls on one thread with one array
        for thread, pts, k, far in calls:
            run = current.get(thread)
            if run is None or run[0] is not pts:
                run = current[thread] = (pts, [], far)
                runs.append(run)
            run[1].append(k)
        # No array is visited twice: each slice is one run, on one thread.
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
        dirs = unit_sphere_rule(3)[0].shape[0]
        nodes = (
            2 * two_poles_n3.n_poles * lean_spec.radial_levels
            * lean_spec.radial_order * dirs
            + lean_spec.mc_samples
        )
        monkeypatch.setattr(quadrature, "MAX_EVALS", 3 * nodes)
        batch = [Integrand(func=gaussian, pole_exponents=[0.0, 0.0])] * 4
        assert len(integrate_many(batch[:3], two_poles_n3, lean_spec)) == 3
        with pytest.raises(BudgetExceeded):
            integrate_many(batch, two_poles_n3, lean_spec)

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
            _, nodes = quadrature._shell_sums(batch, np.zeros(dim), edges, 8, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Less than half of what the points of the whole pass would take.
        assert peak < nodes * dim * 8 / 2

    @pytest.mark.parametrize("k", [1, 8, 64])
    def test_slices_bound_the_evaluation_size(self, two_poles_n3, sliced_spec, k):
        """In a batch of K integrands no func sees more than CHUNK // K
        points, or one shell or cell where that is larger: the peak memory
        of an evaluation stays flat in K."""
        sizes = []

        def func(pts):
            sizes.append(pts.shape[0])
            return np.ones(pts.shape[0])

        batch = [Integrand(func=func, pole_exponents=[0.0, 0.0]) for _ in range(k)]
        results = integrate_many(batch, two_poles_n3, sliced_spec)
        assert len(results) == k
        # The outermost pole shell is split in two panels at the fade onset.
        shell = 2 * sliced_spec.radial_order * unit_sphere_rule(3)[0].shape[0]
        _, _, _, pairs, _ = quadrature._mid_rule(two_poles_n3, sliced_spec)
        assert max(sizes) <= max(quadrature.CHUNK // k, shell, pairs)

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
