"""Quadrature engine against closed forms and a scipy.integrate oracle.

Closed-form targets (Gaussian moments, power-law ball integrals, surface
measures) never go through the package's own pipeline, so agreement is
meaningful.  Determinism contracts are checked bitwise: the engine promises
identical output for identical (spec, integrand) regardless of batch
composition or worker count.
"""

import math

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
    PoleConfig,
    QuadratureSpec,
    integrate,
    integrate_many,
    integrate_pole_ball,
    integrate_radial_annulus,
    sphere_flux,
    sphere_surface_measure,
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
        """A ball indicator integrates to the ball volume and the importance
        tail contributes exactly nothing (support_radius declared)."""
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

    def test_rejects_mixed_support(self, two_poles_n3, lean_spec):
        a = Integrand(func=gaussian, pole_exponents=[0.0, 0.0], support_radius=3.0)
        b = Integrand(func=gaussian, pole_exponents=[0.0, 0.0])
        with pytest.raises(ValueError):
            integrate_many([a, b], two_poles_n3, lean_spec)

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
        "field,value", [("radial_levels", 3), ("mc_samples", 10)]
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
            out[mask] = quadrature._eval_chunks(f.func, pts[mask]) * weight[mask]
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
