"""Pointwise field evaluators against naive reimplementations and FD oracles.

Every closed-form evaluator is checked against a deliberately simple
double-loop implementation written here, and every derivative against
central finite differences, so the vectorized einsum code in the package
never certifies itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipolar_hardy import (
    AtPole,
    HardyParams,
    PoleConfig,
    WeightSpec,
    cross_term_identity_gap,
    derive_params,
    hardy_factor,
    laplacian_ratio,
    potential_v,
    potential_w,
    resolution_guard,
    vector_field_f,
    weight_log_grad,
    weight_log_value,
    weight_value,
)

RNG = np.random.default_rng(97)


def random_instance(dim: int, n: int, rng=RNG) -> PoleConfig:
    return PoleConfig(dim=dim, poles=rng.uniform(-2.0, 2.0, size=(n, dim)))


def points_off_poles(cfg: PoleConfig, count: int, rng=RNG) -> np.ndarray:
    pts = []
    while len(pts) < count:
        x = rng.uniform(-3.0, 3.0, size=cfg.dim)
        if np.min(np.linalg.norm(cfg.poles - x, axis=1)) > 0.25:
            pts.append(x)
    return np.array(pts)


# --------------------------------------------------------------------------
# naive oracles
# --------------------------------------------------------------------------


def naive_v(x: np.ndarray, cfg: PoleConfig) -> float:
    total = 0.0
    for i in range(cfg.n_poles):
        for j in range(cfg.n_poles):
            if i == j:
                continue
            gap = np.linalg.norm(cfg.poles[i] - cfg.poles[j]) ** 2
            ri = np.linalg.norm(x - cfg.poles[i]) ** 2
            rj = np.linalg.norm(x - cfg.poles[j]) ** 2
            total += 0.5 * gap / (ri * rj)
    return total


def naive_mu(x: np.ndarray, cfg: PoleConfig, w: WeightSpec) -> float:
    if w.is_unit:
        return 1.0
    value = 1.0
    s = 0.0
    for a in cfg.poles:
        d = np.linalg.norm(x - a)
        value *= d**-w.gamma
        s += d**w.m
    return value * np.exp(-w.delta * s)


def naive_w(x: np.ndarray, cfg: PoleConfig, w: WeightSpec, p: HardyParams) -> float:
    """W = -beta sum_i [(x - a_i) . grad(mu)/mu - K_mu] / |x - a_i|^2."""
    grad_log = np.zeros(cfg.dim)
    if not w.is_unit:
        for a in cfg.poles:
            diff = x - a
            d = np.linalg.norm(diff)
            grad_log += -w.gamma * diff / d**2 - w.delta * w.m * d ** (w.m - 2) * diff
    total = 0.0
    for a in cfg.poles:
        diff = x - a
        total += (np.dot(diff, grad_log) - p.k_mu) / np.dot(diff, diff)
    return -p.beta * total


# --------------------------------------------------------------------------
# potential V
# --------------------------------------------------------------------------


class TestPotentialV:
    @pytest.mark.parametrize("dim,n", [(3, 2), (3, 4), (4, 3), (5, 2)])
    def test_matches_naive_double_loop(self, dim, n):
        cfg = random_instance(dim, n)
        pts = points_off_poles(cfg, 25)
        vals = potential_v(pts, cfg)
        expected = [naive_v(x, cfg) for x in pts]
        np.testing.assert_allclose(vals, expected, rtol=1e-12)

    def test_single_pole_vanishes(self):
        cfg = random_instance(4, 1)
        pts = points_off_poles(cfg, 10)
        assert np.all(potential_v(pts, cfg) == 0.0)

    def test_scalar_input_round_trip(self, two_poles_n3):
        x = np.array([0.5, 0.5, 0.5])
        assert np.isscalar(float(potential_v(x, two_poles_n3)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_near_pole_limit(self, n):
        """|x - a_i|^2 V -> n - 1 approaching any pole (1% after one
        Richardson step over t = 1e-1 ... 1e-5)."""
        cfg = random_instance(4, n, np.random.default_rng(5))
        direction = np.array([0.5, -0.5, 0.5, 0.5])
        for i in range(n):
            ts = 10.0 ** -np.arange(1.0, 6.0)
            pts = cfg.poles[i] + ts[:, None] * direction
            vals = ts**2 * potential_v(pts, cfg)
            extrap = vals[-1] + (vals[-1] - vals[-2]) * ts[-1] / (ts[-2] - ts[-1])
            assert extrap == pytest.approx(n - 1, rel=0.01)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        lam=st.floats(min_value=0.25, max_value=4.0),
    )
    def test_invariances(self, seed, lam):
        """Permutation and translation leave V fixed; scaling maps V to V/lam^2."""
        rng = np.random.default_rng(seed)
        cfg = random_instance(3, 3, rng)
        pts = points_off_poles(cfg, 5, rng)
        base = potential_v(pts, cfg)
        perm = rng.permutation(3)
        np.testing.assert_allclose(
            potential_v(pts, PoleConfig(dim=3, poles=cfg.poles[perm])),
            base,
            rtol=1e-12,
        )
        shift = rng.uniform(-1, 1, size=3)
        np.testing.assert_allclose(
            potential_v(pts + shift, PoleConfig(dim=3, poles=cfg.poles + shift)),
            base,
            rtol=1e-10,
        )
        np.testing.assert_allclose(
            potential_v(lam * pts, PoleConfig(dim=3, poles=lam * cfg.poles)) * lam**2,
            base,
            rtol=1e-10,
        )

    def test_at_pole_guard(self, two_poles_n3):
        guard = resolution_guard(two_poles_n3)
        with pytest.raises(AtPole):
            potential_v(np.array([0.0, 0.0, 0.1 * guard]), two_poles_n3)


class TestCrossTermIdentity:
    @pytest.mark.parametrize("dim,n", [(3, 2), (4, 3), (5, 4)])
    def test_gap_is_rounding_noise(self, dim, n):
        cfg = random_instance(dim, n)
        pts = points_off_poles(cfg, 50)
        gap = np.abs(cross_term_identity_gap(pts, cfg))
        dist = np.linalg.norm(pts[:, None, :] - cfg.poles[None, :, :], axis=2)
        scale = n * np.sum(1.0 / dist**2, axis=1) + 1.0
        assert np.max(gap / scale) < 1e-13


# --------------------------------------------------------------------------
# weight family
# --------------------------------------------------------------------------


class TestWeight:
    @pytest.mark.parametrize(
        "w",
        [
            WeightSpec.unit(),
            WeightSpec.polyexp(gamma=0.5),
            WeightSpec.polyexp(gamma=0.9, delta=0.3, m=2.0),
            WeightSpec.polyexp(gamma=0.0, delta=0.5, m=1.5),
        ],
    )
    def test_matches_naive(self, two_poles_n3, w):
        pts = points_off_poles(two_poles_n3, 20)
        vals = weight_value(pts, two_poles_n3, w)
        expected = [naive_mu(x, two_poles_n3, w) for x in pts]
        np.testing.assert_allclose(vals, expected, rtol=1e-12)

    def test_log_grad_matches_fd(self, three_poles_n4):
        w = WeightSpec.polyexp(gamma=0.8, delta=0.2, m=2.0)
        pts = points_off_poles(three_poles_n4, 10)
        grad = weight_log_grad(pts, three_poles_n4, w)
        h = 1e-6
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            fp = np.log(weight_value(pts + e, three_poles_n4, w))
            fm = np.log(weight_value(pts - e, three_poles_n4, w))
            np.testing.assert_allclose(grad[:, k], (fp - fm) / (2 * h), atol=1e-5)

    def test_value_is_exp_of_log_value_bitwise(self, two_poles_n3):
        w = WeightSpec.polyexp(gamma=0.7, delta=0.4, m=1.5)
        pts = points_off_poles(two_poles_n3, 50)
        vals = weight_value(pts, two_poles_n3, w)
        assert vals.tolist() == np.exp(weight_log_value(pts, two_poles_n3, w)).tolist()
        assert weight_value(pts[0], two_poles_n3, w) == vals[0]


# --------------------------------------------------------------------------
# perturbation W
# --------------------------------------------------------------------------


class TestPotentialW:
    @pytest.mark.parametrize(
        "w, k_mu",
        [
            (WeightSpec.polyexp(gamma=0.5), -0.6),
            (WeightSpec.polyexp(gamma=0.9, delta=0.3, m=2.0), -0.9),
            (WeightSpec.polyexp(gamma=0.0, delta=0.5, m=1.5), 0.2),
        ],
    )
    def test_matches_naive(self, two_poles_n3, w, k_mu):
        p = derive_params(two_poles_n3, k_mu)
        pts = points_off_poles(two_poles_n3, 20)
        vals = potential_w(pts, two_poles_n3, w, p)
        expected = [naive_w(x, two_poles_n3, w, p) for x in pts]
        np.testing.assert_allclose(vals, expected, rtol=1e-10, atol=1e-12)

    def test_unit_weight_is_exactly_zero(self, two_poles_n3):
        p = derive_params(two_poles_n3, 0.0)
        pts = points_off_poles(two_poles_n3, 10)
        assert np.all(potential_w(pts, two_poles_n3, WeightSpec.unit(), p) == 0.0)

    def test_single_pole_power_null_case_exact_zero_near_pole(self):
        """gamma-power weight with K_mu = -gamma: the bracket cancels
        algebraically, so W evaluates to exactly 0.0 even at distance 1e-9
        where a one-ulp residue would be amplified by 1/r^2."""
        cfg = PoleConfig(dim=4, poles=np.zeros((1, 4)))
        w = WeightSpec.polyexp(gamma=0.7)
        p = derive_params(cfg, -0.7)
        x = np.array([[1e-9, 0.0, 0.0, 0.0], [0.3, -0.2, 0.1, 0.0]])
        assert np.all(potential_w(x, cfg, w, p) == 0.0)

    def test_gaussian_factor_single_pole_is_constant(self):
        """For mu = exp(-delta |x|^2): W == 2 beta delta everywhere."""
        cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))
        w = WeightSpec.polyexp(gamma=0.0, delta=0.3, m=2.0)
        p = derive_params(cfg, 0.0)
        pts = points_off_poles(cfg, 10)
        np.testing.assert_allclose(
            potential_w(pts, cfg, w, p), 2.0 * p.beta * 0.3, rtol=1e-12
        )


# --------------------------------------------------------------------------
# Hardy factor calculus
# --------------------------------------------------------------------------


class TestHardyFactor:
    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.3])
    def test_value_matches_naive(self, three_poles_n4, beta):
        pts = points_off_poles(three_poles_n4, 15)
        vals, _ = hardy_factor(pts, three_poles_n4, beta)
        expected = [
            np.prod(
                [np.linalg.norm(x - a) ** -beta for a in three_poles_n4.poles]
            )
            for x in pts
        ]
        np.testing.assert_allclose(vals, expected, rtol=1e-12)

    @pytest.mark.parametrize("dim,n", [(3, 2), (4, 3), (5, 1)])
    def test_grad_ratio_matches_fd(self, dim, n):
        cfg = random_instance(dim, n)
        beta = 0.8
        pts = points_off_poles(cfg, 10)
        _, grad = hardy_factor(pts, cfg, beta)
        h = 1e-6
        fd = np.empty_like(grad)
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = h
            fp, _ = hardy_factor(pts + e, cfg, beta)
            fm, _ = hardy_factor(pts - e, cfg, beta)
            fd[:, k] = (np.log(fp) - np.log(fm)) / (2 * h)
        scale = np.linalg.norm(grad, axis=1, keepdims=True) + 1.0
        np.testing.assert_allclose(fd / scale, grad / scale, atol=1e-6)

    @pytest.mark.parametrize("dim,n", [(3, 2), (4, 3)])
    def test_laplacian_ratio_matches_fd(self, dim, n):
        cfg = random_instance(dim, n)
        beta = 0.6
        pts = points_off_poles(cfg, 10)
        lap = laplacian_ratio(pts, cfg, beta)
        f0, _ = hardy_factor(pts, cfg, beta)
        h = 2e-4
        acc = np.zeros(len(pts))
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = h
            acc += hardy_factor(pts + e, cfg, beta)[0]
            acc += hardy_factor(pts - e, cfg, beta)[0]
        fd = (acc - 2 * dim * f0) / (h * h) / f0
        np.testing.assert_allclose(fd, lap, rtol=1e-4, atol=1e-4)

    def test_laplacian_at_optimal_beta_is_potential(self, two_poles_n3):
        """At beta = (N-2)/n the Hardy factor satisfies Delta f = -beta^2 V f."""
        beta = (3 - 2) / 2
        pts = points_off_poles(two_poles_n3, 20)
        np.testing.assert_allclose(
            laplacian_ratio(pts, two_poles_n3, beta),
            -(beta**2) * potential_v(pts, two_poles_n3),
            rtol=1e-12,
        )

    def test_vector_field_is_minus_grad_ratio_times_mu(self, two_poles_n3):
        w = WeightSpec.polyexp(gamma=0.5)
        beta = 0.4
        pts = points_off_poles(two_poles_n3, 10)
        mu = weight_value(pts, two_poles_n3, w)
        _, grad = hardy_factor(pts, two_poles_n3, beta)
        np.testing.assert_allclose(
            vector_field_f(pts, two_poles_n3, w, beta),
            -grad * mu[:, None],
            rtol=1e-13,
        )
