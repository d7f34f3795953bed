"""Pointwise field evaluators against naive reimplementations and FD oracles.

Every closed-form evaluator is checked against a deliberately simple
double-loop implementation written here, and every derivative against
central finite differences, so the vectorized einsum code in the package
never certifies itself.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipolar_hardy import (
    AtPole,
    HardyParams,
    PoleConfig,
    PoleFrame,
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
from multipolar_hardy.fields import _length, _pole_sum

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
    def test_matches_naive(self, two_poles_n3, three_poles_n4, w, k_mu):
        """Off the poles and at 1e-3 from each pole; with three poles more
        than one other pole enters each bracket's cross term."""
        for cfg in (two_poles_n3, three_poles_n4):
            p = derive_params(cfg, k_mu)
            near = np.random.default_rng(3).normal(size=(cfg.n_poles, cfg.dim))
            near *= 1e-3 / np.linalg.norm(near, axis=1)[:, None]
            pts = np.vstack([points_off_poles(cfg, 20), cfg.poles + near])
            vals = potential_w(pts, cfg, w, p)
            expected = [naive_w(x, cfg, w, p) for x in pts]
            np.testing.assert_allclose(vals, expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize(
        "w, k_mu",
        [
            (WeightSpec.polyexp(gamma=0.5), -0.6),
            (WeightSpec.polyexp(gamma=0.9, delta=0.3, m=2.0), -0.9),
            (WeightSpec.polyexp(gamma=0.0, delta=0.5, m=1.5), 0.2),
        ],
    )
    def test_linear_in_beta_bitwise(self, two_poles_n3, w, k_mu):
        """W at beta is beta times W at 1, bit for bit: beta is applied
        last, to a beta-free sum, which is what lets one evaluation per
        node serve every exponent."""
        p = derive_params(two_poles_n3, k_mu)
        pts = np.vstack([
            points_off_poles(two_poles_n3, 50),
            two_poles_n3.poles + np.array([1e-3, 0.0, 0.0]),
        ])
        unit = potential_w(pts, two_poles_n3, w, dataclasses.replace(p, beta=1.0))
        for beta in [0.05, 0.1, 0.15, 0.2, p.beta]:
            params = dataclasses.replace(p, beta=beta)
            assert np.array_equal(
                potential_w(pts, two_poles_n3, w, params), beta * unit
            )

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


# --------------------------------------------------------------------------
# the pole frame shared by the kernels
# --------------------------------------------------------------------------


FRAME_WEIGHTS = {
    "unit": WeightSpec.unit(),
    "gamma": WeightSpec.polyexp(gamma=0.5),
    "delta_m_below_2": WeightSpec.polyexp(gamma=0.0, delta=0.5, m=1.5),
}


def frame_kernels(cfg: PoleConfig, w: WeightSpec):
    """Every kernel of `fields`, as a function of its point argument."""
    p = derive_params(cfg, -0.3)
    return {
        "weight_value": lambda x: weight_value(x, cfg, w),
        "weight_log_value": lambda x: weight_log_value(x, cfg, w),
        "weight_log_grad": lambda x: weight_log_grad(x, cfg, w),
        "potential_v": lambda x: potential_v(x, cfg),
        "potential_w": lambda x: potential_w(x, cfg, w, p),
        "hardy_factor": lambda x: hardy_factor(x, cfg, 0.7),
        "laplacian_ratio": lambda x: laplacian_ratio(x, cfg, 0.7),
        "vector_field_f": lambda x: vector_field_f(x, cfg, w, 0.7),
        "cross_term_identity_gap": lambda x: cross_term_identity_gap(x, cfg),
    }


def as_bytes(value) -> list[tuple]:
    """Shape and bytes of a kernel's value (of each part of a tuple)."""
    parts = value if isinstance(value, tuple) else (value,)
    return [(np.shape(v), np.asarray(v).tobytes()) for v in parts]


class TestPoleFrame:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
    def test_length_is_linalg_norm_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        scales = 10.0 ** rng.uniform(-8, 3, size=(400, 1))
        flat = rng.standard_normal((400, dim)) * scales
        stacked = flat.reshape(100, 4, dim)
        for v in (flat, stacked):
            assert _length(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_pole_sum_is_np_sum_bit_for_bit(self, n):
        """Up to 7 poles the running column sum is numpy's reduction over
        the pole axis, on terms of mixed sign spanning 22 decades."""
        rng = np.random.default_rng(n)
        scales = 10.0 ** rng.uniform(-11, 11, size=(2000, n))
        a = rng.standard_normal((2000, n)) * scales
        # Signed zeros: rows of -0 only, of +0 only, and mixed.
        zeros = rng.choice([-0.0, 0.0], size=(200, n))
        zeros[:50] = -0.0
        zeros[50:100] = 0.0
        sprinkled = np.where(rng.random((200, n)) < 0.5, zeros, a[:200])
        for v in (a, zeros, sprinkled):
            assert _pole_sum(v).tobytes() == np.sum(v, axis=1).tobytes()

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7])
    def test_frame_is_the_broadcast_difference_bit_for_bit(self, dim, n):
        """The column-by-column frame holds the broadcast differences and
        their `_length`, signed zeros included."""
        rng = np.random.default_rng(10 * dim + n)
        poles = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 2, (n, 1))
        poles[0, 0] = -0.0
        poles[-1, -1] = 0.0
        cfg = PoleConfig(dim=dim, poles=poles)
        pts = rng.standard_normal((300, dim)) * 10.0 ** rng.uniform(-8, 3, (300, 1))
        # Points on a pole coordinate and at +-0, so differences of -0 and +0.
        pts[:20] = poles[rng.integers(n, size=20)]
        pts[20:40] = rng.choice([-0.0, 0.0], size=(20, dim))
        frame = PoleFrame(pts, cfg)
        diffs = pts[:, None, :] - poles[None, :, :]
        assert frame.diffs.tobytes() == diffs.tobytes()
        assert frame.dist.tobytes() == _length(diffs).tobytes()
        assert frame.diffs.shape == diffs.shape and frame.dist.shape == (300, n)

    @pytest.mark.parametrize("weight", sorted(FRAME_WEIGHTS))
    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7])
    def test_kernels_on_a_frame_equal_kernels_on_points(self, dim, weight):
        rng = np.random.default_rng(40 + dim)
        cfg = random_instance(dim, 3, rng)
        pts = points_off_poles(cfg, 30, rng)
        for name, kernel in frame_kernels(cfg, FRAME_WEIGHTS[weight]).items():
            frame = PoleFrame(pts, cfg)
            assert as_bytes(kernel(frame)) == as_bytes(kernel(pts)), name
            single = kernel(PoleFrame(pts[4], cfg))
            assert as_bytes(single) == as_bytes(kernel(pts[4])), name

    def test_shape_is_that_of_the_points(self, three_poles_n4):
        pts = points_off_poles(three_poles_n4, 7)
        frame = PoleFrame(pts, three_poles_n4)
        assert np.shape(frame) == (7, 4)
        assert frame.diffs.shape == (7, 3, 4) and frame.dist.shape == (7, 3)
        assert np.shape(PoleFrame(pts[0], three_poles_n4)) == (1, 4)

    def test_guarded_kernels_check_the_frame(self, two_poles_n3):
        guard = resolution_guard(two_poles_n3)
        pts = np.array([[0.5, 0.5, 0.5], [2.0, 0.0, 0.1 * guard]])
        frame = PoleFrame(pts, two_poles_n3)
        p = derive_params(two_poles_n3, 0.0)
        w = WeightSpec.polyexp(gamma=0.5)
        guarded = [
            lambda x: potential_v(x, two_poles_n3),
            lambda x: potential_w(x, two_poles_n3, w, p),
            lambda x: hardy_factor(x, two_poles_n3, 0.5),
            lambda x: weight_value(x, two_poles_n3, w),
        ]
        for kernel in guarded:
            with pytest.raises(AtPole):
                kernel(frame)
        unit = weight_value(frame, two_poles_n3, WeightSpec.unit())
        assert unit.tolist() == [1.0, 1.0]
