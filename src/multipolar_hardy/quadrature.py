"""Quadrature over R^N for integrands with point singularities at the poles.

The domain is split into three kinds of regions, integrated independently
and summed with compensated summation in a fixed order:

(a) a ball B(a_i, pole_radius) around each pole, in spherical coordinates
    centred at the pole: geometrically graded radial shells
    [r_{k+1}, r_k], r_k = pole_radius * 2^-k, k = 0 .. radial_levels-1,
    Gauss-Legendre in radius within each shell, and a fixed product
    Gauss-Jacobi x trapezoid rule in the angles.  For a declared pole
    exponent p < N the per-shell sums decay geometrically and the unresolved
    inner ball is restored by summing the geometric tail; at the borderline
    p == N the integral is only defined as a truncation at the innermost
    radius eta (callers must opt in via Integrand.allow_truncation).

(b) the bounded complement B(0, far_radius) minus the pole balls, by
    stratified Monte Carlo over an axis-aligned grid of the enclosing box
    with antithetic pairs and the pair budget split evenly over the cells.

(c) the far field beyond far_radius: importance-sampled Monte Carlo with
    density proportional to |x|^-(N+tail_exponent) for integrands of
    unbounded support, or log-spaced radial shells with the same product
    angular rule up to the declared support radius for compactly supported
    integrands (a power-law importance density cannot cover an integrand
    that decays slower than |x|^-N, which compactly supported optimality
    sequences do before their cutoff).

The regions are joined by a smooth partition of unity rather than sharp
indicators: a quintic collar fades each pole ball out over the outer 30%
of its radius and fades the tail in over [0.8, 1.0] * far_radius.  Sharp
region boundaries would put an O(1) discontinuity into the Monte Carlo
integrand and dominate its variance; with the blended split every MC
integrand is as smooth as the field itself, and the deterministic rules
absorb the collars exactly.

Each region's geometry -- nodes, quadrature weights, partition-of-unity
weights and the pole-core mask of region (b) -- is built once per
integrate_many call and shared by every integrand of the batch; the work
per integrand is evaluation at the stored nodes plus the reduction.  The
deterministic rules (pole balls, far shells, integrate_radial_annulus)
estimate their error as the difference between a high and a low order
of the same rule.

Determinism: all Monte Carlo streams are Philox counter-based substreams
derived from (seed, region), partial sums are reduced in a fixed order
with math.fsum, and worker parallelism only maps evaluation chunks, so
results are reproducible for a fixed seed regardless of scheduling.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_jacobi

from .config import PoleConfig, enclosing_radius, min_pole_gap, resolution_guard
from .errors import BudgetExceeded, ConfigError, NonIntegrableSingularity

__all__ = [
    "QuadratureSpec",
    "Integrand",
    "IntegralResult",
    "sphere_surface_measure",
    "unit_sphere_rule",
    "local_integrability_check",
    "integrate",
    "integrate_many",
    "integrate_radial_annulus",
    "integrate_pole_ball",
    "sphere_flux",
]

# Hard cap on field evaluations per integrate() call.
MAX_EVALS = 1 << 29

# Evaluation chunk size; fixed so that worker count cannot change results.
CHUNK = 1 << 17

# Default polar-angle orders per ambient dimension (azimuth gets twice this).
_ANGULAR_ORDER = {3: 10, 4: 8, 5: 6, 6: 5, 7: 4, 8: 4}

_REGION_POLE, _REGION_MID, _REGION_TAIL = 11, 13, 17


def worker_count() -> int:
    """Worker threads for evaluation chunks (MHARDY_WORKERS, default 1).

    A value that is not a positive integer raises ConfigError.
    """
    raw = os.environ.get("MHARDY_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"MHARDY_WORKERS must be a positive integer, got {raw!r}")
    return workers


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of the domain decomposition.

    pole_radius   radius of the graded ball around each pole (<= min_pole_gap)
    far_radius    outer radius of the stratified-MC region; the tail starts here
    radial_levels geometric shell count per pole ball (>= 4)
    mc_samples    total sample budget for the stratified-MC region (>= 1e3)
    seed          64-bit seed for every stochastic region
    tail_exponent assumed decay rate s in |x|^-(N+s) beyond far_radius
    radial_order  Gauss-Legendre points per radial shell
    """

    pole_radius: float
    far_radius: float
    radial_levels: int
    mc_samples: int
    seed: int
    tail_exponent: float = 2.0
    radial_order: int = 8


@dataclass
class Integrand:
    """A pointwise evaluator plus the metadata quadrature needs.

    func            callable mapping points (M, N) -> values (M,)
    pole_exponents  declared growth |x - a_i|^-p_i near each pole
    support_radius  None for unbounded support, else the integrand vanishes
                    for |x| > support_radius
    allow_truncation  permit borderline exponents p_i == N; the pole ball is
                    then integrated only down to the innermost shell radius
                    and the result flagged as truncated
    """

    func: Callable[[np.ndarray], np.ndarray]
    pole_exponents: Sequence[float]
    support_radius: float | None = None
    allow_truncation: bool = False
    name: str = ""


@dataclass
class IntegralResult:
    """Value with separated error channels.

    stderr is the statistical error of the Monte Carlo regions; trunc_bound
    collects the deterministic estimates (two-level differences of the
    product rules, geometric-tail extrapolation uncertainty).  truncated is
    set when a borderline pole exponent left the innermost ball unresolved;
    eta is the innermost resolved radius (the truncation scale).
    """

    value: float
    stderr: float
    trunc_bound: float
    cells: int
    truncated: bool = False
    eta: float = 0.0


def sphere_surface_measure(dim: int) -> float:
    """Surface measure of the unit sphere: omega_N = 2 pi^(N/2) / Gamma(N/2)."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@lru_cache(maxsize=32)
def _sphere_rule_cached(dim: int, order: int):
    """Product cubature on S^(dim-1); weights sum to omega_dim.

    Recursive construction: the first polar angle contributes a Gauss-Jacobi
    rule in t = cos(theta) with weight (1 - t^2)^((dim-3)/2), the remaining
    sphere factor recurses, and S^1 is the equally weighted trapezoid rule
    (exact for trigonometric polynomials).
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if dim == 2:
        q = 2 * order
        ang = 2.0 * np.pi * np.arange(q) / q
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        wts = np.full(q, 2.0 * np.pi / q)
        return dirs, wts
    alpha = (dim - 3) / 2.0
    t, wt = roots_jacobi(order, alpha, alpha)
    sub_dirs, sub_wts = _sphere_rule_cached(dim - 1, order)
    s = np.sqrt(1.0 - t**2)
    dirs = np.empty((order, sub_dirs.shape[0], dim))
    dirs[:, :, 0] = t[:, None]
    dirs[:, :, 1:] = s[:, None, None] * sub_dirs[None, :, :]
    wts = wt[:, None] * sub_wts[None, :]
    return dirs.reshape(-1, dim), wts.reshape(-1)


def unit_sphere_rule(dim: int, order: int | None = None):
    """Directions and weights of the product angular rule on S^(dim-1)."""
    if order is None:
        order = _ANGULAR_ORDER.get(dim, 4)
    dirs, wts = _sphere_rule_cached(dim, order)
    return dirs, wts


def local_integrability_check(exponents: Sequence[float], dim: int) -> None:
    """Require r^(N-1-p) integrable at r = 0 for every declared exponent.

    Passes iff p < N strictly for each pole; the borderline p == N already
    diverges logarithmically and is rejected here (truncated evaluation is a
    separate opt-in on the Integrand).
    """
    for i, p in enumerate(exponents):
        if not p < dim - 1e-12:
            raise NonIntegrableSingularity(
                f"pole {i}: integrand grows like r^-{p} with N = {dim}; "
                f"needs p < N"
            )


def _as_integrand(field, cfg: PoleConfig) -> Integrand:
    if isinstance(field, Integrand):
        if len(field.pole_exponents) != cfg.n_poles:
            raise ValueError(
                f"pole_exponents has {len(field.pole_exponents)} entries "
                f"for {cfg.n_poles} poles"
            )
        return field
    return Integrand(func=field, pole_exponents=[0.0] * cfg.n_poles)


def _validate_spec(cfg: PoleConfig, spec: QuadratureSpec) -> None:
    if spec.pole_radius <= 0:
        raise ConfigError(f"pole_radius must be > 0, got {spec.pole_radius}")
    if cfg.n_poles >= 2 and spec.pole_radius > min_pole_gap(cfg) * (1 + 1e-12):
        raise ConfigError(
            f"pole_radius {spec.pole_radius} exceeds min_pole_gap "
            f"{min_pole_gap(cfg)}; pole balls must be disjoint"
        )
    if spec.radial_levels < 4:
        raise ConfigError(f"radial_levels must be >= 4, got {spec.radial_levels}")
    if spec.mc_samples < 1000:
        raise ConfigError(f"mc_samples must be >= 1e3, got {spec.mc_samples}")
    if spec.far_radius < enclosing_radius(cfg, spec.pole_radius):
        raise ConfigError(
            f"far_radius {spec.far_radius} does not enclose the pole balls "
            f"(need >= {enclosing_radius(cfg, spec.pole_radius)})"
        )
    eta = spec.pole_radius * 2.0 ** (-spec.radial_levels)
    if eta <= 2.0 * resolution_guard(cfg):
        raise ConfigError(
            f"innermost shell radius {eta:.3e} is inside the pole resolution "
            f"guard; reduce radial_levels"
        )


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """Quintic smoothstep: 0 for t <= 0, 1 for t >= 1, C^2 in between."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


# Collar geometry of the partition of unity.
_POLE_FADE_START = 0.7  # pole weight is 1 inside this fraction of pole_radius
_TAIL_RISE_START = 0.8  # tail weight rises from this fraction of far_radius


def _pole_partition_weight(r: np.ndarray, pole_radius: float) -> np.ndarray:
    """Weight of the pole-ball region at distance r from its pole."""
    span = (1.0 - _POLE_FADE_START) * pole_radius
    return 1.0 - _smoothstep((r - _POLE_FADE_START * pole_radius) / span)


def _tail_partition_weight(r: np.ndarray, far_radius: float) -> np.ndarray:
    """Weight of the far-tail region at distance r from the origin."""
    span = (1.0 - _TAIL_RISE_START) * far_radius
    return _smoothstep((r - _TAIL_RISE_START * far_radius) / span)


def _eval_chunks(func, pts: np.ndarray) -> np.ndarray:
    """Evaluate func over fixed-size chunks, optionally with worker threads."""
    if pts.shape[0] == 0:
        return np.zeros(0)
    chunks = [pts[i : i + CHUNK] for i in range(0, pts.shape[0], CHUNK)]
    workers = worker_count()
    if workers == 1 or len(chunks) == 1:
        out = [np.asarray(func(c), dtype=float) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            out = [np.asarray(v, dtype=float) for v in ex.map(func, chunks)]
    return np.concatenate(out)


def _radial_shell_nodes(edges: np.ndarray, order: int, dim: int):
    """Gauss-Legendre nodes/weights (with r^(N-1)) for a set of shells.

    edges is decreasing, shape (L+1,); returns r (L, order) and w (L, order)
    such that sum_q w[l, q] g(r[l, q]) ~ integral of g(r) r^(N-1) dr over
    shell l.
    """
    xi, wq = np.polynomial.legendre.leggauss(order)
    hi, lo = edges[:-1], edges[1:]
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    r = mid[:, None] + half[:, None] * xi[None, :]
    w = half[:, None] * wq[None, :] * r ** (dim - 1)
    return r, w


def _pole_ball_pass(
    integrands, cfg, center, radius, levels, radial_order, angular_order,
    fade: bool = True,
):
    """Shell-by-shell sums over one graded pole ball.

    With fade=True the partition-of-unity collar is applied, so the pass
    contributes integral of f * psi_pole over the ball; fade=False gives
    the raw ball (used for whole-ball integrals such as the H3 check).
    Returns per-integrand per-shell sums, shape (K, L), ordered outermost
    shell first, plus the evaluation count.
    """
    dim = cfg.dim
    edges = radius * 2.0 ** (-np.arange(levels + 1, dtype=float))
    shell_of_panel = np.arange(levels)
    if fade:
        # The collar weight is only piecewise-smooth at the fade onset;
        # split the outermost shell there so each Gauss panel sees an
        # analytic integrand.
        edges = np.insert(edges, 1, _POLE_FADE_START * radius)
        shell_of_panel = np.insert(shell_of_panel, 0, 0)
    r, w = _radial_shell_nodes(edges, radial_order, dim)
    if fade:
        w = w * _pole_partition_weight(r, radius)
    dirs, wa = unit_sphere_rule(dim, angular_order)
    pts = center[None, None, None, :] + r[:, :, None, None] * dirs[None, None, :, :]
    pts = pts.reshape(-1, dim)
    wts = (w[:, :, None] * wa[None, None, :]).reshape(-1)
    shells = np.repeat(shell_of_panel, radial_order * dirs.shape[0])
    sums = np.empty((len(integrands), levels))
    for k, f in enumerate(integrands):
        vals = _eval_chunks(f.func, pts) * wts
        sums[k] = np.bincount(shells, weights=vals, minlength=levels)
    return sums, pts.shape[0]


def _inner_closure(shell_sums: np.ndarray, p: float, dim: int, truncate: bool):
    """Close the unresolved inner ball from the graded-shell geometric decay.

    For a strict exponent p < N the per-shell sums S_k approach a geometric
    sequence with ratio 2^-(N-p); the inner ball is the sum of the remaining
    octaves.  The measured ratio of the last shells is used when it is
    stable and contracting, the declared ratio otherwise.  Returns
    (inner_value, error_estimate, truncated_flag).
    """
    s_last = shell_sums[-1]
    if truncate:
        # Borderline p == N: the inner ball diverges; leave it out and
        # report the last resolved shell as the truncation scale.
        return 0.0, 0.0, True
    rho_decl = 2.0 ** (-(dim - p))
    rho = rho_decl
    if len(shell_sums) >= 3 and shell_sums[-2] != 0.0 and shell_sums[-3] != 0.0:
        r1 = shell_sums[-1] / shell_sums[-2]
        r2 = shell_sums[-2] / shell_sums[-3]
        if 0.0 < r1 < 0.95 and 0.0 < r2 < 0.95:
            rho = r1
            inner = s_last * rho / (1.0 - rho)
            alt = s_last * r2 / (1.0 - r2)
            return inner, abs(inner - alt), False
    if not 0.0 < rho < 0.95:
        # Sign-changing or non-contracting shells with a benign declared
        # exponent: the inner ball is at most one more octave's worth.
        return 0.0, abs(s_last), False
    inner = s_last * rho / (1.0 - rho)
    return inner, 0.5 * abs(inner), False


def _two_level(rule, dim: int, radial_order: int, angular_order: int | None = None):
    """Run a deterministic product rule at a high and a derived low order.

    rule(radial_order, angular_order) returns (sums, nodes).  The low level
    drops three radial points and a third of the angular order; callers
    take the hi-minus-lo difference as the rule's error estimate.  Returns
    (hi_sums, lo_sums, nodes of both levels).
    """
    order_hi = angular_order or _ANGULAR_ORDER.get(dim, 4)
    hi, n_hi = rule(radial_order, order_hi)
    lo, n_lo = rule(max(4, radial_order - 3), max(3, (2 * order_hi) // 3))
    return hi, lo, n_hi + n_lo


def _pole_region(integrands, cfg, spec):
    """Region (a): all pole balls, with a two-level error estimate."""
    dim = cfg.dim
    K = len(integrands)
    values = np.zeros(K)
    truncs = np.zeros(K)
    truncated = [False] * K
    cells = 0
    for i in range(cfg.n_poles):
        center = cfg.poles[i]
        hi, lo, n = _two_level(
            lambda q, order: _pole_ball_pass(
                integrands, cfg, center, spec.pole_radius, spec.radial_levels, q, order
            ),
            dim,
            spec.radial_order,
        )
        cells += n
        for k, f in enumerate(integrands):
            p = float(f.pole_exponents[i])
            borderline = p >= dim - 1e-9
            inner_hi, err_inner, trunc_flag = _inner_closure(hi[k], p, dim, borderline)
            inner_lo, _, _ = _inner_closure(lo[k], p, dim, borderline)
            val_hi = math.fsum(hi[k]) + inner_hi
            val_lo = math.fsum(lo[k]) + inner_lo
            values[k] += val_hi
            truncs[k] += abs(val_hi - val_lo) + err_inner
            truncated[k] = truncated[k] or trunc_flag
    eta = spec.pole_radius * 2.0 ** (-spec.radial_levels)
    return values, truncs, truncated, eta, cells


def _strata_grid(dim: int, mc_samples: int):
    caps = {3: 32, 4: 16, 5: 8, 6: 6}
    cap = caps.get(dim, 4)
    s = int(round((mc_samples / 48.0) ** (1.0 / dim)))
    return int(np.clip(s, 2, cap))


def _mid_partition(pts, cfg, spec):
    """Mid-region partition weight at box points, kept where it is nonzero.

    Returns (mask, pts[mask], weight[mask]); the mask drops the pole cores
    (where the pole weight is 1) and every point of zero weight.
    """
    r0 = np.linalg.norm(pts, axis=1)
    weight = 1.0 - _tail_partition_weight(r0, spec.far_radius)
    # One pole at a time: an (n, P, N) difference array would set the peak
    # memory of the whole integrate_many call.
    dist = np.empty((pts.shape[0], cfg.n_poles))
    for i, pole in enumerate(cfg.poles):
        dist[:, i] = np.linalg.norm(pts - pole, axis=1)
    weight = weight - _pole_partition_weight(dist, spec.pole_radius).sum(axis=1)
    core = _POLE_FADE_START * spec.pole_radius
    mask = (np.min(dist, axis=1) > core) & (weight != 0.0)
    return mask, pts[mask], weight[mask]


def _mid_rule(cfg, spec):
    """Node set of region (b), built once per integrate_many call.

    Samples come in antithetic pairs (u, 1-u) within each cell.  The pair
    budget is split evenly over the cells, so the node set is a pure
    function of the spec and the geometry -- in particular it does not
    depend on which integrands share the batch, and Gram-type computations
    reuse identical nodes across runs with different batch compositions.

    Returns (reps, halves, cells, pairs, cell_vol): reps maps each pair to
    its cell index in range(cells), and halves holds the _mid_partition of
    the u points and of the 1-u points.  Only the masked points and
    weights are kept; the offsets and full-size temporaries are released
    once both halves are built.
    """
    dim = cfg.dim
    R = spec.far_radius
    s = _strata_grid(dim, spec.mc_samples)
    C = s**dim
    h = 2.0 * R / s

    # Cell index -> integer grid coordinates, fixed C-order.
    grid = np.stack(
        np.meshgrid(*([np.arange(s)] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)

    pairs = max(2, spec.mc_samples // (2 * C))
    rng = np.random.Generator(np.random.Philox(key=spec.seed ^ _REGION_MID))
    u = rng.random((C * pairs, dim))
    reps = np.repeat(np.arange(C), pairs)
    first = _mid_partition(-R + (grid[reps] + u) * h, cfg, spec)
    np.subtract(1.0, u, out=u)
    second = _mid_partition(-R + (grid[reps] + u) * h, cfg, spec)
    return reps, (first, second), C, pairs, h**dim


def _mid_region(integrands, cfg, spec):
    """Region (b): stratified MC over the blended bounded complement.

    Antithetic pairs cancel the linear part of smooth integrands; the
    variance estimate treats pair averages as the iid unit.  Every
    integrand is evaluated on the one node set of _mid_rule.
    """
    reps, halves, C, pairs, cell_vol = _mid_rule(cfg, spec)
    K = len(integrands)
    values = np.zeros(K)
    stderrs = np.zeros(K)
    for k, f in enumerate(integrands):
        half_vals = np.zeros((2, reps.shape[0]))
        for out, (mask, pts, weight) in zip(half_vals, halves):
            out[mask] = _eval_chunks(f.func, pts) * weight
        vals = 0.5 * (half_vals[0] + half_vals[1])
        sums = np.bincount(reps, weights=vals, minlength=C)
        sumsq = np.bincount(reps, weights=vals**2, minlength=C)
        mean = sums / pairs
        var = np.maximum(0.0, sumsq / pairs - mean**2)
        # Unbiased variance of the cell mean over antithetic pairs.
        var_mean = var / (pairs - 1)
        values[k] = cell_vol * math.fsum(mean)
        stderrs[k] = cell_vol * math.sqrt(math.fsum(var_mean))
    return values, stderrs, int(2 * C * pairs)


def _far_shells(integrands, dim, r_in, r_out, radial_order, angular_order,
                radial_weight=None):
    """Origin-centred log-spaced shells covering [r_in, r_out]."""
    n_shells = max(1, int(math.ceil(2.0 * math.log2(r_out / r_in))))
    edges = r_in * (r_out / r_in) ** (np.arange(n_shells + 1) / n_shells)
    edges = edges[::-1].copy()  # decreasing, as _radial_shell_nodes expects
    r, w = _radial_shell_nodes(edges, radial_order, dim)
    if radial_weight is not None:
        w = w * radial_weight(r)
    dirs, wa = unit_sphere_rule(dim, angular_order)
    pts = (r[:, :, None, None] * dirs[None, None, :, :]).reshape(-1, dim)
    wts = (w[:, :, None] * wa[None, None, :]).reshape(-1)
    out = np.empty(len(integrands))
    for k, f in enumerate(integrands):
        vals = _eval_chunks(f.func, pts)
        out[k] = math.fsum(vals * wts)
    return out, pts.shape[0]


def _tail_region(integrands, cfg, spec):
    """Region (c) for unbounded integrands: importance-sampled MC.

    Integrates f * psi_tail over |x| > 0.8 * far_radius (the collar where
    the tail weight rises, plus everything beyond).  Sampling density
    p(x) = s R_t^s / (omega_N |x|^(N+s)) with s = tail_exponent and
    R_t = 0.8 * far_radius; radii via inverse CDF, directions uniform.
    """
    dim = cfg.dim
    R_t = _TAIL_RISE_START * spec.far_radius
    s = spec.tail_exponent
    if s <= 0:
        raise ConfigError(
            f"tail_exponent must be > 0 for unbounded integrands, got {s}"
        )
    n = max(1000, spec.mc_samples // 8)
    rng = np.random.Generator(np.random.Philox(key=spec.seed ^ _REGION_TAIL))
    u = rng.random(n)
    radii = R_t * (1.0 - u) ** (-1.0 / s)
    normal = rng.standard_normal((n, dim))
    dirs = normal / np.linalg.norm(normal, axis=1, keepdims=True)
    pts = radii[:, None] * dirs
    omega = sphere_surface_measure(dim)
    inv_density = omega * radii ** (dim + s) / (s * R_t**s)
    rise = _tail_partition_weight(radii, spec.far_radius)
    values = np.empty(len(integrands))
    stderrs = np.empty(len(integrands))
    for k, f in enumerate(integrands):
        est = _eval_chunks(f.func, pts) * rise * inv_density
        values[k] = math.fsum(est) / n
        var = float(np.var(est, ddof=1)) if n > 1 else 0.0
        stderrs[k] = math.sqrt(var / n)
    return values, stderrs, n


def integrate_many(fields, cfg: PoleConfig, spec: QuadratureSpec):
    """Integrate several integrands on one shared domain decomposition.

    All integrands must declare the same support_radius (the decomposition
    geometry depends on it); pole exponents may differ per integrand.
    Returns a list of IntegralResult in input order.
    """
    integrands = [_as_integrand(f, cfg) for f in fields]
    _validate_spec(cfg, spec)
    supports = {f.support_radius for f in integrands}
    if len(supports) != 1:
        raise ValueError("integrate_many needs a common support_radius")
    support = supports.pop()

    for f in integrands:
        if f.allow_truncation:
            for i, p in enumerate(f.pole_exponents):
                if p > cfg.dim + 1e-9:
                    raise NonIntegrableSingularity(
                        f"pole {i}: exponent {p} exceeds N = {cfg.dim}; "
                        f"divergence is polynomial, not truncatable"
                    )
        else:
            local_integrability_check(f.pole_exponents, cfg.dim)

    dim = cfg.dim
    dirs_count = unit_sphere_rule(dim)[0].shape[0]
    est_nodes = (
        2 * cfg.n_poles * spec.radial_levels * spec.radial_order * dirs_count
        + spec.mc_samples
        + max(1000, spec.mc_samples // 8)
    )
    est_nodes *= len(integrands)
    if est_nodes > MAX_EVALS:
        raise BudgetExceeded(
            f"about {est_nodes:.2e} evaluations requested; cap is {MAX_EVALS:.2e}"
        )

    pole_vals, pole_truncs, truncated, eta, cells_a = _pole_region(
        integrands, cfg, spec
    )
    mid_vals, mid_errs, cells_b = _mid_region(integrands, cfg, spec)

    far_vals = np.zeros(len(integrands))
    far_errs = np.zeros(len(integrands))
    far_truncs = np.zeros(len(integrands))
    cells_c = 0
    r_t = _TAIL_RISE_START * spec.far_radius
    if support is not None:
        if support > r_t:
            # The rise weight clamps to 1 at far_radius; integrate the
            # collar and the plateau beyond it as separate shell stacks so
            # no Gauss panel straddles the seam.
            rise = lambda r: _tail_partition_weight(r, spec.far_radius)
            pieces = [(r_t, min(support, spec.far_radius), rise)]
            if support > spec.far_radius:
                pieces.append((spec.far_radius, support, None))
            for r_in, r_out, wgt in pieces:
                hi, lo, n = _two_level(
                    lambda q, order: _far_shells(
                        integrands, dim, r_in, r_out, q, order, radial_weight=wgt
                    ),
                    dim,
                    spec.radial_order,
                )
                far_vals += hi
                far_truncs += np.abs(hi - lo)
                cells_c += n
    else:
        far_vals, far_errs, cells_c = _tail_region(integrands, cfg, spec)

    results = []
    for k in range(len(integrands)):
        value = math.fsum([pole_vals[k], mid_vals[k], far_vals[k]])
        stderr = math.hypot(mid_errs[k], far_errs[k])
        trunc = pole_truncs[k] + far_truncs[k]
        results.append(
            IntegralResult(
                value=value,
                stderr=stderr,
                trunc_bound=trunc,
                cells=cells_a + cells_b + cells_c,
                truncated=truncated[k],
                eta=eta if truncated[k] else 0.0,
            )
        )
    return results


def integrate(field, cfg: PoleConfig, spec: QuadratureSpec) -> IntegralResult:
    """Integrate one field over R^N; see the module docstring for the scheme."""
    return integrate_many([field], cfg, spec)[0]


def integrate_radial_annulus(
    func,
    dim: int,
    r_in: float,
    r_out: float,
    radial_order: int = 8,
    angular_order: int | None = None,
) -> IntegralResult:
    """Deterministic product rule over the annulus r_in <= |x| <= r_out.

    Used for integrands supported on an origin-centred annulus (cutoff
    gradients); the error estimate is a two-level difference.
    """
    if not 0 < r_in < r_out:
        raise ValueError(f"need 0 < r_in < r_out, got ({r_in}, {r_out})")
    f = Integrand(func=func, pole_exponents=[])
    hi, lo, n = _two_level(
        lambda q, order: _far_shells([f], dim, r_in, r_out, q, order),
        dim,
        radial_order,
        angular_order,
    )
    return IntegralResult(
        value=float(hi[0]),
        stderr=0.0,
        trunc_bound=float(abs(hi[0] - lo[0])),
        cells=n,
    )


def integrate_pole_ball(
    func,
    cfg: PoleConfig,
    pole_index: int,
    radius: float,
    levels: int,
    exponent: float,
    radial_order: int = 8,
) -> IntegralResult:
    """Integrate over a single ball B(a_i, radius) with graded shells.

    The unresolved inner ball is closed by the geometric-tail rule for a
    strict exponent p < N, so the result approximates the full ball.
    """
    local_integrability_check([exponent], cfg.dim)
    f = Integrand(func=func, pole_exponents=[exponent] * cfg.n_poles)
    order_hi = _ANGULAR_ORDER.get(cfg.dim, 4)
    sums, n = _pole_ball_pass(
        [f], cfg, cfg.poles[pole_index], radius, levels, radial_order, order_hi,
        fade=False,
    )
    inner, err, _ = _inner_closure(sums[0], exponent, cfg.dim, truncate=False)
    return IntegralResult(
        value=math.fsum(sums[0]) + inner,
        stderr=0.0,
        trunc_bound=err,
        cells=n,
    )


def sphere_flux(vector_func, center, radius: float, dim: int,
                angular_order: int | None = None) -> float:
    """Outward flux of a vector field through the sphere |x - center| = radius."""
    dirs, wts = unit_sphere_rule(dim, angular_order)
    pts = np.asarray(center, dtype=float)[None, :] + radius * dirs
    vec = np.asarray(vector_func(pts), dtype=float)
    flux = np.einsum("kn,kn,k->", vec, dirs, wts)
    return float(flux * radius ** (dim - 1))
