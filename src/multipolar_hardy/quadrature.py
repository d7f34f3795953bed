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
    with antithetic pairs and the pair budget split evenly over the cells
    (strata).  Only live strata are partitioned and summed: a stratum
    whose box lies outside the far ball or inside a pole core, by a test
    with a rounding margin, holds no node of nonzero mid weight and adds
    exactly 0.  Its Philox variates are still drawn, so every live node is
    that of the full box, and the result is the full box's bit for bit.

(c) the far field beyond 0.8 * far_radius, in origin-centred shells with
    the same product angular rule: one collar shell where the far weight
    rises, then log-spaced shells of about half an octave out to the
    integrand's support radius, or to _FAR_CUT * far_radius for unbounded
    support.  The unbounded remainder beyond that cut is closed from the
    last shell sums as the pole balls close their inner ball, with the
    declared decay |x|^-(N+tail_exponent) as the fallback ratio.

The regions are joined by a smooth partition of unity rather than sharp
indicators: a quintic collar fades each pole ball out over the outer 30%
of its radius and fades the far field in over [0.8, 1.0] * far_radius.
Sharp region boundaries would put an O(1) discontinuity into the Monte
Carlo integrand and dominate its variance; with the blended split the MC
integrand is as smooth as the field itself, and the deterministic rules
absorb the collars exactly.

Each region's geometry -- nodes, quadrature weights, partition-of-unity
weights and the pole-core mask of region (b) -- is built once per
integrate_many call and shared by every integrand of the batch (the far
shells once per distinct support radius, for the integrands of that
support only).  The work is slice by slice: each rule cuts its nodes once
into slices of whole shells (pole balls, far shells) or whole cells (mid
region), about CHUNK // K nodes for the K integrands it evaluates, and on
each slice calls each of them in batch order, on one thread, with one and
the same array of points; so evaluators may share the work of a slice
(test functions, weight, potentials) across integrands.  Each shell's or
cell's sum is one in-order bincount, and no (K, n) array of the whole
node set is ever held.  The shell rules build a slice's nodes and
weights only when the slice is evaluated, so a pass holds no array of
all its nodes either.  The deterministic rules (pole balls, far shells,
integrate_radial_annulus) estimate their error as the difference between
a high and a low order of the same rule.

Determinism: region (b) is the only stochastic region; its stream is a
Philox counter-based substream derived from (seed, region), partial sums
are reduced in a fixed order with math.fsum, and worker parallelism only
maps slices, so results are reproducible for a fixed seed regardless of
scheduling.  A result depends only on the spec and its own integrand:
it equals, bit for bit, the same integrand passed alone.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_jacobi

from .config import PoleConfig, enclosing_radius, min_pole_gap, resolution_guard
from .errors import BudgetExceeded, ConfigError, NonIntegrableSingularity
from .fields import _length

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

# Nodes per evaluation of one integrand; a rule evaluating K integrands
# cuts its nodes into slices of about CHUNK // K.  Fixed, so that the worker
# count cannot change results.
CHUNK = 1 << 17

# Default polar-angle orders per ambient dimension (azimuth gets twice this).
_ANGULAR_ORDER = {3: 10, 4: 8, 5: 6, 6: 5, 7: 4, 8: 4}

_REGION_MID = 13

# Unbounded integrands get far shells out to this multiple of far_radius;
# the remainder beyond is closed geometrically.
_FAR_CUT = 64.0


def worker_count() -> int:
    """Worker threads for evaluation slices (MHARDY_WORKERS, default 1).

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
    far_radius    outer radius of the mid region; the far field starts at 0.8x
    radial_levels geometric shell count per pole ball (>= 4)
    mc_samples    total sample budget for the stratified-MC region (>= 1e3)
    seed          64-bit seed of the mid region, the only stochastic one
    tail_exponent declared decay s > 0 in |x|^-(N+s) of unbounded integrands;
                  closes their far shells when the measured ratio is unstable
    radial_order  Gauss-Legendre points per radial shell (>= 4)
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

    integrate_many calls func once per slice of nodes of every rule the
    integrand takes part in, and gives one result per integrand.

    func            callable mapping points (M, N) -> values (M,)
    pole_exponents  declared growth |x - a_i|^-p_i near each pole
    support_radius  None for unbounded support, else the integrand vanishes
                    for |x| > support_radius; the far shells end there (at
                    _FAR_CUT * far_radius plus a closure for None)
    allow_truncation  permit borderline exponents p_i == N; the pole ball is
                    then integrated only down to the innermost shell radius
                    and the result flagged as truncated
    name            label for the caller and for error messages
    """

    func: Callable[[np.ndarray], np.ndarray]
    pole_exponents: Sequence[float]
    support_radius: float | None = None
    allow_truncation: bool = False
    name: str = ""


@dataclass
class IntegralResult:
    """Value with separated error channels.

    stderr is the statistical error of the Monte Carlo mid region, the only
    stochastic region; trunc_bound collects the deterministic estimates
    (two-level differences of the product rules, the uncertainty of the
    geometric closures of the pole balls and the far shells).  cells counts
    the nodes of the whole integrate_many call, the same for every result
    of the call; a node counts once however many integrands are evaluated
    at it.
    truncated is set when a borderline pole exponent left the innermost
    ball unresolved; eta is the innermost resolved radius (the truncation
    scale).
    """

    value: float
    stderr: float
    trunc_bound: float
    cells: int
    truncated: bool = False
    eta: float = 0.0

    @property
    def error(self) -> float:
        """Combined error estimate ``stderr + trunc_bound``."""
        return self.stderr + self.trunc_bound


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
    if not isinstance(field, Integrand):
        return Integrand(func=field, pole_exponents=[0.0] * cfg.n_poles)
    if len(field.pole_exponents) != cfg.n_poles:
        raise ValueError(
            f"pole_exponents has {len(field.pole_exponents)} entries "
            f"for {cfg.n_poles} poles"
        )
    return field


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
    if spec.radial_order < 4:
        raise ConfigError(f"radial_order must be >= 4, got {spec.radial_order}")
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
_TAIL_RISE_START = 0.8  # far weight rises from this fraction of far_radius


def _pole_partition_weight(r: np.ndarray, pole_radius: float) -> np.ndarray:
    """Weight of the pole-ball region at distance r from its pole."""
    span = (1.0 - _POLE_FADE_START) * pole_radius
    return 1.0 - _smoothstep((r - _POLE_FADE_START * pole_radius) / span)


def _tail_partition_weight(r: np.ndarray, far_radius: float) -> np.ndarray:
    """Weight of the far region at distance r from the origin."""
    span = (1.0 - _TAIL_RISE_START) * far_radius
    return _smoothstep((r - _TAIL_RISE_START * far_radius) / span)


def _map_slices(work, slices) -> None:
    """Run work(i, j) for every (i, j) in slices, on MHARDY_WORKERS threads.

    Each call runs whole on one thread and writes its own disjoint part of
    the caller's output, so the worker count cannot change a result.
    """
    workers = worker_count()
    if workers == 1 or len(slices) == 1:
        for i, j in slices:
            work(i, j)
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            list(ex.map(lambda ij: work(*ij), slices))


def _eval_batch(integrands, pts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Values of every integrand of the batch at pts times weights, (K, M).

    Each integrand is called once, in batch order, on this same array (none
    is called on an empty one), and its values are written into the result
    before the next one is called.
    """
    out = np.empty((len(integrands), pts.shape[0]))
    if pts.shape[0] == 0:
        return out
    for k, f in enumerate(integrands):
        vals = np.asarray(f.func(pts), dtype=float)
        if vals.shape != out.shape[1:]:
            raise ValueError(
                f"integrand {f.name!r} returned shape {vals.shape}, "
                f"expected {out.shape[1:]}"
            )
        out[k] = vals
    out *= weights
    return out


def _slices(bounds: np.ndarray, cap: int) -> list[tuple[int, int]]:
    """Cut the nodes into slices of whole bins, about `cap` nodes each.

    Bin b holds the nodes bounds[b]:bounds[b+1].  Returns bin ranges (i, j)
    whose nodes bounds[i]:bounds[j] number at most `cap`, except that a
    single bin larger than `cap` is a slice of its own: a bin is never
    split, so its sum stays one in-order reduction.
    """
    out, i, last = [], 0, len(bounds) - 1
    while i < last:
        j = int(np.searchsorted(bounds, bounds[i] + cap, side="right")) - 1
        j = min(max(j, i + 1), last)
        out.append((i, j))
        i = j
    return out


def _binned(bins: np.ndarray, n_bins: int, *rows: np.ndarray) -> list[np.ndarray]:
    """Per-row bin sums over bins (M,) of each (K, M) array: (K, n_bins) each.

    One bincount index over the flattened rows serves every array; each bin
    still sums its terms in node order, exactly as a bincount of that row
    alone.
    """
    k = rows[0].shape[0]
    index = (np.arange(k)[:, None] * n_bins + bins[None, :]).ravel()
    return [
        np.bincount(index, weights=v.ravel(), minlength=k * n_bins).reshape(k, n_bins)
        for v in rows
    ]


def _shell_sums(integrands, center, edges, radial_order, angular_order,
                radial_weight=None, shell_of_panel=None):
    """Per-shell sums of the product rule over shells centred at `center`.

    edges is decreasing, shape (L+1,); panel l between edges[l] and
    edges[l+1] gets Gauss-Legendre nodes in radius (weights carry r^(N-1),
    times radial_weight(r) if given) and the product angular rule, and its
    terms are summed into shell shell_of_panel[l] (default: shell l).
    Returns per-integrand per-shell sums, shape (K, shells), in panel
    order, plus the node count.  The bins are cut once for the whole
    batch; each slice's nodes and weights are built when the slice is
    evaluated, so no array of the whole pass is held, and each slice is
    evaluated by every integrand in turn (`_eval_batch`).
    """
    dim = center.shape[0]
    xi, wq = np.polynomial.legendre.leggauss(radial_order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[:-1] - edges[1:])
    r = mid[:, None] + half[:, None] * xi[None, :]
    w = half[:, None] * wq[None, :] * r ** (dim - 1)
    if radial_weight is not None:
        w = w * radial_weight(r)
    if shell_of_panel is None:
        shell_of_panel = np.arange(len(edges) - 1)
    n_shells = int(shell_of_panel[-1]) + 1
    dirs, wa = unit_sphere_rule(dim, angular_order)
    per_panel = radial_order * dirs.shape[0]
    # panels[k] is the first panel of shell k; panels[-1] the panel count.
    panels = np.searchsorted(shell_of_panel, np.arange(n_shells + 1))
    sums = np.empty((len(integrands), n_shells))

    def work(i, j):
        p, q = panels[i], panels[j]
        pts = center[None, None, None, :] + r[p:q, :, None, None] * dirs[None, None]
        wts = (w[p:q, :, None] * wa[None, None, :]).reshape(-1)
        vals = _eval_batch(integrands, pts.reshape(-1, dim), wts)
        shells = np.repeat(shell_of_panel[p:q] - i, per_panel)
        sums[:, i:j] = _binned(shells, j - i, vals)[0]

    _map_slices(work, _slices(panels * per_panel, CHUNK // len(sums)))
    return sums, len(shell_of_panel) * per_panel


def _log_edges(r_in: float, r_out: float) -> np.ndarray:
    """Decreasing edges of log-spaced shells, about two per octave."""
    n_shells = max(1, int(math.ceil(2.0 * math.log2(r_out / r_in))))
    return r_in * (r_out / r_in) ** (np.arange(n_shells, -1, -1) / n_shells)


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
    edges = radius * 2.0 ** (-np.arange(levels + 1, dtype=float))
    shell_of_panel = np.arange(levels)
    weight = None
    if fade:
        # The collar weight is only piecewise-smooth at the fade onset;
        # split the outermost shell there so each Gauss panel sees an
        # analytic integrand.
        edges = np.insert(edges, 1, _POLE_FADE_START * radius)
        shell_of_panel = np.insert(shell_of_panel, 0, 0)
        weight = lambda r: _pole_partition_weight(r, radius)
    return _shell_sums(
        integrands, center, edges, radial_order, angular_order, weight, shell_of_panel
    )


def _geometric_closure(shell_sums: np.ndarray, rho_decl: float):
    """Sum the geometric continuation of shell sums past the last one.

    The per-shell sums S_k of a power-law integrand approach a geometric
    sequence; the unresolved remainder is the sum of its continuation.
    The measured ratio of the last shells is used when it is stable and
    contracting, the declared ratio rho_decl otherwise.  Returns
    (remainder, error_estimate).
    """
    s_last = shell_sums[-1]
    if len(shell_sums) >= 3 and shell_sums[-2] != 0.0 and shell_sums[-3] != 0.0:
        r1 = shell_sums[-1] / shell_sums[-2]
        r2 = shell_sums[-2] / shell_sums[-3]
        if 0.0 < r1 < 0.95 and 0.0 < r2 < 0.95:
            rest = s_last * r1 / (1.0 - r1)
            alt = s_last * r2 / (1.0 - r2)
            return rest, abs(rest - alt)
    if not 0.0 < rho_decl < 0.95:
        # Sign-changing or non-contracting shells with a benign declared
        # decay: the remainder is at most one more shell's worth.
        return 0.0, abs(s_last)
    rest = s_last * rho_decl / (1.0 - rho_decl)
    return rest, 0.5 * abs(rest)


def _inner_closure(shell_sums: np.ndarray, p: float, dim: int, truncate: bool):
    """Close the unresolved inner ball of a pole with exponent p.

    For p < N the octave shell sums decay with ratio 2^-(N-p), and the
    inner ball is their geometric continuation.  The borderline p == N
    diverges: the inner ball is left out and the result flagged as
    truncated.  Returns (inner_value, error_estimate, truncated_flag).
    """
    if truncate:
        return 0.0, 0.0, True
    return (*_geometric_closure(shell_sums, 2.0 ** (-(dim - p))), False)


def _two_level(rule, dim: int, radial_order: int, angular_order: int | None = None):
    """Run a deterministic product rule at a high and a derived low order.

    rule(radial_order, angular_order) returns (sums, nodes).  The low level
    drops three radial points and a third of the angular order; callers
    take the hi-minus-lo difference as the rule's error estimate.  Returns
    (hi_sums, lo_sums, nodes of both levels).

    A caller may report either level.  `_pole_region`, `_far_region` and
    `integrate_radial_annulus` report the high level,
    so the difference is the error of the coarser pass.
    `integrate_pole_ball` reports the low level, so the difference is the
    error of the reported value.
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


# Rounding margin of the dead-stratum test, in units of far_radius: far
# above the few ulps by which a computed node or distance may stray.
_DEAD_MARGIN = 1e-9


def _live_strata(cfg, spec, grid, h):
    """Indices of the strata whose box can hold a node of the mid region.

    grid holds each stratum's integer coordinates, h the box side.  A
    stratum is dead if its box lies outside B(0, far_radius), where the far
    weight is exactly 1 and every pole weight is 0 (the far ball encloses
    the pole balls), or inside a pole core B(a_i, 0.7 pole_radius), which
    the core mask drops.  Both tests keep a margin of _DEAD_MARGIN *
    far_radius, so no rounding of a node or of its distances can carry it
    across either boundary: every node of a dead stratum has
    _mid_partition's mask False.
    """
    R = spec.far_radius
    slack = _DEAD_MARGIN * R
    lo = -R + grid * h
    hi = lo + h
    # The box's nearest point to the origin; its farthest corner from a pole.
    dead = _length(np.maximum(np.maximum(lo, -hi), 0.0)) >= R + slack
    core = _POLE_FADE_START * spec.pole_radius
    for pole in cfg.poles:
        far = _length(np.maximum(np.abs(lo - pole), np.abs(hi - pole)))
        dead |= far <= core - slack
    return np.flatnonzero(~dead)


def _mid_partition(pts, cfg, spec):
    """Mid-region partition weight at box points, kept where it is nonzero.

    Returns (mask, pts[mask], weight[mask]); the mask drops the pole cores
    (where the pole weight is 1) and every point of zero weight.  The poles
    are taken one at a time, on 1-D columns: the nearest-pole distance is a
    running np.minimum, which is exact, and the pole weights are summed in
    pole order.  The pole balls are disjoint, so at most two of those terms
    are nonzero and every order of summation gives the same bits.
    """
    weight = 1.0 - _tail_partition_weight(_length(pts), spec.far_radius)
    nearest = pole_sum = None
    for pole in cfg.poles:
        dist = _length(pts - pole)
        pole_weight = _pole_partition_weight(dist, spec.pole_radius)
        if nearest is None:
            nearest, pole_sum = dist, pole_weight
        else:
            np.minimum(nearest, dist, out=nearest)
            pole_sum += pole_weight
    weight -= pole_sum
    mask = (nearest > _POLE_FADE_START * spec.pole_radius) & (weight != 0.0)
    return mask, pts[mask], weight[mask]


def _mid_rule(cfg, spec):
    """Node set of region (b), built once per integrate_many call.

    Samples come in antithetic pairs (u, 1-u) within each stratum (cell).
    The pair budget is split evenly over the strata, so the node set is a
    pure function of the spec and the geometry -- in particular it does not
    depend on which integrands share the batch, and Gram-type computations
    reuse identical nodes across runs with different batch compositions.

    Only the live strata (`_live_strata`) are partitioned: a dead one holds
    no node of nonzero mid weight, so it adds exactly 0 to every sum.  The
    Philox block is still drawn whole, dead strata included, so the stream
    and every live node are those of the full box.

    Returns (strata, halves, cells, pairs, cell_vol): strata lists the live
    strata in increasing order, and halves holds the _mid_partition of
    their u points and of their 1-u points, pair by pair in stratum order.
    Only the masked points and weights are kept; the offsets and full-size
    temporaries are released once both halves are built.
    """
    dim = cfg.dim
    R = spec.far_radius
    s = _strata_grid(dim, spec.mc_samples)
    C = s**dim
    h = 2.0 * R / s

    # Stratum index -> integer grid coordinates, fixed C-order.
    grid = np.stack(
        np.meshgrid(*([np.arange(s)] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)
    strata = _live_strata(cfg, spec, grid, h)
    corners = grid[strata][:, None, :]

    pairs = max(2, spec.mc_samples // (2 * C))
    rng = np.random.Generator(np.random.Philox(key=spec.seed ^ _REGION_MID))
    u = rng.random((C * pairs, dim)).reshape(C, pairs, dim)[strata]
    first = _mid_partition((-R + (corners + u) * h).reshape(-1, dim), cfg, spec)
    np.subtract(1.0, u, out=u)
    second = _mid_partition((-R + (corners + u) * h).reshape(-1, dim), cfg, spec)
    return strata, (first, second), C, pairs, h**dim


def _mid_region(integrands, cfg, spec):
    """Region (b): stratified MC over the blended bounded complement.

    Antithetic pairs cancel the linear part of smooth integrands; the
    variance estimate treats pair averages as the iid unit.  The whole
    batch is evaluated on the one node set of _mid_rule, a slice of whole
    strata at a time: per antithetic half, every integrand in turn on that
    half's points of the slice (`_eval_batch`).

    Only live pairs, those with a node in either half, are held; a pair
    with none, like a dead stratum, adds exactly 0 to its stratum's sums.
    Each half's values are added at integer positions into the slice's
    zeroed pair values, so a pair holds the sum of its two halves, a
    missing half counting as 0 (adding into +0 can at most turn a -0 into
    +0, which no bin sum, started at +0, can see).  One bincount index
    per slice gives both the sums and the sums of squares, each bin in
    node order.  The per-stratum means and variances of every integrand
    are kept, shape (K, live strata), and summed per integrand with
    math.fsum over the strata that hold a live pair.  fsum is exactly
    rounded, so leaving out the others, whose terms are exactly 0, changes
    no bit.
    """
    strata, halves, C, pairs, cell_vol = _mid_rule(cfg, spec)
    S = len(strata)

    def stratum_bounds(mask):
        """Index of each stratum's first True entry among the True entries."""
        counts = np.count_nonzero(mask.reshape(S, pairs), axis=1)
        return np.concatenate([[0], np.cumsum(counts)])

    # Stratum k's live pairs sit at bounds[k]:bounds[k+1] of live_masks
    # and stratum_of_pair.
    live = halves[0][0] | halves[1][0]
    live_masks = [mask[live] for mask, _, _ in halves]
    bounds = stratum_bounds(live)
    stratum_of_pair = np.repeat(np.arange(S), np.diff(bounds))
    starts = [stratum_bounds(mask) for mask, _, _ in halves]
    K = len(integrands)
    means = np.empty((K, S))
    var_means = np.empty((K, S))

    def work(i, j):
        u0, u1 = bounds[i], bounds[j]
        vals = np.zeros((K, u1 - u0))
        for held, (_, pts, weight), first in zip(live_masks, halves, starts):
            a, b = first[i], first[j]
            at = np.flatnonzero(held[u0:u1])
            vals[:, at] += _eval_batch(integrands, pts[a:b], weight[a:b])
        vals *= 0.5
        sums, sumsq = _binned(stratum_of_pair[u0:u1] - i, j - i, vals, vals**2)
        mean = sums / pairs
        var = np.maximum(0.0, sumsq / pairs - mean**2)
        means[:, i:j] = mean
        # Unbiased variance of the stratum mean over antithetic pairs.
        var_means[:, i:j] = var / (pairs - 1)

    _map_slices(work, _slices(bounds, CHUNK // K))
    held = np.flatnonzero(np.diff(bounds))
    values, stderrs = np.empty(K), np.empty(K)
    for k in range(K):
        values[k] = cell_vol * math.fsum(means[k, held].tolist())
        stderrs[k] = cell_vol * math.sqrt(math.fsum(var_means[k, held].tolist()))
    return values, stderrs, int(2 * C * pairs)


def _far_region(integrands, dim, spec, support):
    """Region (c) on the far shells of one support radius.

    One collar shell over [0.8, 1] * far_radius carries the rising far
    weight; log-spaced plateau shells run on to `support`, or for unbounded
    support to _FAR_CUT * far_radius plus a geometric closure (declared
    ratio q^-tail_exponent for the shell ratio q).  The caller passes the
    integrands of this support only, and each is integrated on these
    shells.  Returns (values, trunc_bounds, nodes) per integrand; a trunc
    bound adds the collar's and the plateau's two-level differences and
    the closure uncertainty.
    """
    K = len(integrands)
    R = spec.far_radius
    r_t = _TAIL_RISE_START * R
    r_out = _FAR_CUT * R if support is None else support
    values, truncs = np.zeros(K), np.zeros(K)
    if r_out <= r_t:
        return values, truncs, 0
    # The rise weight clamps to exactly 1 at far_radius; ending the collar
    # shell there keeps every Gauss panel on an analytic integrand.
    plateau = _log_edges(R, r_out) if r_out > R else np.array([r_out])
    edges = np.append(plateau, r_t)
    hi, lo, nodes = _two_level(
        lambda q, order: _shell_sums(
            integrands, np.zeros(dim), edges, q, order,
            lambda r: _tail_partition_weight(r, R),
        ),
        dim,
        spec.radial_order,
    )
    rho_decl = (edges[0] / edges[1]) ** -spec.tail_exponent
    for k in range(K):
        rest_hi = rest_lo = err = 0.0
        if support is None:
            # Plateau shells from the inside out; the collar is the last.
            rest_hi, err = _geometric_closure(hi[k, -2::-1], rho_decl)
            rest_lo, _ = _geometric_closure(lo[k, -2::-1], rho_decl)
        plateau_hi = math.fsum(hi[k, :-1]) + rest_hi
        plateau_lo = math.fsum(lo[k, :-1]) + rest_lo
        values[k] = hi[k, -1] + plateau_hi
        truncs[k] = abs(hi[k, -1] - lo[k, -1]) + abs(plateau_hi - plateau_lo) + err
    return values, truncs, nodes


def integrate_many(fields, cfg: PoleConfig, spec: QuadratureSpec):
    """Integrate several integrands on one shared domain decomposition.

    The pole balls and the mid region share one node set over the whole
    batch; the far shells run once per distinct support_radius, for the
    integrands of that support, so every value depends only on the spec
    and its own integrand.  Pole exponents and support radii may differ per
    integrand.  A field may be a callable or an Integrand.  Returns a list
    of IntegralResult in input order; no fields give an empty list, once
    the spec is validated.

    Evaluation is slice-major.  Each rule (a pole ball or far-shell pass,
    an antithetic half of the mid region) cuts its nodes once into slices
    for the integrands that take part in it, and on each slice calls each
    of them once, in batch order, on one thread and with the same array
    object, before it moves to the next slice.  An evaluator may therefore
    keep the work of a slice, keyed on the identity of that array, for the
    later integrands of the batch.
    """
    integrands = [_as_integrand(f, cfg) for f in fields]
    _validate_spec(cfg, spec)
    if not integrands:
        return []
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
        if f.support_radius is None and not spec.tail_exponent > 0:
            raise ConfigError(
                f"tail_exponent must be > 0 for unbounded integrands, "
                f"got {spec.tail_exponent}"
            )

    dim = cfg.dim
    dirs_count = unit_sphere_rule(dim)[0].shape[0]
    est_nodes = (
        2 * cfg.n_poles * spec.radial_levels * spec.radial_order * dirs_count
        + spec.mc_samples
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

    far_vals, far_truncs = np.zeros((2, len(integrands)))
    cells_c = 0
    for support in dict.fromkeys(f.support_radius for f in integrands):
        at = [k for k, f in enumerate(integrands) if f.support_radius == support]
        far_vals[at], far_truncs[at], n = _far_region(
            [integrands[k] for k in at], dim, spec, support
        )
        cells_c += n

    return [
        IntegralResult(
            value=math.fsum([pole_vals[k], mid_vals[k], far_vals[k]]),
            stderr=float(mid_errs[k]),
            trunc_bound=pole_truncs[k] + far_truncs[k],
            cells=cells_a + cells_b + cells_c,
            truncated=truncated[k],
            eta=eta if truncated[k] else 0.0,
        )
        for k in range(len(integrands))
    ]


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
    edges = _log_edges(r_in, r_out)
    hi, lo, n = _two_level(
        lambda q, order: _shell_sums([f], np.zeros(dim), edges, q, order),
        dim,
        radial_order,
        angular_order,
    )
    value, coarse = math.fsum(hi[0]), math.fsum(lo[0])
    return IntegralResult(
        value=value, stderr=0.0, trunc_bound=abs(value - coarse), cells=n
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
    strict exponent p < N, so the result approximates the full ball.  The
    value is the pass at `radial_order` (>= 4) and the default angular
    order.  `_two_level` runs that pass as its low level under a refined
    high level, so their difference, plus the inner-closure uncertainty,
    estimates the error of the value itself.
    """
    local_integrability_check([exponent], cfg.dim)
    f = Integrand(func=func, pole_exponents=[exponent] * cfg.n_poles)

    def ball(q, order):
        sums, n = _pole_ball_pass(
            [f], cfg, cfg.poles[pole_index], radius, levels, q, order, fade=False
        )
        inner, err, _ = _inner_closure(sums[0], exponent, cfg.dim, truncate=False)
        return (math.fsum(sums[0]) + inner, err), n

    order = _ANGULAR_ORDER.get(cfg.dim, 4)
    # The high level one step up, whose derived low level is exactly
    # (radial_order, order).
    (fine, _), (value, err), n = _two_level(
        ball, cfg.dim, radial_order + 3, (3 * order + 1) // 2
    )
    return IntegralResult(
        value=value, stderr=0.0, trunc_bound=abs(fine - value) + err, cells=n
    )


def sphere_flux(vector_func, center, radius: float, dim: int,
                angular_order: int | None = None) -> float:
    """Outward flux of a vector field through the sphere |x - center| = radius."""
    dirs, wts = unit_sphere_rule(dim, angular_order)
    pts = np.asarray(center, dtype=float)[None, :] + radius * dirs
    vec = np.asarray(vector_func(pts), dtype=float)
    flux = np.einsum("kn,kn,k->", vec, dirs, wts)
    return float(flux * radius ** (dim - 1))
