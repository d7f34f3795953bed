"""Quadrature over R^N for integrands with point singularities at the poles.

The domain is split into three kinds of regions, integrated independently
and summed with compensated summation in a fixed order:

(a) a ball B(a_i, pole_radius) around each pole, in spherical coordinates
    centred at the pole: geometrically graded radial shells
    [r_{k+1}, r_k], r_k = pole_radius * 2^-k, k = 0 .. radial_levels-1,
    Gauss-Legendre in radius within each shell, and a product
    Gauss-Jacobi x trapezoid rule in the angles whose order falls with
    depth (the linear degree vector of hp quadrature on geometric meshes):
    the outer four shells (r >= pole_radius / 16), the fade panel among
    them, get the dimension's full order, every deeper shell order 3.  Near
    its pole an integrand is a power of the distance times a factor smooth
    on some scale s (a bump's width, the distance to the other poles), so
    on a sphere of radius r its degree-k angular part is O((r/s)^k).
    Order 3 integrates every spherical polynomial of degree 5 exactly,
    leaving O((r/s)^6): rounding level below pole_radius / 16 for the
    shipped integrands, while the angular error of the full order sits in
    the outer shells, where the collar, the test functions and the other
    poles vary.  For a declared pole exponent p < N the per-shell sums
    decay geometrically and the unresolved inner ball is restored by
    summing the geometric tail; at the borderline p == N the integral is
    only defined as a truncation at the innermost radius eta (callers must
    opt in via Integrand.allow_truncation).

(b) the bounded complement B(0, far_radius) minus the pole balls, by
    stratified Monte Carlo over an axis-aligned grid of the enclosing box
    with antithetic pairs.  The grid is fine: as many strata as get 6
    samples each at N = 3, 12 at N = 4 (`_strata_grid`, up to 64 and 24
    per axis), since a pair mean in a cube of side h errs by O(h^2), so
    that at a fixed budget the variance falls like h^4 and many cells of
    two pairs beat few cells of many.  Only live strata get pairs: a
    stratum whose box lies outside the far ball or inside a pole core, by
    a per-axis test with a rounding margin, could hold no node of nonzero
    mid weight.  The S live strata of C spend the live share of
    mc_samples / 2, B = round(mc_samples S / (2 C)) pairs, in proportion
    to (1 + d/pole_radius)^-2, d the distance from the stratum's box to
    the nearest pole, water-filled above a floor of 2 pairs each and
    rounded down, so at most B in all: the singular
    masses put almost all of the variance in the strata next to a pole,
    so this (Neyman-type) allocation spends the pairs where the variance
    is.  Each stratum's mean and variance are taken over its own pairs,
    summed over fixed blocks of strata, and the blocks summed with
    math.fsum.  The uniforms are drawn and the points built from them a
    slice of whole blocks at a time, when the slice is evaluated.

(c) the far field beyond 0.8 * far_radius, in origin-centred shells with
    the product angular rule at the dimension's full order: one collar
    shell where the far weight rises, then log-spaced shells of about half
    an octave out to the integrand's support radius, or to _FAR_CUT *
    far_radius for unbounded support.  The unbounded remainder beyond that
    cut is closed from the last shell sums as the pole balls close their
    inner ball, with the declared decay |x|^-(N+2) as the fallback ratio.

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
support only).  Integrands that declare one `Integrand.inner` key are
equal inside B(0, far_radius), so regions (a) and (b) evaluate only the
first of them and hand its sums to the others; each still runs on the far
shells of its own support.  integrate_many plans every rule once before it
evaluates anything: each shell rule is a (nodes, sums) pair, its node
count and the function that integrates a batch on it, and the mid region
is its per-stratum pair counts.  The evaluation cap, the reported cells
and the run all read that one plan.  The work is slice by slice: each
rule cuts its nodes once into slices of whole shells (pole balls, far
shells) or whole blocks of cells (mid region), about CHUNK // K nodes (at
least _SLICE_FLOOR) for the K integrands it evaluates, and on each slice
calls each of them in batch order, with one and the same array of
points; so evaluators may share the work of a slice (test functions,
weight, potentials) across integrands.  Each shell's, cell's or block's
sum is one in-order bincount, and no (K, n) array of the whole node set,
nor of region (b)'s strata, is ever held.  Every rule builds a slice's
nodes and weights only when the slice is evaluated, so no rule holds an
array of all its nodes either.

Every deterministic rule runs at two levels of `_level_orders`, reports
one and is checked against the other (`_two_level`): its error estimate
is the distance between the two, plus the reported level's closure
error.  The pole balls and far shells of integrate_many, and
integrate_radial_annulus, report the high level and check it against the
low one; integrate_pole_ball reports the low level and checks it against
a level one step higher.

Determinism: region (b) is the only stochastic region; its stream is a
Philox counter-based substream derived from (seed, region), drawn slice
after slice in stratum order, and partial sums are reduced in a fixed
order with math.fsum over blocks of strata that the plan fixes, so results
are reproducible for a fixed seed.  A result depends only on the spec and
its own integrand: it equals, bit for bit, the same integrand passed
alone, and so does a member of an inner-key group, whose pole and mid
values are its own at every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Hashable, Sequence

import numpy as np

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
# cuts its nodes into slices of about CHUNK // K, but at least _SLICE_FLOOR,
# so that a slice's (K, M) values stay near CHUNK floats.  The floor binds
# only at K > 64, where it bounds the per-slice call overhead of a large batch
# at the memory of a (K, _SLICE_FLOOR) array of values, K * 2048 * 8 bytes
# (9 MB for a 23-member Gram's 552 integrands).
CHUNK = 1 << 17
_SLICE_FLOOR = 2048

# Default polar-angle orders per ambient dimension (azimuth gets twice this).
_ANGULAR_ORDER = {3: 10, 4: 8, 5: 6, 6: 5, 7: 4, 8: 4}

# Angular schedule of the faded pole balls of integrate_many: the rule's own
# order on the outermost _POLE_FULL_SHELLS shells (r >= pole_radius / 16),
# _POLE_DEEP_ORDER on every deeper one (see `_graded_pole_ball`).
_POLE_FULL_SHELLS = 4
_POLE_DEEP_ORDER = 3

_REGION_MID = 13

# Unbounded integrands get far shells out to this multiple of far_radius;
# the remainder beyond is closed geometrically, with the declared decay
# |x|^-(N + _TAIL_EXPONENT) as the fallback ratio.
_FAR_CUT = 64.0
_TAIL_EXPONENT = 2.0

# Gauss-Legendre points per radial shell of every deterministic rule's
# high level (`_level_orders`).
_RADIAL_ORDER = 8


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of the domain decomposition.

    pole_radius   radius of the graded ball around each pole (<= min_pole_gap)
    far_radius    outer radius of the mid region; the far field starts at 0.8x
    radial_levels geometric shell count per pole ball (>= 4)
    mc_samples    sample budget of the stratified-MC region (>= 1e3): it
                  sets a grid of C strata of about 6 samples each at N = 3
                  (12 at N = 4, 48 above), and the S live strata share at
                  most round(mc_samples * S / (2 C)) antithetic pairs,
                  weighted toward the poles, at least 2 each
    seed          64-bit seed of the mid region, the only stochastic one

    The radial order of the shell rules (_RADIAL_ORDER, 8 points) and the
    declared far decay |x|^-(N+2) of unbounded integrands (_TAIL_EXPONENT)
    are fixed.
    """

    pole_radius: float
    far_radius: float
    radial_levels: int
    mc_samples: int
    seed: int


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
    inner           None, or a hashable key: the integrands of one
                    integrate_many batch that share a key are declared equal
                    at every node inside B(0, far_radius), so the pole balls
                    and the mid region evaluate only the first of them in
                    batch order and give its values, trunc bounds and
                    stderrs to the others (`_inner_groups`); they must agree
                    in pole exponents and truncation flag
    """

    func: Callable[[np.ndarray], np.ndarray]
    pole_exponents: Sequence[float]
    support_radius: float | None = None
    allow_truncation: bool = False
    name: str = ""
    inner: Hashable | None = None


@dataclass
class IntegralResult:
    """Value with separated error channels.

    stderr is the statistical error of the Monte Carlo mid region, the only
    stochastic region; trunc_bound collects the deterministic estimates:
    each product rule's distance from its reported level to its check
    level (`_two_level`), plus the reported level's closure uncertainty
    (the geometric closures of the pole balls and the far shells).  The
    pole balls and far shells of integrate_many, and
    integrate_radial_annulus, report the high level of `_level_orders`
    (_RADIAL_ORDER points, the dimension's angular order) and are checked
    against its low level (3 radial points fewer, a third off the angular
    order); integrate_pole_ball reports its pass at _RADIAL_ORDER and the
    dimension's angular order, and is checked against one step higher (3
    radial points more, half again the angular order).  cells counts the
    nodes of the whole integrate_many call, the same for every result of
    the call; a node counts once however many integrands are evaluated at
    it.  Region (b) counts both halves of every pair it draws, the nodes
    that its partition mask drops (pole cores, zero weight) included,
    though no integrand is evaluated there: the mask keeps about 91% of
    them at N = 3 (pole_radius 1, mc_samples 4e5) and 74% at N = 4
    (pole_radius 0.9, mc_samples 1e5), so cells, like the evaluation cap,
    overstates the mid region's evaluations by that margin.
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


def _gauss_gegenbauer(order: int, alpha: float):
    """Gauss rule of `order` nodes for the weight (1 - t^2)^alpha on [-1, 1].

    Golub & Welsch (1969): the nodes are the eigenvalues of the symmetric
    Jacobi matrix of the weight, whose off-diagonal entries b_k satisfy
    b_k^2 = 4k (k+alpha)^2 (k+2 alpha) / ((2k+2 alpha)^2 ((2k+2 alpha)^2 - 1)).
    One Newton step on the orthonormal three-term recurrence polishes them,
    and the same recurrence gives the weights, 1 / sum_{k<n} p_k(t)^2, with
    p_0 = mu0^(-1/2) and mu0 = 2^(2 alpha+1) Gamma(alpha+1)^2 / Gamma(2 alpha+2)
    the weight's mass.  Nodes and weights are then made exactly symmetric
    about 0, so that an odd integrand sums to exactly 0.
    """
    k = np.arange(1, order + 1, dtype=float)
    s = 2.0 * (k + alpha)
    b = np.sqrt(4.0 * k * (k + alpha) ** 2 * (k + 2.0 * alpha) / (s**2 * (s**2 - 1.0)))
    mu0 = (2.0 ** (2.0 * alpha + 1.0) * math.gamma(alpha + 1.0) ** 2
           / math.gamma(2.0 * alpha + 2.0))

    def recurrence(t):
        """p_n(t), p_n'(t) and sum_{k<n} p_k(t)^2 of the orthonormal family."""
        p_prev, p = np.zeros_like(t), np.full_like(t, 1.0 / math.sqrt(mu0))
        dp_prev, dp = np.zeros_like(t), np.zeros_like(t)
        norm2 = np.zeros_like(t)
        for j in range(order):
            norm2 += p * p
            b_prev = b[j - 1] if j else 0.0
            p_next = (t * p - b_prev * p_prev) / b[j]
            dp_next = (p + t * dp - b_prev * dp_prev) / b[j]
            p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
        return p, dp, norm2

    # eigvalsh reads only the lower triangle of the Jacobi matrix.
    t = np.linalg.eigvalsh(np.diag(b[:-1], -1))
    p, dp, _ = recurrence(t)
    t = t - p / dp
    w = 1.0 / recurrence(t)[2]
    return 0.5 * (t - t[::-1]), 0.5 * (w + w[::-1])


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
    t, wt = _gauss_gegenbauer(order, alpha)
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


# Declared pole exponents within this distance of N count as the borderline
# p == N, both where they are rejected (`local_integrability_check`) and
# where the pole ball is truncated (`_borderline`), so that no exponent is
# accepted as integrable and then truncated.
_BORDERLINE_TOL = 1e-9


def local_integrability_check(exponents: Sequence[float], dim: int) -> None:
    """Require r^(N-1-p) integrable at r = 0 for every declared exponent.

    Passes iff p < N - _BORDERLINE_TOL for each pole; the borderline p == N
    already diverges logarithmically and is rejected here (truncated
    evaluation is a separate opt-in on the Integrand).
    """
    for i, p in enumerate(exponents):
        if not p < dim - _BORDERLINE_TOL:
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


def _slices(bounds: np.ndarray, k: int) -> list[tuple[int, int]]:
    """Cut the nodes into slices of whole bins for a batch of k integrands.

    Bin b holds the nodes bounds[b]:bounds[b+1].  Returns bin ranges (i, j)
    whose nodes bounds[i]:bounds[j] number at most cap = max(CHUNK // k,
    _SLICE_FLOOR), except that a single bin larger than cap is a slice of
    its own: a bin is never split, so its sum stays one in-order reduction
    whatever the cap.
    """
    cap = max(CHUNK // k, _SLICE_FLOOR)
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


def _shell_rule(center, edges, radial_order, angular_order,
                radial_weight=None, shell_of_panel=None):
    """The product rule over shells centred at `center`, as (nodes, sums).

    edges is decreasing, shape (L+1,); panel l between edges[l] and
    edges[l+1] gets Gauss-Legendre nodes in radius (weights carry r^(N-1),
    times radial_weight(r) if given) and the product angular rule, and its
    terms are summed into shell shell_of_panel[l] (default: shell l).
    nodes is the rule's node count.  sums(integrands) returns the
    per-integrand per-shell sums, shape (K, shells), in panel order; it
    cuts the bins once for the whole batch, builds each slice's nodes and
    weights when the slice is evaluated, so no array of the whole pass is
    held, and has each slice evaluated by every integrand in turn
    (`_eval_batch`).
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

    def shell_sums(integrands, i, j):
        """Sums (K, j - i) of shells i:j; its arrays are freed on return."""
        p, q = panels[i], panels[j]
        pts = center[None, None, None, :] + r[p:q, :, None, None] * dirs[None, None]
        wts = (w[p:q, :, None] * wa[None, None, :]).reshape(-1)
        vals = _eval_batch(integrands, pts.reshape(-1, dim), wts)
        shells = np.repeat(shell_of_panel[p:q] - i, per_panel)
        return _binned(shells, j - i, vals)[0]

    def sums(integrands):
        out = np.empty((len(integrands), n_shells))
        for i, j in _slices(panels * per_panel, len(integrands)):
            out[:, i:j] = shell_sums(integrands, i, j)
        return out

    return len(shell_of_panel) * per_panel, sums


def _plan_nodes(rules) -> int:
    """Node count of a list of (nodes, sums) rules."""
    return sum(nodes for nodes, _ in rules)


def _log_edges(r_in: float, r_out: float) -> np.ndarray:
    """Decreasing edges of log-spaced shells, about two per octave."""
    n_shells = max(1, int(math.ceil(2.0 * math.log2(r_out / r_in))))
    return r_in * (r_out / r_in) ** (np.arange(n_shells, -1, -1) / n_shells)


def _pole_ball_pass(
    center, radius, levels, radial_order, angular_order, fade: bool = True
):
    """The shell rule of one graded pole ball, as (nodes, sums).

    Every shell gets the one `angular_order`.  With fade=True the
    partition-of-unity collar is applied, so the pass contributes integral
    of f * psi_pole over the ball; fade=False gives the raw ball (used for
    the whole-ball integrals of `integrate_pole_ball`, and for the deep
    shells of `_graded_pole_ball`, which lie inside the fade onset).  The
    octave shells of an unfaded pass are those of every ball
    radius * 2^-k inside it: shells k .. k + m - 1 of the pass are, node
    for node, the m shells of that ball.  sums gives per-integrand
    per-shell sums, shape (K, L), ordered outermost shell first.
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
    return _shell_rule(
        center, edges, radial_order, angular_order, weight, shell_of_panel
    )


def _geometric_closure(shell_sums: np.ndarray, rho_decl: float):
    """Sum the geometric continuation of shell sums past the last one.

    The per-shell sums S_k of a power-law integrand approach a geometric
    sequence; the unresolved remainder is the sum of its continuation.
    The measured ratios r1, r2 of the last three shells are used when both
    lie in (0, 1), the declared ratio rho_decl in (0, 1) otherwise, and the
    one-shell fallback (remainder 0, bound |last shell|) when neither does.
    A ratio near 1 (an exponent p near N) gives a long continuation: at
    p = 2.99 in N = 3 it holds most of the ball.  A ratio that rounds to 1
    fails its test: a measured one falls to the declared ratio, a declared
    one to the fallback.  No exponent that `local_integrability_check`
    accepts declares one, since p < N - _BORDERLINE_TOL makes 2^-(N-p)
    less than 1 - 6.9e-10.  Returns (remainder, error_estimate).
    """
    s_last = shell_sums[-1]
    if len(shell_sums) >= 3 and shell_sums[-2] != 0.0 and shell_sums[-3] != 0.0:
        r1 = shell_sums[-1] / shell_sums[-2]
        r2 = shell_sums[-2] / shell_sums[-3]
        if 0.0 < r1 < 1.0 and 0.0 < r2 < 1.0:
            rest = s_last * r1 / (1.0 - r1)
            alt = s_last * r2 / (1.0 - r2)
            return rest, abs(rest - alt)
    if not 0.0 < rho_decl < 1.0:
        # Sign-changing or non-contracting shells with a benign declared
        # decay: the remainder is at most one more shell's worth.
        return 0.0, abs(s_last)
    rest = s_last * rho_decl / (1.0 - rho_decl)
    return rest, 0.5 * abs(rest)


def _borderline(p: float, dim: int) -> bool:
    """A declared pole exponent at the borderline p == N (within
    _BORDERLINE_TOL), whose pole ball is integrated down to the innermost
    shell radius only (truncated)."""
    return p >= dim - _BORDERLINE_TOL


def _closed_sum(shells: np.ndarray, rho_decl: float, closed: bool = True):
    """close() of a rule closed past its last shell: the fsum of its shell
    sums plus, if `closed`, their geometric continuation and its error
    (`_geometric_closure`), as (value, closure_error)."""
    rest, err = _geometric_closure(shells, rho_decl) if closed else (0.0, 0.0)
    return math.fsum(shells) + rest, err


def _unclosed(row, shells: np.ndarray):
    """close() of a rule with nothing past its last shell: (fsum, 0)."""
    return math.fsum(shells), 0.0


def _two_level(reported, check, close):
    """The two-level estimate of every row of a deterministic rule.

    reported and check hold each row's shell sums at the level the rule
    reports and at the level it is checked against; close(row, shells)
    gives (value, closure_error) of one row's sums at one level
    (`_closed_sum`, `_unclosed`).  Returns an array (3, rows): the
    reported values, their distances |reported - check| to the check
    level's values, and the reported level's closure errors.  The caller
    chooses the convention: checked against a finer level, the distance
    estimates the error of the reported value; against a coarser one, it
    is the error of the check level, which overstates that of a
    convergent reported value.
    """
    out = np.empty((3, len(reported)))
    for k, (shells, check_shells) in enumerate(zip(reported, check)):
        value, err = close(k, shells)
        out[:, k] = value, abs(value - close(k, check_shells)[0]), err
    return out


def _level_orders(dim: int, radial_order: int, angular_order: int | None = None):
    """(radial, angular) orders of the high and the low level of a rule.

    The low level drops three radial points and a third of the angular
    order, which defaults to the dimension's.  Every deterministic rule
    runs at both levels, one reported and one checked (`_two_level`).

    `_pole_plan` applies the angular schedule at both levels: the outer
    shells get the level's order (10 and 6 at N = 3), the deep shells order
    3 at both, since a third off order 3 is below the floor.  There the
    levels differ in their radial points only, and the difference measures
    the outer shells' angular error and every shell's radial error.
    """
    order_hi = angular_order or _ANGULAR_ORDER.get(dim, 4)
    return (
        (radial_order, order_hi),
        (max(4, radial_order - 3), max(3, (2 * order_hi) // 3)),
    )


def _graded_pole_ball(center, spec, radial_order, angular_order):
    """The rule of one faded pole ball under the angular schedule.

    The outermost _POLE_FULL_SHELLS shells, the fade panel among them, get
    `angular_order`; every deeper shell gets _POLE_DEEP_ORDER.  The deep
    shells lie inside the fade onset, where the pole weight is exactly 1,
    so they are the unfaded ball of radius pole_radius * 2^-_POLE_FULL_SHELLS
    and their sums are those of the same shells in one faded pass.  Returns
    (nodes, sums) as `_pole_ball_pass`, outermost shell first.
    """
    outer = _pole_ball_pass(
        center, spec.pole_radius, _POLE_FULL_SHELLS, radial_order, angular_order
    )
    deep_levels = spec.radial_levels - _POLE_FULL_SHELLS
    if deep_levels == 0:
        return outer
    deep = _pole_ball_pass(
        center, spec.pole_radius * 2.0 ** -_POLE_FULL_SHELLS, deep_levels,
        radial_order, _POLE_DEEP_ORDER, fade=False,
    )
    return outer[0] + deep[0], lambda integrands: np.concatenate(
        [outer[1](integrands), deep[1](integrands)], axis=1
    )


def _pole_plan(cfg, spec):
    """Region (a)'s rules: per pole, its graded ball at the high and the low
    level of `_level_orders`, each a (nodes, sums) pair."""
    return [
        [
            _graded_pole_ball(center, spec, q, order)
            for q, order in _level_orders(cfg.dim, _RADIAL_ORDER)
        ]
        for center in cfg.poles
    ]


def _pole_region(integrands, cfg, plan):
    """Region (a): all pole balls of `_pole_plan`, each reported at the high
    level and checked against the low one.  Returns (values, trunc_bounds).
    """
    values, bounds = np.zeros((2, len(integrands)))
    for i, levels in enumerate(plan):
        hi, lo = (sums(integrands) for _, sums in levels)
        p = [float(f.pole_exponents[i]) for f in integrands]
        # The octave shell sums of exponent p decay with ratio 2^-(N-p).
        value, diff, err = _two_level(hi, lo, lambda k, shells: _closed_sum(
            shells, 2.0 ** (-(cfg.dim - p[k])), not _borderline(p[k], cfg.dim)
        ))
        values += value
        bounds += diff + err
    return values, bounds


# Region (b)'s grid: the most strata per axis s for which each of the s^N
# strata still gets _STRATUM_SAMPLES samples, up to _STRATA_CAP strata per
# axis.  An antithetic pair mean in a cube of side h errs by O(h^2), so at a
# fixed budget the variance falls like h^4: many cells of two pairs beat few
# cells of many (Haber 1967).  The z check of the mid region set the
# constants: at N = 3 six samples per stratum, at N = 4 twelve, where six
# understated the bars.  N >= 5, which no z check covers, keep 48.
_STRATUM_SAMPLES = {3: 6, 4: 12}
_STRATA_CAP = {3: 64, 4: 24, 5: 8, 6: 6}


def _strata_grid(dim: int, mc_samples: int):
    """Strata per axis of region (b): the largest s with s^N strata of
    _STRATUM_SAMPLES samples each in mc_samples, clipped to [2, cap]."""
    per = _STRATUM_SAMPLES.get(dim, 48)
    s = round((mc_samples / per) ** (1.0 / dim))
    if s**dim * per > mc_samples:
        s -= 1
    return int(np.clip(s, 2, _STRATA_CAP.get(dim, 4)))


# Rounding margin of the dead-stratum test, in units of far_radius: far
# above the few ulps by which a computed node or distance may stray.
_DEAD_MARGIN = 1e-9

# A live stratum at distance d from the nearest pole gets pairs in
# proportion to (1 + d / pole_radius)^-_PAIR_DECAY.  The V- and W-masses
# grow like |x - a_i|^-2 toward a pole, so their spread over a stratum
# falls about as d^-2 with its distance (Neyman allocation, n_s ~ sigma_s);
# a steeper decay cut the variance further but starved the far strata,
# whose variance estimates then put more than 1% of the z-scores past 3.
_PAIR_DECAY = 2

# Region (b) sums its per-stratum moments over blocks of this many strata
# (in stratum order), and only then over the blocks (math.fsum); slices of
# the region are cut at block edges, so no block is ever split.  At N = 3
# and 4e5 samples a block holds about 370 pairs, at most about 1000: half
# the slice floor, so whole blocks keep the slices near their cap.
_STRATA_BLOCK = 128


def _grid_sum(terms):
    """sum_d terms[d][k_d] at every grid point (k_1, .., k_N), as an array of
    shape (len(terms[0]), .., len(terms[-1])): the 1-D terms broadcast
    against each other and added in axis order."""
    return reduce(np.add.outer, terms)


def _live_strata(cfg, spec, s):
    """Flat indices, in increasing (C) order, of the strata of an s^N grid
    whose box can hold a node of the mid region.

    A stratum is dead if its box lies outside B(0, far_radius), where the far
    weight is exactly 1 and every pole weight is 0 (the far ball encloses
    the pole balls), or inside a pole core B(a_i, 0.7 pole_radius), which
    the core mask drops.  Both tests keep a margin of _DEAD_MARGIN *
    far_radius, so no rounding of a node or of its distances can carry it
    across either boundary: every node of a dead stratum has
    _mid_partition's mask False.  Both are built per axis: a box's nearest
    point to the origin and its farthest corner from a pole are per-axis
    choices, so their squared distances are sums of 1-D terms (`_grid_sum`).
    A box inside a core has every coordinate range inside it, so each pole
    is tested on that sub-grid only.
    """
    R = spec.far_radius
    slack = _DEAD_MARGIN * R
    lo = -R + np.arange(s) * (2.0 * R / s)
    hi = lo + 2.0 * R / s
    near = np.maximum(np.maximum(lo, -hi), 0.0)
    dead = np.sqrt(_grid_sum([near**2] * cfg.dim)) >= R + slack
    core = _POLE_FADE_START * spec.pole_radius - slack
    for pole in cfg.poles:
        far = [np.maximum(np.abs(lo - a), np.abs(hi - a)) for a in pole]
        axes = [np.flatnonzero(f <= core) for f in far]
        inside = np.sqrt(_grid_sum([f[k] ** 2 for f, k in zip(far, axes)])) <= core
        dead[np.ix_(*axes)] |= inside
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


def _mid_pairs(cfg, spec):
    """The strata of region (b) and the pair count of each live one.

    Returns (h, grid, n): the box side h, the integer coordinates of the
    live strata (`_live_strata`, in increasing stratum order) and their
    pair counts.  S live strata of the C of the grid (`_strata_grid`) spend
    the live share of mc_samples / 2, B = round(mc_samples * S / (2 C))
    pairs.  Stratum s gets n_s = max(2, floor(c * w_s)), with weight
    w_s = (1 + d_s / pole_radius)^-_PAIR_DECAY, d_s the distance from its
    box to the nearest pole, and c water-filled: sum_s max(2, c * w_s) = B,
    so sum n_s <= B (unless B < 2 S, when every stratum gets 2).  c is
    found by Newton's method from above on that convex, piecewise-linear
    sum (the strata above the floor of 2 are its active set), and then
    taken as (B - 2 (S - |active|)) / fsum(w_active), which no summation
    order can change.  d_s is built per axis, from 1-D terms at each
    live stratum's coordinates.
    """
    dim = cfg.dim
    R = spec.far_radius
    s = _strata_grid(dim, spec.mc_samples)
    h = 2.0 * R / s
    live = _live_strata(cfg, spec, s)
    grid = np.stack(np.unravel_index(live, (s,) * dim), axis=1)
    lo = -R + np.arange(s) * h
    hi = lo + h
    dist2 = None
    for pole in cfg.poles:
        gap2 = [np.maximum(np.maximum(lo - a, a - hi), 0.0) ** 2 for a in pole]
        d2 = gap2[0][grid[:, 0]]
        for axis in range(1, dim):
            d2 = d2 + gap2[axis][grid[:, axis]]
        dist2 = d2 if dist2 is None else np.minimum(dist2, d2)
    w = (1.0 + np.sqrt(dist2) / spec.pole_radius) ** -_PAIR_DECAY

    S = len(live)
    budget = round(spec.mc_samples * S / (2 * s**dim))
    if budget <= 2 * S:
        return h, grid, np.full(S, 2, dtype=np.int64)
    active = np.ones(S, dtype=bool)
    while True:
        c = (budget - 2 * (S - active.sum())) / w[active].sum()
        above = active & (c * w > 2.0)
        if above.sum() == active.sum():
            break
        active = above
    c = (budget - 2 * (S - active.sum())) / math.fsum(w[active].tolist())
    return h, grid, np.maximum(2, np.floor(c * w).astype(np.int64))


def _mid_region(integrands, cfg, spec, pairs):
    """Region (b): stratified MC over the blended bounded complement.

    Samples come in antithetic pairs (u, 1-u) within each stratum (cell).
    Only the live strata (`_live_strata`) get pairs, and their pair counts
    (`pairs`, from `_mid_pairs`) depend on the spec and the geometry only,
    so the node set is a pure function of them: it does not depend on
    which integrands share the batch, and Gram-type computations reuse
    identical nodes across batch compositions.  The uniforms of every pair
    come from one Philox stream keyed by the seed, stratum by stratum in
    stratum order; each slice draws its own in turn, which gives the same
    numbers as one draw for the whole call.

    The work is a slice of whole blocks of _STRATA_BLOCK strata at a time,
    and a slice builds its points when it is evaluated: per antithetic
    half, the points of the slice's pairs, their `_mid_partition`, and
    every integrand in turn on the kept ones (`_eval_batch`).  Each half's
    values are added at their pairs' positions into the slice's zeroed
    pair values, so a pair holds the sum of its two halves, a dropped node
    counting as 0 (adding into +0 can at most turn a -0 into +0, which no
    bin sum, started at +0, can see).  Antithetic pairs cancel the linear
    part of smooth integrands; the variance estimate treats pair averages
    as the iid unit, each stratum's mean and variance taken over its own
    n_s pairs, both from one bincount index per slice, each bin in node
    order.  A second bincount sums the strata's means and mean variances
    over each block, in stratum order, and math.fsum sums each integrand's
    block sums: the blocks are fixed by the plan and never split, so the
    batch size, which sets the slices, changes no bit, and no array of
    one entry per integrand and stratum is held.  Returns (values,
    stderrs).
    """
    R = spec.far_radius
    h, grid, n = pairs
    bounds = np.concatenate([[0], np.cumsum(n)])
    # edges[b] is the first stratum of block b; edges[-1] the stratum count.
    edges = np.append(np.arange(0, len(n), _STRATA_BLOCK), len(n))
    rng = np.random.Generator(np.random.Philox(key=spec.seed ^ _REGION_MID))
    K = len(integrands)
    blocks = np.empty((2, K, len(edges) - 1))

    def block_moments(i, j):
        """Sums (K, j - i) over each of blocks i:j of its strata's means and
        mean variances; its arrays are freed on return."""
        first, last = edges[i], edges[j]
        a, b = bounds[first], bounds[last]
        n_s = n[first:last]
        u = rng.random((b - a, cfg.dim))
        corner = np.repeat(grid[first:last], n_s, axis=0)
        vals = np.zeros((K, b - a))
        for half in (u, 1.0 - u):
            mask, pts, weight = _mid_partition(-R + (corner + half) * h, cfg, spec)
            vals[:, mask] += _eval_batch(integrands, pts, weight)
        vals *= 0.5
        stratum = np.repeat(np.arange(last - first), n_s)
        sums, sumsq = _binned(stratum, last - first, vals, vals**2)
        mean = sums / n_s
        var = np.maximum(0.0, sumsq / n_s - mean**2)
        # Unbiased variance of the stratum mean over antithetic pairs.
        block = np.repeat(np.arange(j - i), np.diff(edges[i : j + 1]))
        return _binned(block, j - i, mean, var / (n_s - 1))

    for i, j in _slices(bounds[edges], K):
        blocks[:, :, i:j] = block_moments(i, j)

    cell_vol = h**cfg.dim
    values = [cell_vol * math.fsum(row.tolist()) for row in blocks[0]]
    stderrs = [cell_vol * math.sqrt(math.fsum(row.tolist())) for row in blocks[1]]
    return np.array(values), np.array(stderrs)


def _far_plan(dim, spec, support):
    """Region (c)'s rules for one support radius: (levels, rho_decl).

    The shells run from `support` (or _FAR_CUT * far_radius) in to
    far_radius, plateau shells about half an octave wide, then the collar
    shell down to the far onset; every shell carries the rising far weight.
    levels holds that shell rule at the high and the low level of
    `_level_orders`, each a (nodes, sums) pair, and is empty when the
    support ends inside the onset, so that region (c) is empty.  rho_decl
    is the declared ratio q^-_TAIL_EXPONENT of successive plateau sums of
    an unbounded integrand, q the shell ratio.
    """
    R = spec.far_radius
    r_t = _TAIL_RISE_START * R
    r_out = _FAR_CUT * R if support is None else support
    if r_out <= r_t:
        return [], 0.0
    # The rise weight clamps to exactly 1 at far_radius; ending the collar
    # shell there keeps every Gauss panel on an analytic integrand.
    plateau = _log_edges(R, r_out) if r_out > R else np.array([r_out])
    edges = np.append(plateau, r_t)
    levels = [
        _shell_rule(
            np.zeros(dim), edges, q, order, lambda r: _tail_partition_weight(r, R)
        )
        for q, order in _level_orders(dim, _RADIAL_ORDER)
    ]
    return levels, (edges[0] / edges[1]) ** -_TAIL_EXPONENT


def _far_region(integrands, support, plan):
    """Region (c) on the far shells of one support radius.

    One collar shell over [0.8, 1] * far_radius carries the rising far
    weight; log-spaced plateau shells run on to `support`, or for unbounded
    support to _FAR_CUT * far_radius plus a geometric closure (`plan` is
    that support's `_far_plan`).  The caller passes the integrands of this
    support only, and each is integrated on these shells.  Returns
    (values, trunc_bounds) per integrand, each term reported at the high
    level and checked against the low one; a trunc bound adds the collar's
    and the plateau's two-level differences and the closure uncertainty.
    """
    levels, rho_decl = plan
    if not levels:
        return np.zeros((2, len(integrands)))
    hi, lo = (sums(integrands) for _, sums in levels)
    # The collar is the last shell; an unbounded plateau is closed from the
    # inside out.
    collar, collar_diff, _ = _two_level(hi[:, -1:], lo[:, -1:], _unclosed)
    value, diff, err = _two_level(
        hi[:, :-1], lo[:, :-1],
        lambda k, shells: _closed_sum(shells[::-1], rho_decl, support is None),
    )
    return collar + value, collar_diff + diff + err


def _inner_groups(integrands):
    """The integrands evaluated on the pole balls and the mid region.

    Returns (inner, rep): inner lists, in batch order, the integrands with
    no `Integrand.inner` key and the first integrand of each key; the
    pole and mid values of integrand k are those of inner[rep[k]].  Raises
    ValueError for a key whose integrands differ in pole exponents or
    truncation flag, which would close or flag the shared sums differently.
    """
    first, inner, rep = {}, [], []
    for f in integrands:
        k = None if f.inner is None else first.get(f.inner)
        if k is None:
            k = len(inner)
            inner.append(f)
            if f.inner is not None:
                first[f.inner] = k
        elif (
            list(map(float, f.pole_exponents)) != list(map(float, inner[k].pole_exponents))
            or f.allow_truncation != inner[k].allow_truncation
        ):
            raise ValueError(
                f"integrands {inner[k].name!r} and {f.name!r} share the inner "
                f"key {f.inner!r} but differ in pole exponents or truncation flag"
            )
        rep.append(k)
    return inner, np.array(rep, dtype=np.intp)


def integrate_many(fields, cfg: PoleConfig, spec: QuadratureSpec):
    """Integrate several integrands on one shared domain decomposition.

    The pole balls and the mid region share one node set over the whole
    batch; the far shells run once per distinct support_radius, for the
    integrands of that support, so every value depends only on the spec
    and its own integrand.  Pole exponents and support radii may differ per
    integrand.  Integrands that share an `Integrand.inner` key are
    evaluated once on the pole balls and the mid region, by the first of
    them, and each on the far shells of its own support; a member of such
    a group gives what it gives passed alone, if it equals the first at
    every node inside B(0, far_radius), as the key declares.  A field may
    be a callable or an Integrand.  Returns a list of IntegralResult in
    input order; no fields give an empty list, once the spec is validated.

    Evaluation is slice-major.  Each rule (a pole ball or far-shell pass,
    the mid region) cuts its nodes once into slices for the integrands
    that take part in it (each antithetic half of a mid-region slice is a
    slice of its own), and on each slice calls each of them once, in batch
    order and with the same array object, before it moves to the next
    slice.  An evaluator may therefore keep the work of a slice, keyed on
    the identity of that array, for the later integrands of the batch.
    """
    integrands = [_as_integrand(f, cfg) for f in fields]
    _validate_spec(cfg, spec)
    if not integrands:
        return []
    for f in integrands:
        if f.allow_truncation:
            for i, p in enumerate(f.pole_exponents):
                if p > cfg.dim + _BORDERLINE_TOL:
                    raise NonIntegrableSingularity(
                        f"pole {i}: exponent {p} exceeds N = {cfg.dim}; "
                        f"divergence is polynomial, not truncatable"
                    )
        else:
            local_integrability_check(f.pole_exponents, cfg.dim)

    # One plan of every rule's nodes: the cap, the cells and the run all
    # read it.  The inner integrands are evaluated on the pole and mid
    # nodes, every integrand on the far shells of its own support.
    inner, rep = _inner_groups(integrands)
    poles = _pole_plan(cfg, spec)
    pairs = _mid_pairs(cfg, spec)
    supports = [f.support_radius for f in integrands]
    far = {s: _far_plan(cfg.dim, spec, s) for s in dict.fromkeys(supports)}
    shared = sum(_plan_nodes(ball) for ball in poles) + 2 * int(pairs[2].sum())
    far_nodes = {s: _plan_nodes(levels) for s, (levels, _) in far.items()}
    est_evals = len(inner) * shared + sum(far_nodes[s] for s in supports)
    if est_evals > MAX_EVALS:
        raise BudgetExceeded(
            f"about {est_evals:.2e} evaluations requested; cap is {MAX_EVALS:.2e}"
        )

    pole_vals, pole_truncs = (a[rep] for a in _pole_region(inner, cfg, poles))
    mid_vals, mid_errs = (a[rep] for a in _mid_region(inner, cfg, spec, pairs))
    far_vals, far_truncs = np.zeros((2, len(integrands)))
    for support, plan in far.items():
        at = [k for k, f in enumerate(integrands) if f.support_radius == support]
        far_vals[at], far_truncs[at] = _far_region(
            [integrands[k] for k in at], support, plan
        )
    cells = shared + sum(far_nodes.values())
    eta = spec.pole_radius * 2.0 ** (-spec.radial_levels)
    truncated = [_borderline(max(f.pole_exponents), cfg.dim) for f in integrands]

    return [
        IntegralResult(
            value=math.fsum([pole_vals[k], mid_vals[k], far_vals[k]]),
            stderr=float(mid_errs[k]),
            trunc_bound=pole_truncs[k] + far_truncs[k],
            cells=cells,
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
) -> IntegralResult:
    """Deterministic product rule over the annulus r_in <= |x| <= r_out.

    Used for integrands supported on an origin-centred annulus (cutoff
    gradients).  The reported level is the pass at _RADIAL_ORDER; the
    check level is the low level of `_level_orders`, and the error
    estimate is their difference (`_two_level`).
    """
    if not 0 < r_in < r_out:
        raise ValueError(f"need 0 < r_in < r_out, got ({r_in}, {r_out})")
    f = Integrand(func=func, pole_exponents=[])
    edges = _log_edges(r_in, r_out)
    levels = [
        _shell_rule(np.zeros(dim), edges, q, order)
        for q, order in _level_orders(dim, _RADIAL_ORDER)
    ]
    fine, coarse = (sums([f]) for _, sums in levels)
    (value,), (diff,), (err,) = _two_level(fine, coarse, _unclosed)
    return IntegralResult(
        value=float(value), stderr=0.0, trunc_bound=float(diff + err),
        cells=_plan_nodes(levels),
    )


def integrate_pole_ball(
    func,
    cfg: PoleConfig,
    pole_index: int,
    radius: float | Sequence[float],
    levels: int,
    exponent: float,
) -> IntegralResult | list[IntegralResult]:
    """Integrate over the ball B(a_i, radius), or a dyadic ladder of balls.

    i is `pole_index`, in [0, n_poles).  Each ball gets `levels` (>= 1)
    octave shells.  The unresolved inner ball is closed by the
    geometric-tail rule for a strict exponent p < N, so the result
    approximates the full ball.  The reported level is the pass at
    _RADIAL_ORDER and the default angular order; the check level
    is the pass one step higher (3 more radial points, half again the
    angular order), whose low level (`_level_orders`) is the reported one.
    The bound is their difference plus the reported level's inner-closure
    uncertainty (`_two_level`), so it estimates the error of the reported
    value itself.

    radius is a float, which gives one IntegralResult, or a ladder of m
    nested radii r_0 * 2^-k, k = 0 .. m-1, which gives a list of m; each
    entry must equal r_0 * 2.0**-k exactly, else ValueError.  Ball k's
    shells, with edges r_0 * 2^-(k+j), are shells k .. k + levels - 1 of
    one pass over levels + m - 1 shells from r_0, so each level runs one
    pass for the whole ladder.  Ball k's value is the fsum of its window
    plus the inner closure of that window: every node, shell sum, value
    and error is, bit for bit, that of the ball integrated alone.  cells
    counts the nodes of the whole call.
    """
    local_integrability_check([exponent], cfg.dim)
    if not 0 <= pole_index < cfg.n_poles:
        raise ValueError(f"pole_index must be in [0, {cfg.n_poles}), got {pole_index}")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    radii = np.atleast_1d(np.asarray(radius, dtype=float))
    m = radii.size
    if (
        radii.ndim != 1
        or m == 0
        or not radii[0] > 0.0
        or not np.array_equal(radii, radii[0] * 2.0 ** -np.arange(m, dtype=float))
    ):
        raise ValueError(
            f"radius must be > 0 or a ladder r0 * 2**-k with r0 > 0, got {radius!r}"
        )
    f = Integrand(func=func, pole_exponents=[exponent] * cfg.n_poles)
    order = _ANGULAR_ORDER.get(cfg.dim, 4)
    # The high level one step up, whose derived low level is exactly
    # (_RADIAL_ORDER, order).
    passes = [
        _pole_ball_pass(
            cfg.poles[pole_index], radii[0], levels + m - 1, q, angular, fade=False
        )
        for q, angular in _level_orders(cfg.dim, _RADIAL_ORDER + 3, (3 * order + 1) // 2)
    ]

    # Ball k's shells are the window k .. k + levels - 1 of each pass.
    fine, coarse = (
        np.lib.stride_tricks.sliding_window_view(sums([f])[0], levels)
        for _, sums in passes
    )
    n = _plan_nodes(passes)
    results = [
        IntegralResult(value=value, stderr=0.0, trunc_bound=diff + err, cells=n)
        for value, diff, err in _two_level(
            coarse, fine,
            lambda k, shells: _closed_sum(shells, 2.0 ** (-(cfg.dim - exponent))),
        ).T
    ]
    return results[0] if np.ndim(radius) == 0 else results


def sphere_flux(vector_func, center, radius: float, dim: int,
                angular_order: int | None = None) -> float:
    """Outward flux of a vector field through the sphere |x - center| = radius."""
    dirs, wts = unit_sphere_rule(dim, angular_order)
    pts = np.asarray(center, dtype=float)[None, :] + radius * dirs
    vec = np.asarray(vector_func(pts), dtype=float)
    flux = np.einsum("kn,kn,k->", vec, dirs, wts)
    return float(flux * radius ** (dim - 1))
