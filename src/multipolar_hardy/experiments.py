"""Headline experiments: sharpness sweeps, identity surfaces, spectra.

Five families of runnable evidence:

* `verify_identity` measures the integral identity and the Hardy ratio
  over a corpus of test functions;
* `optimality_sweep` drives the near-optimal test functions toward the
  sharp constant and fits the decay rate of the remainder;
* `beta_sweep` traces the general-exponent identity and the concave
  coefficient whose vertex gives the companion constant;
* `spectral_bound` brackets the best constant from above by restricting
  the generalized Rayleigh quotient to a finite span;
* `h2_certify` / `h3_h4_certify` sample the weight hypotheses that the
  theorems assume, since the underlying constants are not tabulated
  anywhere and must be validated per configuration.

Each family has a verdict function (`verify_verdict`,
`optimality_verdict`, `beta_sweep_verdict`, `spectral_verdict`,
`certify_verdict`) that applies the pass/fail gates to the records above,
so every caller reads the same gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import (
    HardyParams,
    PoleConfig,
    WeightSpec,
    derive_params,
    enclosing_radius,
    far_field_decay_exponent,
    min_pole_gap,
    validate_config,
)
from .errors import (
    ConfigError,
    EpsilonInadmissible,
    MultipolarHardyError,
    NonIntegrableSingularity,
    NonpositiveBeta,
    SinglePole,
    SingularGram,
    UnboundedSuspected,
    ZeroVMass,
)
from .fields import potential_w, vector_field_f, weight_value
from .functionals import (
    EnergyReport,
    OptimalityPhi,
    TestFunction,
    _core,
    _derived,
    _entries,
    _residual,
    energy_report,  # unused here; mhbench/tracer.py rebinds this module attribute
    energy_reports,
    hardy_ratio,
    max_admissible_eps,
)
from .quadrature import (
    QuadratureSpec,
    _two_level,
    _unclosed,
    integrate_many,
    integrate_pole_ball,
    sphere_flux,
)

__all__ = [
    "IdentityRecord",
    "SweepRecord",
    "RateFit",
    "BetaRecord",
    "BetaSweepResult",
    "SpectralResult",
    "HypothesisReport",
    "Verdict",
    "DEFAULT_EPS_GRID",
    "h4_local_exponent",
    "h4i_status",
    "verify_identity",
    "fit_remainder_rate",
    "optimality_sweep",
    "beta_sweep",
    "spectral_bound",
    "h2_certify",
    "h3_h4_certify",
    "verify_verdict",
    "optimality_verdict",
    "beta_sweep_verdict",
    "spectral_verdict",
    "certify_verdict",
]

#: Geometric cutoff-parameter grid, intersected with the admissibility
#: bound before use.
DEFAULT_EPS_GRID = tuple(0.4 * 2.0**-k for k in range(6))

#: Philox stream label for certification sampling (distinct from the
#: quadrature region streams).
_REGION_CERTIFY = 29

_H4_TOL = 1e-9


@dataclass(frozen=True)
class IdentityRecord:
    """Energies of one test function with its identity residual and ratio.

    `flux` closes the identity when the energies were truncated (it is 0
    otherwise); `hardy_ratio` and `ratio_error` are None when the V-mass
    is indistinguishable from zero.
    """

    report: EnergyReport
    residual: float
    residual_error: float
    flux: float
    flux_error: float
    truncated: bool
    hardy_ratio: float | None
    ratio_error: float | None


@dataclass(frozen=True)
class SweepRecord:
    """One point of the sharpness sweep.

    ``deficit = dirichlet + w_mass - c * v_mass`` is the quantity whose
    vanishing proves the constant sharp.  On borderline configurations the
    integrals carry an inner truncation at radius eta; the identity then
    picks up the outward flux of the comparison field through the excised
    spheres, reported in `flux`, and ``deficit = remainder + flux`` up to
    quadrature error.  For integrable configurations ``flux == 0``.
    """

    eps: float
    remainder: float
    remainder_error: float
    hardy_ratio: float
    ratio_error: float
    deficit: float
    deficit_error: float
    flux: float = 0.0
    flux_error: float = 0.0
    truncated: bool = False


@dataclass(frozen=True)
class RateFit:
    """Least-squares power law for the remainder decay.

    The fit is ``log remainder ~ slope * log eps + intercept`` over the
    sweep points whose remainder exceeds ten times its error estimate.
    `predicted_slope` is ``(N + K_mu - 2) + K_mu + g`` where ``g`` is the
    far-field decay exponent of the weight (0 for the unit weight,
    ``n * gamma`` for the pure-power family, infinite with an exponential
    factor, in which case no finite rate is asserted).
    """

    slope: float
    intercept: float
    r_squared: float
    predicted_slope: float
    points_used: int


@dataclass(frozen=True)
class BetaRecord:
    """One row of the general-exponent sweep: the inverse-square
    coefficient, and the identity residual with its error estimate."""

    beta: float
    coefficient: float
    residual: float
    residual_error: float


@dataclass(frozen=True)
class BetaSweepResult:
    """General-exponent sweep table plus its argmax summary.

    ``coefficient(beta) = beta (N + K_mu - 2) - n beta^2`` is the weight
    multiplying the inverse-square mass in the general identity; its
    vertex sits at ``(N + K_mu - 2)/(2n)`` with value
    ``(N + K_mu - 2)^2 / (4n)``.
    """

    records: tuple[BetaRecord, ...]
    argmax_beta: float
    max_coefficient: float
    vertex_beta: float
    vertex_value: float


@dataclass(frozen=True)
class SpectralResult:
    """Smallest generalized Rayleigh quotient over a finite span.

    `witness` holds the coefficients of the minimizing combination in the
    original basis order, signed so that its largest-magnitude entry (the
    first such on a tie) is positive; `rank` is the dimension of the subspace that
    survived the near-dependence screening of the V-Gram.
    `lambda_error` is the first-order perturbation bound of lambda_min as
    the root of ``w^T (A - lambda B) w`` at the witness w: the derived-bar
    rule (`functionals._derived`) over the entries, with coefficients
    ``w_i w_j`` on A and ``-lambda w_i w_j`` on B, divided by ``w^T B w``.
    `gram` holds the assembled matrices ``(A, B, A_error, B_error)`` (None
    for a result built by hand); `prefix` solves the pencil of a leading
    part of the basis on their leading blocks.
    """

    basis_size: int
    lambda_min: float
    lambda_error: float
    witness: np.ndarray
    rank: int
    gram: tuple[np.ndarray, ...] | None = field(
        default=None, repr=False, compare=False
    )

    def prefix(self, size: int) -> "SpectralResult":
        """The bound over the first `size` basis functions.

        Solved on the leading size x size blocks of `gram`.  The node set
        does not depend on the batch, so this equals ``spectral_bound`` on
        ``basis[:size]`` bit for bit, without assembling it again.
        """
        if self.gram is None or not 1 <= size <= self.basis_size:
            raise ConfigError(
                f"prefix size must lie in 1..{self.basis_size} of an "
                f"assembled result, got {size}"
            )
        return _pencil_minimum(*(m[:size, :size] for m in self.gram))


@dataclass(frozen=True)
class HypothesisReport:
    """Pass/fail evidence for the weight hypotheses.

    Attributes
    ----------
    h3_pass : bool
        Whether ``delta^-2 * integral of mu over B(a_i, delta)`` decreases
        toward zero along ``delta = delta_0 2^-k`` for every pole.
    h3_deltas, h3_values, h3_errors : np.ndarray
        The delta grid and the per-pole tables of scaled ball masses and
        their quadrature error estimates, shape ``(n_poles, len(h3_deltas))``.
    h4i_exponent : float
        The critical local exponent ``(2/n)(N + K_mu - 2) + 2 + gamma``.
    h4i_status : str
        ``"strict"`` when the exponent clears the dimension with margin,
        ``"borderline"`` at equality (sharpness statements then hold in
        the truncated sense), ``"fail"`` otherwise.
    h4ii_pass : bool
        Far-field domination ``mu <= C |x|^-g`` with an admissible decay
        exponent ``g > -(N + 2 K_mu - 2)``.
    h4ii_decay, h4ii_sup : float
        The decay exponent used and the sampled supremum of
        ``mu(x) |x|^g`` over the far region.
    h4ii_error : float or None
        The spread between the suprema of the two interleaved halves of
        the sample; None where nothing is sampled (unit weight,
        exponential decay).
    """

    h3_pass: bool
    h3_deltas: np.ndarray
    h3_values: np.ndarray
    h3_errors: np.ndarray
    h4i_exponent: float
    h4i_margin: float
    h4i_status: str
    h4ii_pass: bool
    h4ii_decay: float
    h4ii_sup: float
    h4ii_error: float | None = None


def h4_local_exponent(cfg: PoleConfig, w: WeightSpec, k_mu: float) -> float:
    """Critical per-pole exponent of the optimality candidate's V-mass.

    The candidate's V-mass integrand behaves like ``r^-p`` with
    ``p = (2/n)(N + K_mu - 2) + 2 + gamma`` near each pole; local
    integrability demands ``p < N``.
    """
    gamma = 0.0 if w.is_unit else w.gamma
    n = cfg.n_poles
    return (2.0 / n) * (cfg.dim + k_mu - 2.0) + 2.0 + gamma


@dataclass(frozen=True)
class Verdict:
    """Outcome of one experiment's gates: whether all passed, the global
    gates by name (``"skipped"`` where one does not apply), and one dict
    of per-record flags for each record."""

    passed: bool
    summary: dict
    rows: tuple[dict, ...] = ()


def h4i_status(cfg: PoleConfig, w: WeightSpec, k_mu: float) -> str:
    """H4 i) from the margin ``N - p`` of the local exponent: ``"strict"``,
    ``"borderline"`` (equality up to rounding) or ``"fail"``."""
    margin = cfg.dim - h4_local_exponent(cfg, w, k_mu)
    if margin > _H4_TOL:
        return "strict"
    if margin >= -_H4_TOL:
        return "borderline"
    return "fail"


# Angular orders of the excised-sphere flux: the reported and the check level.
_FLUX_ORDER = 3
_FLUX_CHECK_ORDER = 7


def _sweep_flux(phi: OptimalityPhi, cfg, w, beta, eta) -> tuple[float, float]:
    """Total outward flux of phi^2 * F through the excised pole spheres.

    F = -(grad f / f) mu is the comparison field; on borderline
    configurations the energy integrals stop at |x - a_i| = eta and the
    integral identity closes with this boundary term.  On a sphere that
    small the field is the pole's power law times a factor constant to
    about eta over the distance to the other poles and to the test
    function's scale, so, as on the deep pole shells, a low angular order
    resolves it: the flux is reported at order 3 and checked against
    order 7 (`quadrature._two_level`), whose difference is its error
    estimate.
    """

    def field(x):
        v = phi.value(x)
        return (v * v)[:, None] * vector_field_f(x, cfg, w, beta)

    reported, check = (
        [[sphere_flux(field, a, eta, cfg.dim, angular_order=q) for a in cfg.poles]]
        for q in (_FLUX_ORDER, _FLUX_CHECK_ORDER)
    )
    (value,), (diff,), _ = _two_level(reported, check, _unclosed)
    return float(value), float(diff)


def _gap(report: EnergyReport, x: float) -> tuple[float, float]:
    """``dirichlet + w_mass - x v_mass`` and its bar (`_derived`): the
    optimality deficit at ``x = c_n_mu``, and at the Hardy ratio the
    combination whose root it is."""
    return _derived(
        (c, r.value, r.error)
        for c, r in ((1.0, report.dirichlet), (1.0, report.w_mass),
                     (-x, report.v_mass))
    )


def verify_identity(
    cfg: PoleConfig, w: WeightSpec, p: HardyParams, functions, spec: QuadratureSpec
) -> list[IdentityRecord]:
    """Energy report, identity residual and Hardy ratio of each function.

    The whole corpus is one `energy_reports` call, so one `integrate_many`
    call on one node set.  Optimality candidates on a configuration that
    does not satisfy H4 i) strictly are integrated with inner truncation;
    the identity is then closed by the outward flux through the excised
    pole spheres.  The excised spheres |x - a_i| = eta lie inside the
    plateau of every admissible member, where each member of one exponent
    is the Hardy factor, so the flux is computed once per (`_core`, eta)
    and shared by those members.
    """
    truncate = h4i_status(cfg, w, p.k_mu) != "strict"
    allow = [truncate and isinstance(phi, OptimalityPhi) for phi in functions]
    reports = energy_reports(
        functions, cfg, w, p, spec, [p.beta], allow_truncation=allow
    )
    reach = float(np.max(np.linalg.norm(cfg.poles, axis=1)))
    fluxes = {}
    records = []
    for phi, (rep,) in zip(functions, reports):
        truncated = rep.v_mass.truncated or rep.dirichlet.truncated
        flux = (0.0, 0.0)
        if truncated:
            eta = rep.v_mass.eta
            key = (_core(phi, reach + eta), eta)
            if key not in fluxes:
                fluxes[key] = _sweep_flux(phi, cfg, w, p.beta, eta)
            flux = fluxes[key]
        # The flux closes the identity of a truncated row: one more term.
        residual, residual_error = _residual(rep, p, [(-1.0, *flux)])
        try:
            ratio = hardy_ratio(rep)
        except ZeroVMass:
            ratio = ratio_error = None
        else:
            ratio_error = _gap(rep, ratio)[1] / rep.v_mass.value
        records.append(
            IdentityRecord(
                report=rep,
                residual=residual,
                residual_error=residual_error,
                flux=flux[0],
                flux_error=flux[1],
                truncated=truncated,
                hardy_ratio=ratio,
                ratio_error=ratio_error,
            )
        )
    return records


def optimality_sweep(
    cfg: PoleConfig,
    w: WeightSpec,
    p: HardyParams,
    eps_list=None,
    spec: QuadratureSpec | None = None,
    *,
    R: float | None = None,
    fit: bool = True,
) -> tuple[list[SweepRecord], RateFit | None]:
    """Drive the cutoff parameter down and record the sharpness evidence.

    For each admissible ``eps`` the near-optimal function ``theta_eps f``
    is assembled and its energies measured; the remainder must decrease
    with a power-law rate matching the weight's decay bookkeeping, and
    the Hardy ratio must descend toward the optimal constant.

    Parameters
    ----------
    cfg, w, p
        Pole geometry, weight, and derived constants.
    eps_list : sequence of float, optional
        Decreasing cutoff parameters; defaults to `DEFAULT_EPS_GRID`.
        Values above the admissibility bound are dropped.
    spec : QuadratureSpec
        Quadrature discretization (required).
    R : float, optional
        Cutoff reference radius; defaults to the enclosing radius of the
        pole balls at half the minimal gap.
    fit : bool
        Set False to skip the rate fit (useful for short diagnostic
        grids); the second return value is then None.

    Returns
    -------
    (records, fit)
        Sweep rows in decreasing ``eps`` order and the rate fit.

    Raises
    ------
    SinglePole
        If the configuration has fewer than two poles (V vanishes).
    EpsilonInadmissible
        If no ``eps`` of the grid is admissible.
    NonIntegrableSingularity
        If the candidate's local exponent exceeds the dimension.
    MultipolarHardyError
        If fewer than four sweep points resolve the remainder.
    """
    validate_config(cfg, w)
    if spec is None:
        raise ConfigError("optimality_sweep requires a QuadratureSpec")
    if cfg.n_poles < 2:
        raise SinglePole(
            "the sharpness sweep needs n >= 2: V vanishes identically "
            "for a single pole"
        )
    if R is None:
        R = enclosing_radius(cfg, min_pole_gap(cfg))
    limit = max_admissible_eps(cfg, R)
    grid = DEFAULT_EPS_GRID if eps_list is None else tuple(eps_list)
    eps_values = [e for e in grid if e <= limit]
    if not eps_values:
        raise EpsilonInadmissible(
            f"no eps of {list(grid)} is <= max_admissible_eps(R={R:.6g}) = {limit:.6g}"
        )
    if sorted(eps_values, reverse=True) != eps_values:
        raise ConfigError("eps_list must be decreasing")

    if h4i_status(cfg, w, p.k_mu) == "fail":
        pexp = h4_local_exponent(cfg, w, p.k_mu)
        raise NonIntegrableSingularity(
            f"optimality candidate has local exponent {pexp:.6g} > N = "
            f"{cfg.dim}; hypothesis H4 i) fails for this configuration"
        )

    phis = [OptimalityPhi(cfg=cfg, R=R, eps=eps, beta=p.beta) for eps in eps_values]
    records = []
    for eps, rec in zip(eps_values, verify_identity(cfg, w, p, phis, spec)):
        if rec.hardy_ratio is None:
            raise ZeroVMass(f"optimality candidate at eps = {eps:g} has no V-mass")
        rep = rec.report
        deficit, deficit_error = _gap(rep, p.c_n_mu)
        records.append(
            SweepRecord(
                eps=eps,
                remainder=rep.remainder.value,
                remainder_error=rep.remainder.error,
                hardy_ratio=rec.hardy_ratio,
                ratio_error=rec.ratio_error,
                deficit=deficit,
                deficit_error=deficit_error,
                flux=rec.flux,
                flux_error=rec.flux_error,
                truncated=rec.truncated,
            )
        )

    rate = fit_remainder_rate(cfg, w, p, records) if fit else None
    return records, rate


def fit_remainder_rate(
    cfg: PoleConfig, w: WeightSpec, p: HardyParams, records
) -> RateFit:
    """Log-log least squares of remainder against eps over resolved points."""
    pts = [
        r
        for r in records
        if r.remainder > 10.0 * r.remainder_error and r.remainder > 0
    ]
    if len(pts) < 4:
        raise MultipolarHardyError(
            f"rate fit needs >= 4 sweep points with remainder above 10x its "
            f"error; got {len(pts)}"
        )
    x = np.log([r.eps for r in pts])
    y = np.log([r.remainder for r in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    decay = far_field_decay_exponent(cfg, w)
    predicted = (cfg.dim + p.k_mu - 2.0) + p.k_mu + decay
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        predicted_slope=predicted,
        points_used=len(pts),
    )


def beta_sweep(
    cfg: PoleConfig,
    w: WeightSpec,
    k_mu: float,
    beta_list,
    phi: TestFunction,
    spec: QuadratureSpec,
) -> BetaSweepResult:
    """Trace the general-exponent identity over a grid of exponents.

    Every ``beta > 0`` satisfies the identity; the interesting structure
    is the concave coefficient of the inverse-square mass, whose vertex
    yields the companion constant.  The residual column demonstrates the
    identity numerically at each grid point, from the energy report at
    that exponent; all reports come from one `energy_reports` call.
    """
    validate_config(cfg, w)
    betas = [float(b) for b in beta_list]
    if not betas:
        raise ConfigError("beta_list must be nonempty")
    p = derive_params(cfg, k_mu)
    n = cfg.n_poles
    shift = cfg.dim + k_mu - 2.0
    records = [
        BetaRecord(b, b * shift - n * b * b, *_residual(rep, p))
        for b, rep in zip(betas, energy_reports([phi], cfg, w, p, spec, betas)[0])
    ]
    best = max(records, key=lambda r: r.coefficient)
    return BetaSweepResult(
        records=tuple(records),
        argmax_beta=best.beta,
        max_coefficient=best.coefficient,
        vertex_beta=shift / (2.0 * n),
        vertex_value=p.c_nn_mu,
    )


_GRAM_CONDITION_CAP = 1e10


def spectral_bound(
    cfg: PoleConfig,
    w: WeightSpec,
    p: HardyParams,
    basis,
    spec: QuadratureSpec,
    *,
    allow_truncation: bool = False,
) -> SpectralResult:
    """Smallest generalized eigenvalue of the energy pencil over a span.

    Assembles ``A_ij = integral (grad phi_i . grad phi_j + W phi_i phi_j)
    dmu`` and ``B_ij = integral V phi_i phi_j dmu`` on shared nodes (one
    set for the pole balls and the mid region, far shells out to each
    pair's support) and solves ``A v = lambda B v``.  Each entry is one
    `Integrand`, built by `functionals._entries` from the ledger's kinds
    of the pair: ``dirichlet + w_mass`` at ``p.beta`` for A, ``v_mass``
    for B.  All of them share one `functionals._Nodes` per slice of
    nodes, so every basis function, its gradient, mu, V and W are
    evaluated once per node, from one pole frame per slice; the
    `OptimalityPhi` members of one exponent share one Hardy factor per
    slice, and a far-shell slice evaluates only the members of its
    support.  A member whose plateau clears far_radius is the Hardy factor
    at every pole and mid node, so the entries whose members agree there
    share one `Integrand.inner` key: the pole balls and the mid region
    integrate the first of them only, and each entry its own far shells.
    The minimum is an upper bound for the infimum of the Rayleigh quotient
    over all functions, so it approaches the optimal constant from above
    as the span is enriched with near-optimal members.  The result keeps
    the Gram matrices, and its `prefix` method gives the bound of every
    leading part of the basis from this one assembly.

    The V-Gram is screened for near-dependence: eigendirections below
    1e-10 of the largest eigenvalue are dropped before the (Cholesky-type)
    reduction to a standard symmetric problem.

    Raises
    ------
    ConfigError
        For an empty basis or more than 200 members.
    SingularGram
        If the V-Gram has no usable positive directions.
    """
    validate_config(cfg, w)
    m = len(basis)
    if m == 0 or m > 200:
        raise ConfigError(f"basis size must be in 1..200, got {m}")
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    entry = _entries(cfg, w, p, spec)
    integrands = [
        entry(f"{kind}_{i}_{j}", kinds, basis[i], basis[j], p.beta, allow_truncation)
        for i, j in pairs
        for kind, kinds in (("a", ("dirichlet", "w_mass")), ("b", ("v_mass",)))
    ]
    results = integrate_many(integrands, cfg, spec)

    gram = np.zeros((4, m, m))
    for k, (i, j) in enumerate(pairs):
        ra, rb = results[2 * k], results[2 * k + 1]
        gram[:, i, j] = gram[:, j, i] = (ra.value, rb.value, ra.error, rb.error)
    return _pencil_minimum(*gram)


def _pencil_minimum(a_mat, b_mat, a_err, b_err) -> SpectralResult:
    """Solve ``A v = lambda B v`` for its smallest eigenvalue.

    Works on fresh copies of the four matrices, so a leading block of a
    larger assembly is solved exactly as the same matrices assembled on
    their own.  A non-finite entry of A or B raises ValueError.
    """
    a_mat, b_mat, a_err, b_err = (np.array(g) for g in (a_mat, b_mat, a_err, b_err))
    for name, mat in (("A", a_mat), ("B", b_mat)):
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"Gram matrix {name} has a non-finite entry")
    m = a_mat.shape[0]
    evals, evecs = np.linalg.eigh(b_mat)
    top = evals[-1]
    if not top > 0:
        raise SingularGram(
            "V-Gram matrix has no positive eigenvalue; the basis carries "
            "no V-mass (single pole, or functions supported off the poles)"
        )
    keep = evals >= top / _GRAM_CONDITION_CAP
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        raise SingularGram("V-Gram matrix collapsed under the condition cap")
    t_mat = evecs[:, keep] / np.sqrt(evals[keep])
    reduced = t_mat.T @ a_mat @ t_mat
    reduced = 0.5 * (reduced + reduced.T)
    lam, vec = np.linalg.eigh(reduced)
    witness = t_mat @ vec[:, 0]
    if witness[np.argmax(np.abs(witness))] < 0:
        witness = -witness
    lam_min = float(lam[0])
    # lambda_min is the root of w^T (A - lambda B) w at the witness.
    ww = np.outer(witness, witness)
    _, bar = _derived([*zip(ww.flat, a_mat.flat, a_err.flat),
                       *zip((-lam_min * ww).flat, b_mat.flat, b_err.flat)])
    lam_err = float(bar) / max(float(witness @ b_mat @ witness), 1e-300)
    return SpectralResult(
        basis_size=m,
        lambda_min=lam_min,
        lambda_error=lam_err,
        witness=witness,
        rank=rank,
        gram=(a_mat, b_mat, a_err, b_err),
    )


def _certify_samples(cfg: PoleConfig, spec: QuadratureSpec, n_points: int):
    """Deterministic sample cloud: graded pole shells plus a far box.

    Half the points sit on spheres of geometrically shrinking radius
    around each pole (the approach sequences), half fill the box of
    half-width far_radius uniformly.  Returns (points, level_of_point)
    with level -1 for box points and k >= 0 for pole-shell level k.
    """
    dim = cfg.dim
    rng = np.random.Generator(np.random.Philox(key=spec.seed ^ _REGION_CERTIFY))
    levels = 24
    per_level = max(8, n_points // (2 * cfg.n_poles * levels))
    radii = spec.pole_radius * 2.0 ** (-np.arange(levels, dtype=float))
    pole_pts = []
    pole_lvl = []
    for i in range(cfg.n_poles):
        normal = rng.standard_normal((levels * per_level, dim))
        dirs = normal / np.linalg.norm(normal, axis=1, keepdims=True)
        r = np.repeat(radii, per_level)
        pole_pts.append(cfg.poles[i] + r[:, None] * dirs)
        pole_lvl.append(np.repeat(np.arange(levels), per_level))
    n_far = max(1000, n_points - levels * per_level * cfg.n_poles)
    far = rng.uniform(-spec.far_radius, spec.far_radius, size=(n_far, dim))
    pts = np.concatenate(pole_pts + [far], axis=0)
    lvl = np.concatenate(pole_lvl + [np.full(n_far, -1)], axis=0)
    return pts, lvl


def h2_certify(
    cfg: PoleConfig,
    w: WeightSpec,
    beta: float,
    k_mu_candidate: float,
    sample_spec: QuadratureSpec,
) -> tuple[float, float, np.ndarray]:
    """Estimate the upper bound of W by dense sampling.

    The hypothesis asks for ``W <= C_mu`` globally.  W is evaluated on
    graded pole-approach spheres and a uniform far box (at least 1e5
    points); the supremum is the C_mu estimate.  Divergence of the
    running supremum along the approach sequences, or failure of the
    supremum to stabilize when the sample is doubled, raises
    `UnboundedSuspected` — that is the numerical signature of a wrong
    K_mu candidate.  Raises `NonpositiveBeta` if ``beta <= 0``.

    Returns
    -------
    (c_mu_estimate, c_mu_error, max_point)
        The sample supremum, the spread between the suprema of the two
        interleaved half-samples, and where the supremum was attained.
    """
    validate_config(cfg, w)
    if not beta > 0:
        raise NonpositiveBeta(f"beta must be positive, got {beta}")
    # Only beta and k_mu enter W; the companion constants are filled with
    # the values they would take if beta were optimal for this candidate.
    params = HardyParams(
        k_mu=k_mu_candidate,
        beta=beta,
        c_n_mu=beta**2,
        c_nn_mu=cfg.n_poles * beta**2 / 4.0,
    )
    n_points = max(int(sample_spec.mc_samples), 100_000)
    pts, lvl = _certify_samples(cfg, sample_spec, n_points)
    vals = potential_w(pts, cfg, w, params)

    # Pole-approach divergence: per-level maxima must not keep growing as
    # the radius shrinks.
    level_max = np.array(
        [vals[lvl == k].max() for k in range(int(lvl.max()) + 1)]
    )
    far_sup = float(vals[lvl == -1].max())
    scale = max(abs(far_sup), float(np.abs(level_max[:8]).max()), 1e-12)
    tail = level_max[-6:]
    if np.all(np.diff(tail) > 0) and tail[-1] > 10.0 * scale:
        raise UnboundedSuspected(
            f"running supremum of W grows along the pole-approach "
            f"sequence (last levels {tail[-3:].tolist()}); candidate "
            f"K_mu = {k_mu_candidate} looks wrong"
        )

    # Doubling stabilization: sample supremum on every other point versus
    # the full cloud.
    sup_half = float(vals[::2].max())
    sup_full = float(vals.max())
    denom = max(abs(sup_full), 1e-12)
    if sup_full > 0 and (sup_full - sup_half) / denom >= 0.05:
        raise UnboundedSuspected(
            f"supremum of W did not stabilize under sample doubling "
            f"({sup_half:.6g} -> {sup_full:.6g})"
        )
    spread = abs(sup_half - float(vals[1::2].max()))
    return sup_full, spread, pts[int(np.argmax(vals))]


def h3_h4_certify(
    cfg: PoleConfig, w: WeightSpec, k_mu: float, seed: int
) -> HypothesisReport:
    """Certify the density hypothesis H3 and the optimality pair H4.

    H3 integrates the weight over eight nested pole balls
    delta_0 * 2^-k and checks the quadratic rescaling decays; the balls of
    one pole are one `integrate_pole_ball` ladder, so one pass per level
    of its two-level rule gives all eight, each bit for bit the ball
    integrated alone.  H4 i) is exponent bookkeeping at the
    poles; H4 ii) bounds the weight by a power far from the poles and
    checks the exponent inequality that the sharpness proof consumes.
    The H4 ii) sample directions are drawn from a stream keyed by `seed`.
    """
    validate_config(cfg, w)
    gamma = 0.0 if w.is_unit else w.gamma
    dim = cfg.dim
    n = cfg.n_poles

    # --- H3: delta^-2 * integral of mu over B(a_i, delta) ---------------
    if n >= 2:
        delta0 = min(1.0, min_pole_gap(cfg))
    else:
        delta0 = min(1.0, max(cfg.pole_scale, 1e-6))
    deltas = delta0 * 2.0 ** (-np.arange(8, dtype=float))
    values = np.empty((n, deltas.size))
    errors = np.empty((n, deltas.size))
    for i in range(n):
        ladder = integrate_pole_ball(
            lambda x: weight_value(x, cfg, w),
            cfg,
            i,
            deltas,
            levels=12,
            exponent=max(gamma, 0.0),
        )
        for k, (d, res) in enumerate(zip(deltas, ladder)):
            values[i, k] = res.value / d**2
            errors[i, k] = res.error / d**2
    # The scaled masses behave like delta^(N - 2 - gamma); demand strict
    # decrease plus real progress over the seven halvings (the progress
    # factor 0.9 tolerates exponents as small as 0.02).
    h3_pass = bool(
        np.all(values[:, 1:] < values[:, :-1] * (1.0 + 1e-9))
        and np.all(values[:, -1] < 0.9 * values[:, 0])
    )

    # --- H4 i): local exponent bookkeeping -------------------------------
    pexp = h4_local_exponent(cfg, w, k_mu)

    # --- H4 ii): far-field power domination ------------------------------
    decay = far_field_decay_exponent(cfg, w)
    condition = decay > -(dim + 2.0 * k_mu - 2.0)
    if w.is_unit or w.delta > 0:
        # Constant weight (bounded by definition) or exponential decay
        # (dominates every power); sampling is unnecessary.
        h4ii_sup = 1.0 if w.is_unit else 0.0
        h4ii_error = None
        bounded = True
    else:
        # Sample mu(x) |x|^decay on the region the sharpness proof uses:
        # radii beyond twice the outermost pole, where the cutoff annulus
        # lives.  The sup must stabilize across the outer decades.
        rng = np.random.Generator(
            np.random.Philox(key=np.uint64(seed ^ _REGION_CERTIFY))
        )
        base = 2.0 * max(float(np.max(np.linalg.norm(cfg.poles, axis=1))), 1.0)
        radii = base * np.logspace(0.0, 6.0, 400)
        per_r = 64
        normal = rng.standard_normal((radii.size * per_r, dim))
        dirs = normal / np.linalg.norm(normal, axis=1, keepdims=True)
        pts = np.repeat(radii, per_r)[:, None] * dirs
        vals = weight_value(pts, cfg, w) * np.repeat(radii, per_r) ** decay
        h4ii_sup = float(vals.max())
        h4ii_error = abs(float(vals[::2].max()) - float(vals[1::2].max()))
        outer = vals[pts.shape[0] // 2 :]
        bounded = bool(h4ii_sup < np.inf and outer.max() <= 1.05 * h4ii_sup)
    h4ii_pass = bool(condition and bounded)

    return HypothesisReport(
        h3_pass=h3_pass,
        h3_deltas=deltas,
        h3_values=values,
        h3_errors=errors,
        h4i_exponent=pexp,
        h4i_margin=dim - pexp,
        h4i_status=h4i_status(cfg, w, k_mu),
        h4ii_pass=h4ii_pass,
        h4ii_decay=decay,
        h4ii_sup=h4ii_sup,
        h4ii_error=h4ii_error,
    )


# --------------------------------------------------------------------------
# Verdicts: the pass/fail gates of each experiment.  Every gate widens its
# tolerance by three combined error bars where an error estimate exists.
# --------------------------------------------------------------------------


def verify_verdict(records, p: HardyParams, residual_tol, ratio_slack) -> Verdict:
    """Per record: residual within ``max(residual_tol, 3 err)``; Hardy ratio
    above ``c (1 - ratio_slack)``, skipped where the V-mass is zero."""
    floor = p.c_n_mu * (1.0 - ratio_slack)
    rows = []
    for rec in records:
        residual_ok = abs(rec.residual) <= max(residual_tol, 3.0 * rec.residual_error)
        ratio_ok = "skipped"
        if rec.hardy_ratio is not None:
            ratio_ok = rec.hardy_ratio >= floor - 3.0 * rec.ratio_error
        rows.append({"residual_pass": residual_ok, "ratio_pass": ratio_ok})
    passed = all(r["residual_pass"] and r["ratio_pass"] for r in rows)
    return Verdict(passed, {"ratio_floor": floor}, tuple(rows))


def optimality_verdict(
    records, fit: RateFit, p: HardyParams, slope_band, ratio_band, r2_min
) -> Verdict:
    """Fitted slope within ``slope_band * max(|predicted|, 1)`` and
    ``r^2 >= r2_min`` (both skipped without a finite predicted rate);
    ratio at the smallest eps in ``[c (1 - 0.02), c (1 + ratio_band)]``."""
    finite = math.isfinite(fit.predicted_slope)
    if finite:
        tol = slope_band * max(abs(fit.predicted_slope), 1.0)
        slope_ok = abs(fit.slope - fit.predicted_slope) <= tol
        r2_ok = fit.r_squared >= r2_min
    else:
        slope_ok = r2_ok = True
    last = records[-1]
    ratio_ok = (
        last.hardy_ratio <= p.c_n_mu * (1.0 + ratio_band) + 3.0 * last.ratio_error
        and last.hardy_ratio >= p.c_n_mu * (1.0 - 0.02) - 3.0 * last.ratio_error
    )
    summary = {
        "slope_pass": slope_ok if finite else "skipped",
        "r2_pass": r2_ok if finite else "skipped",
        "ratio_pass": ratio_ok,
    }
    return Verdict(slope_ok and r2_ok and ratio_ok, summary)


def beta_sweep_verdict(result: BetaSweepResult, cfg, k_mu, residual_tol) -> Verdict:
    """Every residual within `residual_tol`; grid argmax within one grid step
    of the vertex; vertex value ``(N + K_mu - 2)^2 / (4n)`` to 1e-12."""
    rows = tuple(
        {"residual_pass": bool(abs(rec.residual) <= residual_tol)}
        for rec in result.records
    )
    residual_ok = all(r["residual_pass"] for r in rows)
    grid = sorted(r.beta for r in result.records)
    step = max((b2 - b1 for b1, b2 in zip(grid, grid[1:])), default=0.0)
    argmax_ok = abs(result.argmax_beta - result.vertex_beta) <= step + 1e-12
    shift = cfg.dim + k_mu - 2.0
    gap = abs(result.vertex_value - shift * shift / (4.0 * cfg.n_poles))
    summary = {
        "grid_step": step,
        "argmax_within_one_step": argmax_ok,
        "vertex_formula_gap": gap,
        "residuals_pass": residual_ok,
    }
    return Verdict(residual_ok and argmax_ok and gap <= 1e-12, summary, rows)


def spectral_verdict(results, p: HardyParams, lower_slack, upper_band) -> Verdict:
    """Bounds non-increasing along the prefixes (to 1e-10); last bound above
    ``c (1 - lower_slack)`` and, if `upper_band` is set, below
    ``c (1 + upper_band)``."""
    monotone = not any(
        b.lambda_min > a.lambda_min + 1e-10 for a, b in zip(results, results[1:])
    )
    last = results[-1]
    lower = p.c_n_mu * (1.0 - lower_slack) - 3.0 * last.lambda_error
    lower_ok = last.lambda_min >= lower
    upper_ok = True
    if upper_band is not None:
        upper_ok = last.lambda_min <= p.c_n_mu * (1.0 + float(upper_band)) + (
            3.0 * last.lambda_error
        )
    summary = {
        "monotone": monotone,
        "lower_pass": lower_ok,
        "upper_pass": upper_ok if upper_band is not None else "skipped",
    }
    return Verdict(monotone and lower_ok and upper_ok, summary)


def certify_verdict(c_mu_estimate, report: HypothesisReport) -> Verdict:
    """H2 (`c_mu_estimate` is None when W looked unbounded), H3, H4 i)
    strict or borderline, and H4 ii)."""
    h2_ok = c_mu_estimate is not None
    h3_ok, h4ii_ok = report.h3_pass, report.h4ii_pass
    passed = h2_ok and h3_ok and report.h4i_status != "fail" and h4ii_ok
    return Verdict(passed, {"h2_pass": h2_ok, "h3_pass": h3_ok, "h4ii_pass": h4ii_ok})
