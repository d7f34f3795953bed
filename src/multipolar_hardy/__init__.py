"""Numerical laboratory for weighted Hardy inequalities with multipolar potentials.

The package measures, at desk scale, every quantity entering the weighted
inequality

    c * integral(V phi^2 dmu)
        <= integral(|grad phi|^2 dmu) + integral(W phi^2 dmu)

for the multipolar potential V built from pole pairs, weights mu from the
unit / poly-exponential families, and the sharp constant
c = (N + K_mu - 2)^2 / n^2.  Five building blocks:

``config``
    Problem data (poles, weights) and the derived constants.
``fields``
    Pointwise evaluators: mu, V, W, the Hardy factor and its calculus.
``quadrature``
    Singularity-aware integration: graded pole balls, a stratified Monte
    Carlo mid region, deterministic far shells, shared-node batches.
``functionals``
    Test functions and the energy integrals; the integral identity and
    the Hardy ratio.
``experiments``
    Sharpness sweeps, general-exponent sweeps, spectral bounds, and
    hypothesis certification.

The ``mhardy`` console script (module ``cli``) exposes the experiments as
reproducible, file-writing commands.
"""

from .config import (
    HardyParams,
    PoleConfig,
    WeightSpec,
    derive_params,
    enclosing_radius,
    far_field_decay_exponent,
    min_pole_gap,
    resolution_guard,
    suggest_k_mu,
    validate_config,
)
from .errors import (
    AtPole,
    BadExponentM,
    BudgetExceeded,
    ConfigError,
    DimensionTooSmall,
    DuplicatePoles,
    EpsilonInadmissible,
    GammaOutOfRange,
    MultipolarHardyError,
    NonIntegrableSingularity,
    NonpositiveBeta,
    SinglePole,
    SingularGram,
    UnboundedSuspected,
    ZeroVMass,
)
from .fields import (
    PoleFrame,
    cross_term_identity_gap,
    hardy_factor,
    laplacian_ratio,
    potential_v,
    potential_w,
    vector_field_f,
    weight_log_grad,
    weight_log_value,
    weight_value,
)
from .quadrature import (
    Integrand,
    IntegralResult,
    QuadratureSpec,
    integrate,
    integrate_many,
    integrate_pole_ball,
    integrate_radial_annulus,
    local_integrability_check,
    sphere_flux,
    sphere_surface_measure,
    unit_sphere_rule,
)
from .functionals import (
    CutoffTheta,
    EnergyReport,
    GaussianBump,
    OptimalityPhi,
    TestFunction,
    beta_identity_check,
    energy_report,
    energy_reports,
    hardy_ratio,
    identity_residual,
    identity_residual_error,
    max_admissible_eps,
)
from .experiments import (
    DEFAULT_EPS_GRID,
    BetaRecord,
    BetaSweepResult,
    HypothesisReport,
    RateFit,
    SpectralResult,
    SweepRecord,
    beta_sweep,
    fit_remainder_rate,
    h2_certify,
    h3_h4_certify,
    h4_local_exponent,
    optimality_sweep,
    spectral_bound,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # config
    "PoleConfig",
    "WeightSpec",
    "HardyParams",
    "validate_config",
    "derive_params",
    "min_pole_gap",
    "enclosing_radius",
    "resolution_guard",
    "far_field_decay_exponent",
    "suggest_k_mu",
    # errors
    "MultipolarHardyError",
    "ConfigError",
    "DuplicatePoles",
    "DimensionTooSmall",
    "GammaOutOfRange",
    "BadExponentM",
    "NonpositiveBeta",
    "SinglePole",
    "AtPole",
    "NonIntegrableSingularity",
    "BudgetExceeded",
    "ZeroVMass",
    "EpsilonInadmissible",
    "UnboundedSuspected",
    "SingularGram",
    # fields
    "PoleFrame",
    "weight_value",
    "weight_log_value",
    "weight_log_grad",
    "potential_v",
    "potential_w",
    "hardy_factor",
    "laplacian_ratio",
    "vector_field_f",
    "cross_term_identity_gap",
    # quadrature
    "QuadratureSpec",
    "Integrand",
    "IntegralResult",
    "integrate",
    "integrate_many",
    "integrate_pole_ball",
    "integrate_radial_annulus",
    "local_integrability_check",
    "sphere_flux",
    "sphere_surface_measure",
    "unit_sphere_rule",
    # functionals
    "GaussianBump",
    "CutoffTheta",
    "OptimalityPhi",
    "TestFunction",
    "EnergyReport",
    "max_admissible_eps",
    "energy_report",
    "energy_reports",
    "identity_residual",
    "identity_residual_error",
    "hardy_ratio",
    "beta_identity_check",
    # experiments
    "DEFAULT_EPS_GRID",
    "SweepRecord",
    "RateFit",
    "BetaRecord",
    "BetaSweepResult",
    "SpectralResult",
    "HypothesisReport",
    "optimality_sweep",
    "fit_remainder_rate",
    "beta_sweep",
    "spectral_bound",
    "h2_certify",
    "h3_h4_certify",
    "h4_local_exponent",
]
