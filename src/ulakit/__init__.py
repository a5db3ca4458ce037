"""ulakit: unadjusted Langevin sampling lab.

Euler-Maruyama chain ensembles with counter-based reproducible noise, exact
Gaussian moment oracles for linear drifts, sample-based divergence
estimators, and closed-form evaluators for the discretization-error bounds
and mixing-time rules.
"""

from .bounds import (
    BoundConstants,
    avg_fisher_bound,
    kl_bound_dissipative_terms,
    kl_bound_nonneg_potential_terms,
    kl_derivative_bound,
    mixing_time_predict,
    moment_bound_dissipative,
    step_size_rule,
)
from .drift_models import (
    CERT_RADIUS,
    DriftModel,
    SmoothnessCert,
    dissipativity_fit,
    double_well_drift,
    drift_eval,
    drift_jacobian,
    expansive_drift,
    gaussian_mixture_drift,
    grad_check,
    make_model,
    ou_drift,
    registered_models,
    verify_init,
    zero_drift,
)
from .errors import DivergenceError, InputError, ModelError
from .estimators import (
    RateFit,
    girsanov_pathwise_kl,
    knn_kl,
    moment_estimate,
    rate_fit,
    tv_histogram,
    w2_empirical_1d,
)
from .gaussian_analytics import (
    GaussianMoments,
    LinearDrift,
    continuous_moments_linear,
    em_moments_linear,
    entropy_gaussian,
    fisher_info_gaussian,
    kl_gaussian,
    tv_gaussian_1d,
    w2_gaussian,
)
from .samplers import (
    DIVERGENCE_LIMIT,
    InitDensity,
    SampleEnsemble,
    noise_block,
    read_ensemble_csv,
    simulate_ensemble,
    write_ensemble_csv,
    write_ensemble_sidecar,
)

__version__ = "0.1.0"
