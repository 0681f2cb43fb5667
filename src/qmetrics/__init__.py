"""Information metrics on parametric families of density matrices.

Classical Fisher information of measured outcome statistics, the standard
quantum informations (SLD, logarithmic-mean, right-derivative), a
gauge-dependent information built from an eigenvector phase choice, and its
gauge-invariant (but non-monotone) lower bound — together with channel
pushforwards, gauge minimization, and a Monte Carlo estimation harness.
"""

from .channels import (
    ChannelFamily,
    KrausChannel,
    apply_channel,
    canonical_kraus,
    depolarizing_channel,
    induced_state_family,
    pushforward_family,
    random_tpcp,
    sm_channel_bound,
    unitary_channel,
)
from .errors import NumericalError, QMetricsError, ValidationError
from .estimation import (
    EstimationReport,
    cramer_rao_experiment,
    equality_condition_residual,
    mle_1p,
    sample_outcomes,
    sld_optimal_povm,
)
from .families import (
    FamilyPoint,
    ParametricFamily,
    SpectralPresentation,
    TangentData,
    bloch3,
    diagonal_simplex,
    directional_family,
    family_registry,
    pure_rotation,
    random_full_rank,
    random_pure,
    rot3_mixture,
    tangent_data,
    validate_density,
)
from .gauge import (
    IntegrabilityReport,
    PhaseAssignment,
    apply_gauge,
    integrability_test,
    minimizing_gauge_1p,
    zero_gauge,
)
from .linalg import eig_hermitian, relative_entropy, sld_solve
from .metrics import (
    C_FUNCTIONS,
    CF_CL,
    CF_KMB,
    CF_RLD,
    CF_SLD,
    METRIC_NAMES,
    CFunction,
    basis_povm,
    born_probabilities,
    c_l_decomposition,
    c_l_information,
    c_upsilon_states,
    classical_fisher,
    evaluate_metric,
    evaluate_metrics,
    f_function_scan,
    kmb_information,
    mc_metric,
    random_povm,
    rld_information,
    sld_information,
    validate_povm,
)

__version__ = "0.1.0"
