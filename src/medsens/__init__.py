"""Sensitivity bounds for natural direct and indirect effects.

Computes observed natural direct/indirect/total effects from categorical
mediation data, sharp bounds on the true effects under a hypothesized
unmeasured mediator-outcome confounder, and Cornfield-type thresholds for
explaining effects away; every bound is verified against a brute-force
distributional oracle.
"""

from .bootstrap import BootstrapResult, run_bootstrap
from .bounds import (
    CornfieldThresholds,
    SensitivitySpec,
    adjust_nde_rr,
    adjust_nie_rr,
    bound_nde_rd,
    bound_nie_rd,
    bound_report,
    bounding_factor,
    cornfield_rd,
    cornfield_rr,
    required_partner,
    stratum_envelopes,
)
from .effects import Effects
from .errors import (
    BadCode,
    BadParameter,
    BadTarget,
    DegenerateResample,
    EmptyCell,
    Infeasible,
    InternalCheckError,
    MedsensError,
    NotNormalized,
    OutOfRangeProbability,
    ParseError,
    UnreachableCell,
    ZeroDenominator,
    ZeroProbability,
)
from .loglinear import (
    LogLinearSpec,
    collider_ratio_grid,
    cumulant_k,
    interaction_bound,
    rr_au_loglinear,
    rr_au_loglinear_bruteforce,
)
from .oracle import (
    DiscreteRatioInstance,
    RatioBoundResult,
    Scm,
    SharpnessReport,
    InequalityCheck,
    ValidityReport,
    bernoulli_instance,
    check_ratio_bound,
    observed_model,
    recipe_scm,
    rr_au_mediator_ratio,
    rr_au_posterior,
    rr_au_posterior_per_mediator,
    rr_uy,
    sample_ratio_instances,
    sample_scm,
    sharpness_search,
    validity_battery,
    verify_bounds,
)
from .tables import (
    ConditionalModel,
    RecordTable,
    crossworld_sums,
    estimate_from_records,
    expand_to_records,
    read_records_csv,
    swap_exposure_records,
)

__version__ = "0.1.0"
