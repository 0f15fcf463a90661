"""Strong-converse exponent toolkit for source coding with encoded side
information, with the derived privacy-amplification security bound."""

from .dsbs import (
    DsbsParams,
    DsbsPoint,
    dsbs_constraint_value,
    dsbs_exponent,
    dsbs_objective,
    dsbs_source,
    figure2_sweep,
)
from .pa_bound import (
    PaBoundReport,
    pa_bound_from_exponent,
    pa_generic_bound,
    pa_rate_tradeoff,
    pa_security_bound,
)
from .probkit import (
    AuxJointPmf,
    AuxMeasures,
    DimensionError,
    DomainError,
    JointPmf2,
    Pmf,
    aux_measures,
    binary_entropy,
    binary_entropy_inverse,
    binary_kl,
    conditional_entropy,
    entropy,
    joint_from_dict,
    joint_to_dict,
    kl_divergence,
    mutual_information,
    tv_distance,
)
from .reductions import (
    GapReport,
    OohamaEvaluator,
    exponent_ne,
    exponent_single_direct,
    exponent_single_parametric,
    gap_check,
    oohama_single,
    oohama_wak_bound,
    s_theta,
)
from .simplex_optim import (
    SearchDomain,
    SearchResult,
    Simplex,
    SolverConfig,
    compass_batch,
    grid_search,
)
from .wak_exponent import (
    ExponentBreakdown,
    RatePair,
    RegionCurve,
    UpperBoundWarning,
    region_contains,
    region_curve,
    region_min_r1,
    soft_markov_decompose,
    wak_divergence_term,
    wak_exponent,
    wak_objective,
)

__version__ = "0.1.0"
