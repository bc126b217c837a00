"""Covering radii of linear codes over Z_{2^s}.

Constructions for quaternary repetition, block repetition, simplex and
MacDonald codes, exact covering-radius engines under the Hamming, Lee,
homogeneous and Euclidean weights, the classical bounds, and a CLI that
verifies the known closed-form claims at desk scale.
"""

from .ring import (
    BudgetExceededError,
    RingSpec,
    WeightMetric,
    Z2,
    Z4,
    ZqVector,
    distance,
    format_vector,
    gray_map,
    homogeneous_weight,
    parse_vector,
    weight,
)
from .linalg import (
    CodewordSet,
    LinearCode,
    StandardForm,
    dual_code,
    enumerate_codewords,
    format_generator_file,
    is_self_orthogonal,
    parse_generator_file,
    residue_code,
    standard_form,
    torsion_code,
    two_basis,
)
from .families import (
    FamilyInfo,
    FamilySpec,
    ParameterAuditError,
    block_repetition,
    build_family,
    field_repetition_radius_formula,
    macdonald_alpha,
    macdonald_beta,
    repetition_alpha,
    repetition_beta,
    simplex_alpha,
    simplex_beta,
)
from .covering import (
    BoundReport,
    CosetLeaderTable,
    RadiusReport,
    SearchBudget,
    bound_report,
    coset_leader_table,
    coset_weight_distribution,
    covering_radius,
    covering_radius_bfs,
    covering_radius_direct,
    covering_radius_of_set,
    covering_radius_syndrome,
    delsarte_bound,
    mattson_stack,
    sphere_covering_lower_bound,
)

__version__ = "0.1.0"
