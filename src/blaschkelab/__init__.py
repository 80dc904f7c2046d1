"""Numerical laboratory for multiplication by finite Blaschke products.

The package works on truncated Taylor series under weighted diagonal norms
sum |a_n|^2 omega(n).  It provides the layer (Wold-type) decomposition
f = sum_k h_k B^k with layers in the model space H^2 - B H^2, the
equivalent layer norm, sufficiency checks for the wandering subspace
property of k-step shifts (as weight inequalities and as operator PSD
checks on truncations), and an experiment harness measuring how far a
truncated invariant subspace is from being regenerated by its wandering
part.

Everything is double-precision at polynomial truncations: results are
numerical evidence at a stated truncation, not proofs.
"""

from .badic import (
    BAdicCoefficients,
    DepthExhausted,
    RegimeWarning,
    b_norm,
    decompose,
    default_depth,
    norm_equivalence_estimate,
    reconstruct,
)
from .blaschke import (
    BlaschkeProduct,
    PoleProximity,
    format_blaschke_literal,
    multiplication_matrix,
    parse_blaschke_literal,
)
from .model_space import ModelSpaceBasis, guard_degree, project, tm_basis
from .series import (
    ComplexSeries,
    ExplicitWeights,
    PowerLawWeights,
    ShiftedWeights,
    WeightSequence,
    add,
    format_series_literal,
    h2_norm,
    inner_product,
    mul,
    parse_series_literal,
    parse_weights_literal,
    scale,
    subtract,
    weighted_norm,
)
from .shimorin import (
    Z2_ALPHA_BOUND,
    CriterionReport,
    DegenerateDenominator,
    DimensionMismatch,
    EmptyWindow,
    OperatorCheckResult,
    Violation,
    concavity_criterion,
    head_weight_window,
    monomial_threshold,
    operator_check,
    steep_head_weights,
    weight_criterion,
    z2_adjusted_weights,
)
from .subspaces import (
    BAdicInnerProduct,
    EmptySpan,
    InnerProduct,
    ShiftedInnerProduct,
    SubspaceBasis,
    TaylorInnerProduct,
    WspReport,
    restrict_to_degree,
    span_invariant,
    stride_merge,
    stride_split,
    subspace_defect,
    two_step_wandering_defect,
    wandering_part,
    wsp_defect,
    wsp_report,
)

__version__ = "0.1.0"

__all__ = [
    "BAdicCoefficients",
    "BAdicInnerProduct",
    "BlaschkeProduct",
    "ComplexSeries",
    "CriterionReport",
    "DegenerateDenominator",
    "DepthExhausted",
    "DimensionMismatch",
    "EmptySpan",
    "EmptyWindow",
    "ExplicitWeights",
    "InnerProduct",
    "ModelSpaceBasis",
    "OperatorCheckResult",
    "PoleProximity",
    "PowerLawWeights",
    "RegimeWarning",
    "ShiftedInnerProduct",
    "ShiftedWeights",
    "SubspaceBasis",
    "TaylorInnerProduct",
    "Violation",
    "WeightSequence",
    "WspReport",
    "Z2_ALPHA_BOUND",
    "add",
    "b_norm",
    "concavity_criterion",
    "decompose",
    "default_depth",
    "format_blaschke_literal",
    "format_series_literal",
    "guard_degree",
    "h2_norm",
    "head_weight_window",
    "inner_product",
    "monomial_threshold",
    "mul",
    "multiplication_matrix",
    "norm_equivalence_estimate",
    "operator_check",
    "parse_blaschke_literal",
    "parse_series_literal",
    "parse_weights_literal",
    "project",
    "reconstruct",
    "restrict_to_degree",
    "scale",
    "span_invariant",
    "steep_head_weights",
    "stride_merge",
    "stride_split",
    "subspace_defect",
    "subtract",
    "tm_basis",
    "two_step_wandering_defect",
    "wandering_part",
    "weight_criterion",
    "weighted_norm",
    "wsp_defect",
    "wsp_report",
    "z2_adjusted_weights",
]
