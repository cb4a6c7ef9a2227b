"""Exact valuations on rational polytopes and the graded group of classes.

The package computes, in exact rational arithmetic:

* convex hulls, Minkowski sums, dilations, volumes, and lattice counts of
  rational polytopes (`convexval.polytope`);
* iterated difference operators and constructive polynomial expansions of
  functions from an abelian semigroup into an abelian group
  (`convexval.diffcalc`);
* panels of valuations (volume, Euler, probe volumes, support, lattice
  count) and expansions of their dilation behaviour (`convexval.valuations`);
* formal integer sums of translation classes with their graded components,
  idempotence, and homogeneity checks (`convexval.bodygroup`);
* seeded end-to-end verification suites (`convexval.verify_suite`) and a CLI
  (`convexval.cli`).
"""

from .bodygroup import (
    FormalSum,
    PanelComparison,
    PanelSignature,
    class_of,
    class_rep,
    component_extraction_on_sum,
    dilate_class,
    formal_sum_group,
    mcmullen_components,
    panel_compare,
    panel_signature,
    simplex_identity_as_classes,
    verify_homogeneity,
    verify_idempotence,
)
from .diffcalc import (
    NATURALS,
    QQ,
    QQ_NONNEG,
    FunctionHandle,
    GroupOps,
    PolynomialExpansion,
    SemigroupOps,
    component_value,
    extract_components,
    iterated_delta,
    vector_group,
    verify_cocycle,
    verify_diagonal_collapse,
    verify_vanishing,
)
from .errors import (
    ConvexValError,
    DependentBasis,
    DimensionMismatch,
    DivisionUnsupported,
    EmptyInput,
    GuardExceeded,
    InvariantViolation,
    MixedDimensions,
    NegativeFactor,
    NonInvariantOnClasses,
    NonpositiveScale,
    ParseError,
    ReconstructionFailure,
    UnsupportedDimension,
    WrongDimension,
)
from .polytope import (
    DecompositionPieces,
    DecompositionReport,
    Polytope,
    SimplexBasis,
    asymmetric_simplex,
    contains,
    decomposition_pieces,
    dilate,
    dim,
    hull,
    lattice_count,
    minkowski_sum,
    origin_polytope,
    point,
    simplex_basis,
    simplex_from_basis,
    standard_simplex,
    translate,
    unit_cube,
    verify_decomposition,
    volume,
)
from .rationals import rat, rat_str
from .valuations import (
    ValuationDescriptor,
    default_panel,
    ehrhart_expansion,
    euler_valuation,
    evaluate,
    evaluate_sum,
    expansion_of_dilation,
    lattice_valuation,
    mixed_volume_2d,
    probe_volume,
    support_valuation,
    volume_valuation,
)

__version__ = "0.1.0"
