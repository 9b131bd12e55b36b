"""Exact-arithmetic toolkit for splice diagrams and their tropicalizations.

Splice diagrams (weighted trees), the polynomial systems they define, the
weighted fans supporting their local tropicalizations, membership
certificates, end-curve parameterizations, and recovery of coprime diagrams
from their fans.
"""

from .diagram import (
    AdmissibleCoweight,
    ConditionReport,
    SpliceDiagram,
    Violation,
    check_conditions,
    edge_determinant,
    random_diagram,
    semigroup_decompose,
    validate,
)
from .endcurve import (
    Binomial,
    BinomialSystem,
    EndCurveSystem,
    MonomialCurve,
    RootedDiagram,
    binomial_reduce,
    end_curve_system,
    parameterize,
    root,
    verify_parameterization,
)
from .errors import (
    ConditionViolation,
    DocumentError,
    EliminationDegenerate,
    GenerationExhausted,
    HammViolation,
    InconsistentMembership,
    NonCoprimeFan,
    NonIntegralMultiplicity,
    NoTorusPoint,
    NotRealizable,
    SolveFailed,
    SpliceError,
    TailViolation,
    VerificationFailed,
)
from .fan import (
    CellLocation,
    Certificate,
    Cone2,
    MembershipResult,
    Ray,
    SpliceFan,
    TruncationContext,
    barycenter,
    boundary_trop,
    certificate_search,
    check_balancing,
    embed_vertex,
    initial_ideal_generators,
    locate,
    membership,
    monomial_in_span_oracle,
    smoothness_smoke,
    splice_fan,
)
from .recover import recover, roundtrip
from .system import (
    CoefficientMatrix,
    Equation,
    Polynomial,
    SpliceSystem,
    build_system,
    check_hamm,
    default_coefficients,
    predicted_initial_form,
    random_coefficients,
    validate_tail,
)

__version__ = "0.1.0"
