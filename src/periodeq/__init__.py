"""Exact Gaussian period equations, monogeneity classification, and
cyclotomic match surveys for primes p = e*f + 1."""

from .intpoly import (
    IntPoly,
    NotSelfReciprocal,
    NotSquarefree,
    OddDegree,
    Signature,
    cyclotomic_prime,
    demoivre_reduce,
    demoivre_unfold,
    discriminant,
    discriminant_and_signature,
    is_self_reciprocal,
    resultant,
    signature,
)
from .monogeneity import (
    ClassificationRecord,
    FieldDiscriminant,
    MatchKind,
    NotDivisible,
    NotPerfectSquare,
    classify,
    field_discriminant,
    index_certificate,
    index_squared,
)
from .number_theory import (
    CompositeP,
    InternalContradiction,
    InvalidContext,
    PrimeContext,
    factorize,
    is_prime,
    make_context,
    primitive_root,
)
from .periods import (
    NonIntegerCoefficient,
    PeriodPolynomial,
    PrimePeriods,
    period_polynomial_exact,
    period_polynomial_modular,
)
from .scanner import (
    CubicGrowthReport,
    ScanFailure,
    ScanReport,
    ScanSpec,
    cubic_growth,
    doublet_survey,
    missing_e_census,
    scan,
)

__version__ = "0.1.0"
