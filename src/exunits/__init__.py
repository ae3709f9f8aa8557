"""Exact counting of polynomial-type exceptional units on affine varieties
over monogenic rings of integers.

The public surface re-exports the main types and operations; see README.md
for a tour and the ``exunits`` CLI for the batch interface.
"""

from .counting import (
    AsymptRecord,
    CountReport,
    LocalData,
    asympt_series,
    brute_force_count,
    describe_ideal,
    example25_count,
    good_reduction_primes,
    langweil_deviation,
    lifting_census,
    local_counts,
    theorem1_count,
)
from .errors import (
    BadModulus,
    BadReduction,
    CapExceeded,
    ConstantPolynomial,
    DimensionMismatch,
    EvenCharacteristic,
    ExponentTooLarge,
    ExunitsError,
    FactorCapExceeded,
    MinPolyTooLarge,
    NotAUnit,
    NotFullRank,
    NotMonic,
    NotPrime,
    NotQSqrtMinus5,
    PolySyntaxError,
    Reducible,
    UnitIdeal,
    UnknownVariable,
    ZeroDegree,
    ZeroIdeal,
)
from .ideals import (
    IdealHNF,
    PrimeFactor,
    factor_ideal,
    factor_poly_mod_p,
    hnf_from_generators,
    ideal_contains,
    ideal_mul,
    ideal_norm,
    ideal_pow,
    prime_ideals_above,
    prime_power,
    principal_ideal,
    unit_ideal,
)
from .number_ring import (
    NumberRing,
    elem_add,
    elem_mul,
    elem_sub,
    make_number_ring,
)
from .polys import (
    MultiPoly,
    VarietySpec,
    check_good_reduction,
    eval_poly,
    jacobian,
    jacobian_rank_at,
    parse_poly,
)
from .residues import (
    ResidueCtx,
    field_inverse,
    is_unit_mod,
    prime_ctx,
    reduce_mod,
    residue_ctx,
    square_class,
)

__version__ = "0.1.0"
