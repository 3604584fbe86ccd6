"""Exact arithmetic for Drinfeld modules over finite fields.

The library computes Frobenius invariants (minimal polynomial, height,
local maximality of the minimal order), endomorphism rings as A-orders
with fractional-ideal arithmetic, the ideal action on isomorphism
classes with kernel-ideal verdicts, and validates the classification of
isomorphism classes inside ordinary and prime-field isogeny classes by
exhaustive census.
"""

from .errors import (
    AlgebraError,
    CensusViolation,
    ContextError,
    EmptyIdeal,
    InseparableExtension,
    InternalError,
    NonCommutativeEndomorphisms,
    NotSublattice,
    RankError,
    TooLarge,
)
from .fields import FieldTower, Fq, KElem
from .apoly import (
    APoly,
    RatFunc,
    first_irreducible,
    minimal_poly_over_fq,
    monic_polys,
    poly_gcd,
    prime_divisors,
    roots_in_k,
    squarefree_decomposition,
)
from .lattices import ALattice, lattice_index
from .extfield import ExtensionField
from .skew import SkewPoly, rgcd, rgcd_bezout
from .modules import (
    DrinfeldModule,
    find_isomorphism,
    is_isogeny,
    same_isogeny_class,
)
from .invariants import (
    FrobeniusProfile,
    minpoly_frobenius,
    solve_ramification_invariants,
    transpose_bivariate,
)
from .orders import (
    AOrder,
    FracIdeal,
    centralizer_basis,
    coords_in_skew_basis,
    end_index_bound,
    end_pi_lattice,
    endomorphism_ring,
    gorenstein_conductor,
    ideals_of_norm_degree,
    is_gorenstein,
    is_gorenstein_at,
    lin_equiv,
    minimal_frobenius_order,
    order_from_pi_lattice,
    trace_dual,
)
from .action import (
    IdealActionResult,
    act,
    annihilator_ideal,
    end_comparison,
    skew_realization,
    transport_ideal,
)
from .census import (
    census_isomorphism_classes,
    census_records,
    characteristic_roots,
    enumerate_modules,
    twist_orbit_key,
    validate_ideal_class_action,
    validate_minimal_order_occurrence,
)


def __getattr__(name: str):
    # the worked examples load on first use: only `paper-examples` runs them
    if name in ("run_worked_examples", "summary_lines"):
        from . import worked_examples
        return getattr(worked_examples, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "APoly",
    "ALattice",
    "AOrder",
    "AlgebraError",
    "CensusViolation",
    "ContextError",
    "DrinfeldModule",
    "EmptyIdeal",
    "ExtensionField",
    "FieldTower",
    "Fq",
    "FracIdeal",
    "FrobeniusProfile",
    "IdealActionResult",
    "InseparableExtension",
    "InternalError",
    "KElem",
    "NonCommutativeEndomorphisms",
    "NotSublattice",
    "RankError",
    "RatFunc",
    "SkewPoly",
    "TooLarge",
    "act",
    "annihilator_ideal",
    "census_isomorphism_classes",
    "census_records",
    "centralizer_basis",
    "characteristic_roots",
    "coords_in_skew_basis",
    "end_comparison",
    "end_index_bound",
    "end_pi_lattice",
    "endomorphism_ring",
    "enumerate_modules",
    "find_isomorphism",
    "first_irreducible",
    "gorenstein_conductor",
    "ideals_of_norm_degree",
    "is_gorenstein",
    "is_gorenstein_at",
    "is_isogeny",
    "lattice_index",
    "lin_equiv",
    "minimal_frobenius_order",
    "minimal_poly_over_fq",
    "minpoly_frobenius",
    "monic_polys",
    "order_from_pi_lattice",
    "poly_gcd",
    "prime_divisors",
    "rgcd",
    "rgcd_bezout",
    "roots_in_k",
    "run_worked_examples",
    "same_isogeny_class",
    "skew_realization",
    "solve_ramification_invariants",
    "squarefree_decomposition",
    "summary_lines",
    "trace_dual",
    "transport_ideal",
    "transpose_bivariate",
    "twist_orbit_key",
    "validate_ideal_class_action",
    "validate_minimal_order_occurrence",
]
