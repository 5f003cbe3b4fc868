"""Exact decomposition of rational group algebras of split metacyclic p-groups.

Two independent routes to the same object, cross-validated: closed-form
combinatorial formulas in (p, n, m, s), and a first-principles oracle that
enumerates the irreducible complex characters (little-group construction),
groups them into Galois conjugacy classes, and assembles one simple
component per class. All arithmetic is exact (big integers, rationals,
prime-power cyclotomics); p = 2 is out of scope.
"""

from .arith import (
    PrimePower,
    euler_phi_prime_power,
    multiplicative_order,
    p_adic_valuation,
    split_r,
)
from .complex_reps import (
    InducedOrbit,
    IrreducibleCharacter,
    LinearOrbit,
    character_value,
    enumerate_irreducibles,
    orbit_decomposition,
)
from .cyclotomic import CyclotomicElement, galois_apply, minimal_level, root_power
from .errors import (
    InternalInconsistencyError,
    MetacyclicError,
    SizeBoundError,
    ValidationError,
)
from .formulas import (
    abelian_class_count_identity,
    abelian_closed_form,
    complex_counts_closed_form,
    rational_counts_closed_form,
    wedderburn_closed_form,
)
from .group import (
    GroupElement,
    GroupParams,
    conjugacy_classes,
    derived_subgroup,
    from_s,
    identity,
    inverse,
    multiply,
    validate,
)
from .rational import (
    GaloisClass,
    SimpleComponent,
    WedderburnDecomposition,
    character_field_level,
    galois_classes,
    rational_counts_from_classes,
    wedderburn_from_classes,
)
from .verify import DeepChecker, cross_validate, decomposition_via_oracle

__version__ = "0.1.0"

__all__ = [
    "PrimePower",
    "euler_phi_prime_power",
    "multiplicative_order",
    "p_adic_valuation",
    "split_r",
    "CyclotomicElement",
    "root_power",
    "galois_apply",
    "minimal_level",
    "GroupElement",
    "GroupParams",
    "validate",
    "from_s",
    "identity",
    "inverse",
    "multiply",
    "conjugacy_classes",
    "derived_subgroup",
    "LinearOrbit",
    "InducedOrbit",
    "IrreducibleCharacter",
    "orbit_decomposition",
    "enumerate_irreducibles",
    "character_value",
    "GaloisClass",
    "SimpleComponent",
    "WedderburnDecomposition",
    "character_field_level",
    "galois_classes",
    "wedderburn_from_classes",
    "rational_counts_from_classes",
    "wedderburn_closed_form",
    "abelian_closed_form",
    "rational_counts_closed_form",
    "complex_counts_closed_form",
    "abelian_class_count_identity",
    "cross_validate",
    "decomposition_via_oracle",
    "DeepChecker",
    "MetacyclicError",
    "ValidationError",
    "SizeBoundError",
    "InternalInconsistencyError",
]
