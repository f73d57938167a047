"""Exact computations in the mod-p cohomology of elementary abelian p-groups.

The ring is polynomial tensor exterior for odd p (polynomial only at p = 2).
The package constructs the classical invariants (the linear-form determinant
L_n, the mixed determinants M_{n,s} and their subset versions M_{n,S}, the
Dickson coefficients), implements the Steenrod action exactly, computes the
essential ideal degreewise, and machine-verifies the structural identities
relating all of these up to a configurable degree bound.
"""

from .algebra import (
    Element,
    INHOMOGENEOUS,
    Monomial,
    NotDivisibleError,
    ParseError,
    Ring,
    ZERO,
)
from .essential import (
    MaximalSubgroup,
    decompose,
    ess_basis,
    ess_basis_by_rank,
    is_essential,
    maximal_subgroups,
    proof_word,
    restrict,
    steenrod_closure,
)
from .invariants import (
    det,
    dickson,
    fundamental_coefficients,
    l_n,
    minor,
    mui,
    mui_set,
    product_sign,
)
from .linalg import (
    DegreeBasis,
    DegreeSpan,
    basis_dimension,
    monomial_basis,
    span_of,
)
from .steenrod import apply_word, bockstein, format_word, parse_word, power_op
from .verify import (
    CLAIMS,
    Case,
    ConfigError,
    VerificationReport,
    claim_ids,
    run_all,
    run_claim,
)

__version__ = "0.1.0"

__all__ = [
    "CLAIMS",
    "Case",
    "ConfigError",
    "DegreeBasis",
    "DegreeSpan",
    "Element",
    "INHOMOGENEOUS",
    "MaximalSubgroup",
    "Monomial",
    "NotDivisibleError",
    "ParseError",
    "Ring",
    "VerificationReport",
    "ZERO",
    "apply_word",
    "basis_dimension",
    "bockstein",
    "claim_ids",
    "decompose",
    "det",
    "dickson",
    "ess_basis",
    "ess_basis_by_rank",
    "format_word",
    "fundamental_coefficients",
    "is_essential",
    "l_n",
    "maximal_subgroups",
    "minor",
    "monomial_basis",
    "mui",
    "mui_set",
    "parse_word",
    "power_op",
    "product_sign",
    "proof_word",
    "restrict",
    "run_all",
    "run_claim",
    "span_of",
    "steenrod_closure",
]
