"""hopflab: exact computations with finite-dimensional semisimple Hopf
algebras given by structure constants.

Everything runs over a fixed cyclotomic field with arbitrary-precision
rational coefficients, so every identity the library reports has been
checked bit-exactly.
"""

__version__ = "0.1.0"

from .builders import drinfeld_double, group_algebra
from .coideal import (
    CoidealSubalgebra,
    coideal_closure,
    coideal_from_subspace,
    commutator_subalgebra,
    double_invariants_roundtrip,
    hopf_center,
    invariants_of,
    left_kernel,
    quotient,
)
from .errors import HopfLabError, NotSplitError
from .harmonic import (
    character_form,
    coideal_characters,
    embed_functional,
    induce_character,
    project_to_coideal,
    reciprocity_table,
    restrict_character,
    star_action,
)
from .hopf import HopfAlgebra
from .linalg import (
    AlgebraPresentation,
    Subspace,
    echelonize,
    minimal_polynomial,
    solve_linear,
    wedderburn,
)
from .scalars import CyclotomicField, Scalar, factor_into_linears
from .serialize import load_hopf, save_hopf
from .solvability import (
    ascending_central_series,
    check_integral_commutation,
    check_projection_injectivity,
    check_solvable_series,
    find_solvable_series,
    skryabin_counterexample,
)

__all__ = [
    "AlgebraPresentation",
    "CoidealSubalgebra",
    "CyclotomicField",
    "HopfAlgebra",
    "HopfLabError",
    "NotSplitError",
    "Scalar",
    "Subspace",
    "ascending_central_series",
    "character_form",
    "check_integral_commutation",
    "check_projection_injectivity",
    "check_solvable_series",
    "coideal_characters",
    "coideal_closure",
    "coideal_from_subspace",
    "commutator_subalgebra",
    "double_invariants_roundtrip",
    "drinfeld_double",
    "echelonize",
    "embed_functional",
    "factor_into_linears",
    "find_solvable_series",
    "group_algebra",
    "hopf_center",
    "induce_character",
    "invariants_of",
    "left_kernel",
    "load_hopf",
    "minimal_polynomial",
    "project_to_coideal",
    "quotient",
    "reciprocity_table",
    "restrict_character",
    "save_hopf",
    "skryabin_counterexample",
    "solve_linear",
    "star_action",
    "wedderburn",
]
