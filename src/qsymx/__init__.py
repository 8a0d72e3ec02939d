"""qsymx: exact computations in the Hopf algebra of quasi-symmetric
functions, its canonical characters, and the bivariate Catalan numbers
their values are made of.

All coefficients are exact rationals; no floating point anywhere.
"""

from .exactnum import (
    binomial,
    bivariate_catalan,
    catalan,
    central_binomial,
    central_catalan,
    binary_digit_sum,
    falling_binomial,
    half_binomial,
    multinomial,
    two_adic_valuation,
)
from .compositions import (
    Composition,
    all_compositions,
    coarsenings,
    composition,
    conjugate,
    format_composition,
    parse_composition,
    refinements,
    reversal,
    ribbon_cuts,
)
from .permutations import (
    Permutation,
    SSymElement,
    all_permutations,
    descent_composition,
    multiply_ssym,
    peak_sets,
    permutation,
    shuffles,
    ssym_basis,
)
from .qsym import (
    QSymElement,
    TensorElement,
    antipode,
    coproduct,
    counit,
    descent_map,
    element_from_json,
    element_to_json,
    format_element,
    multiply,
    multiply_tensor,
    qsym_basis,
    qsym_one,
    qsym_zero,
    t_involution,
    to_F,
    to_M,
)
from .characters import (
    CHARACTER_IDS,
    COUNIT,
    ZETA,
    ZETA_INV,
    ZETA_INV_MINUS,
    ZETA_INV_PLUS,
    ZETA_MINUS,
    ZETA_PLUS,
    TruncatedCharacter,
    bar,
    compose_T,
    compose_antipode,
    convolve,
    decompose,
    eval_F,
    eval_M,
    eval_element,
    eval_perm,
    h_minus,
    h_plus,
    inverse,
    restrict,
    zeta_power,
)
from .identities import CheckReport, registry_ids, verify, verify_all

__version__ = "1.0.0"
