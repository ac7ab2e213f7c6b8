"""qram: exact q-series arithmetic for Eisenstein-type identities.

Truncated power series over exact rationals, the classical and signed
Eisenstein generators, divisor-sum convolutions checked against a brute-force
oracle, symbolically re-derived ratio and Phi tables, and arbitrary-precision
confirmation of closed-form special values.
"""

from .divisors import (
    DivisorKind,
    bernoulli,
    boundary_value,
    convolution,
    convolution_sequence,
    divisor_sum,
    divisor_sum_table,
    extrapolated_boundary,
)
from .generators import (
    eisenstein,
    eps0,
    family,
    fneg,
    hahn,
    phi_series,
    pochhammer,
    psi0,
    series_by_name,
    theta_f,
    varphi,
)
from .identities import (
    Identity,
    RunConfig,
    VerifyReport,
    lookup,
    registry,
    verify_all,
    verify_convolution,
    verify_numeric,
    verify_one,
    verify_series,
)
from .numeric import (
    SpecialValue,
    SPECIALS,
    check_all_specials,
    check_special,
    gamma_quarter,
    gamma_three_quarters,
)
from .series import Series, from_coeffs, product_expansion, rational_str, to_text
from .weighted import (
    CLASSICAL_RULES,
    HAHN_RULES,
    DerivationRules,
    WeightedPoly,
    canonicalize,
    classical_to_hahn,
    derive,
    eval_as_series,
    family_rules,
    phi_poly,
    pretty,
    ratio_poly,
)

__version__ = "0.1.0"

