"""Exact tables and verified identities for the derivative stability of
integer-valued polynomials.

Everything is computed in arbitrary-precision rational arithmetic. The
library builds the triangle F(n, k) of reciprocal part-product sums, its
denominator triangle d, the minimal derivative multipliers c(n, k), the
composition-product lcms q(n, k), and the all-orders multipliers lambda(n);
the verify module re-derives each published table entry and identity from
independent brute-force routes.
"""

from .binomial_poly import BinomialPoly, MonomialPoly, basis, from_values
from .constants import c_table, lambda_product, q_direct, q_recurrence, q_table
from .exact_arith import (
    EnumerationCapError,
    PrimeFactorization,
    lcm_list,
    lcm_range,
    primes_up_to,
    vp_int,
    vp_rat,
)
from .stirling import (
    compositions,
    d_table,
    f_direct,
    f_from_partial_sums,
    f_from_subsets,
    f_recurrence,
    f_table,
    stirling_first,
)
from .triangles import IntegerTriangle, RationalTriangle, StirlingTable
from .verify import (
    CHECK_NAMES,
    CheckReport,
    Counterexample,
    minimal_multiplier_oracle,
    run_all,
    run_check,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialPoly",
    "CHECK_NAMES",
    "CheckReport",
    "Counterexample",
    "EnumerationCapError",
    "IntegerTriangle",
    "MonomialPoly",
    "PrimeFactorization",
    "RationalTriangle",
    "StirlingTable",
    "basis",
    "c_table",
    "compositions",
    "d_table",
    "f_direct",
    "f_from_partial_sums",
    "f_from_subsets",
    "f_recurrence",
    "f_table",
    "from_values",
    "lambda_product",
    "lcm_list",
    "lcm_range",
    "minimal_multiplier_oracle",
    "primes_up_to",
    "q_direct",
    "q_recurrence",
    "q_table",
    "run_all",
    "run_check",
    "stirling_first",
    "vp_int",
    "vp_rat",
]
