"""Exact tables and verified identities for the derivative stability of
integer-valued polynomials.

Everything is computed in arbitrary-precision rational arithmetic. The
library builds the triangle F(n, k) of reciprocal part-product sums, its
denominator triangle d, the minimal derivative multipliers c(n, k), the
composition-product lcms q(n, k), and the all-orders multipliers lambda(n);
the verify module re-derives each published table entry and identity from
independent brute-force routes.

Each public name is imported from its submodule on first use (PEP 562), so
``import ivpoly`` alone, and a command line that runs one table, loads none
of the modules it does not read.
"""

import importlib

__version__ = "0.1.0"

# The checks of verify, in the order run_all runs them; declared here so the
# command-line parser can offer them without importing verify.
CHECK_NAMES: tuple[str, ...] = (
    "corollary1", "lemma1", "lemma2", "lemma3", "proposition1", "proposition2",
    "theorem1", "theorem2", "theorem3", "theorem4",
)

_EXPORTS = {
    "binomial_poly": ("BinomialPoly", "MonomialPoly", "basis", "from_values"),
    "constants": ("c_table", "lambda_product", "q_direct", "q_recurrence", "q_table"),
    "exact_arith": (
        "EnumerationCapError", "PrimeFactorization", "lcm_list", "lcm_range",
        "primes_up_to", "vp_int", "vp_rat",
    ),
    "stirling": (
        "compositions", "d_table", "f_direct", "f_from_partial_sums", "f_from_subsets",
        "f_recurrence", "f_table", "stirling_first",
    ),
    "triangles": ("IntegerTriangle", "RationalTriangle", "StirlingTable"),
    "verify": (
        "CheckReport", "Counterexample", "minimal_multiplier_oracle", "run_all", "run_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["CHECK_NAMES", *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        # A submodule, so `ivpoly.verify` works after a bare `import ivpoly`;
        # the import binds it here, so this runs once per submodule.
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
