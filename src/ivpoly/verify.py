"""Brute-force oracles and one named check per identity the tables rest on.

Every check recomputes its claim through an independent route (enumeration,
interpolation, or the monomial power rule) and reports the first counterexample
on failure, so a run doubles as a certificate at the ranges it was given;
lemma3 certifies the Stirling quotient k!/n! * |s(n, k)|, not ``f_table``. Each
check declares its default ranges in its own signature, builds the tables it
reads, and takes ``enum_cap`` only if capped, passing it to _cap before any
other work. ``BinomialPoly.derivative`` and ``f_from_partial_sums`` read one
column of F: lemma1 reduces column 1 from the ``rows.quotient_rows`` pairs
that `table F` prints; theorem3 and proposition1 cut each from their F table.
run_check sets every range to max_n.
Nothing here is randomized, hence two runs with the same arguments produce
identical reports.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import CHECK_NAMES
from .binomial_poly import BinomialPoly, MonomialPoly, basis, from_values
from .constants import DEFAULT_Q_ENUM_CAP, c_table, lambda_product, q_direct, q_recurrence, q_table
from .exact_arith import EnumerationCapError, _Record, lcm_list, lcm_range, vp_int
from .rows import quotient_rows, stirling_rows
from .stirling import (
    DEFAULT_ENUM_CAP,
    d_table,
    f_direct,
    f_from_partial_sums,
    f_from_subsets,
    f_recurrence,
    f_table,
    part_multisets,
)

# The oracle differentiates every basis polynomial up to degree n in the
# monomial basis; cost grows quickly enough to warrant a cap.
DEFAULT_ORACLE_CAP = 14
# The theorem3 witness loop interpolates one product per multiset of parts
# with sum <= n (507 at n = 14); its cost grows about 3x per +2.
DEFAULT_WITNESS_CAP = 14
# The primes the lemma2 and lemma3 checks run over; their reports name them.
LEMMA2_PRIMES = (2, 3, 5, 7)
LEMMA3_PRIMES = (2, 3, 5)


class Counterexample(_Record):
    """Parameters plus the two values that were supposed to agree."""

    __slots__ = ("params", "lhs", "rhs")

    def __init__(self, params: str, lhs: str, rhs: str):
        super().__init__(params, lhs, rhs)

    def __str__(self) -> str:
        return f"{self.params}: {self.lhs} vs {self.rhs}"


class CheckReport(_Record):
    __slots__ = ("name", "tested", "passed", "counterexample")

    def __init__(
        self, name: str, tested: str, passed: bool, counterexample: Counterexample | None = None
    ):
        if not passed and counterexample is None:
            raise ValueError("a failing report must carry a counterexample")
        super().__init__(name, tested, passed, counterexample)


def _cap(what: str, max_n: int, default: int, enum_cap: int | None) -> int:
    """The enumeration cap of a route, enum_cap when set, else its default.

    Enumerating every n up to max_n would meet the cap first at n = cap + 1,
    so when max_n is over the cap this raises that error before any
    enumeration runs. Each capped check calls this before any other work.
    """
    cap = default if enum_cap is None else enum_cap
    if max_n > cap:
        raise EnumerationCapError(what, cap + 1, cap)
    return cap


def _fail(name: str, tested: str, params: str, lhs, rhs) -> CheckReport:
    return CheckReport(name, tested, False, Counterexample(params, str(lhs), str(rhs)))


def minimal_multiplier_oracle(n: int, k: int, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Least positive a making a * P^(k) integer-valued for all P of degree <= n.

    Quantifying over the basis polynomials C(X, m), m <= n, suffices: every
    integer-valued polynomial of degree <= n is an integer combination of
    them, and P -> a * P^(k) is linear, so integrality on the basis implies
    integrality everywhere. The route runs in integers: m! * C(X, m) is the
    falling factorial X(X-1)...(X-m+1), whose monomial coefficients are the
    signed Stirling row s(m, 0), ..., s(m, m) of ``rows.stirling_rows``, and
    its k-th derivative by the power rule, converted back to the binomial
    basis by differences of its values, has integer coefficients D_j.
    C(X, m)^(k) then has coefficients D_j / m!, with denominators
    m! / gcd(m!, D_j), and the answer is the lcm of those over k <= m <= n;
    for k > n it is 1. No F table is read, so this route stays independent
    of the difference-expansion machinery it is used to certify.
    """
    if n < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got ({n}, {k})")
    if n > cap:
        raise EnumerationCapError("minimal multiplier oracle", n, cap)
    out = 1
    for m, row in enumerate(itertools.islice(stirling_rows(n), k, None), start=k):
        scale = math.factorial(m)
        for coeff in MonomialPoly(row).derivative(k).to_binomial().coeffs:
            out = math.lcm(out, scale // math.gcd(scale, coeff))
    return out


def check_theorem1(max_n: int = 12, enum_cap: int | None = None) -> CheckReport:
    """Oracle for the first derivative equals lcm(1..n)."""
    cap = _cap("minimal multiplier oracle", max_n, DEFAULT_ORACLE_CAP, enum_cap)
    name, tested = "theorem1", f"1 <= n <= {max_n}"
    for n in range(1, max_n + 1):
        lhs = minimal_multiplier_oracle(n, 1, cap)
        rhs = lcm_range(n)
        if lhs != rhs:
            return _fail(name, tested, f"n={n}", f"oracle={lhs}", f"lcm(1..n)={rhs}")
    return CheckReport(name, tested, True)


def check_theorem2(
    oracle_max_n: int = 12, divisibility_max_n: int = 20, enum_cap: int | None = None
) -> CheckReport:
    """c-table equals the oracle, and c(n, k) divides q(n, k)."""
    cap = _cap("minimal multiplier oracle", oracle_max_n, DEFAULT_ORACLE_CAP, enum_cap)
    name = "theorem2"
    tested = f"oracle equality for n <= {oracle_max_n}; divisibility for n <= {divisibility_max_n}"
    hi = max(oracle_max_n, divisibility_max_n)
    c, q = c_table(d_table(f_table(hi))), q_table(hi)
    for n in range(oracle_max_n + 1):
        for k in range(n + 1):
            want = minimal_multiplier_oracle(n, k, cap)
            if c[n, k] != want:
                return _fail(name, tested, f"n={n}, k={k}", f"c={c[n, k]}", f"oracle={want}")
    for n in range(divisibility_max_n + 1):
        for k in range(n + 1):
            if q[n, k] % c[n, k] != 0:
                return _fail(
                    name, tested, f"n={n}, k={k}", f"c={c[n, k]}", f"q={q[n, k]} not a multiple"
                )
    return CheckReport(name, tested, True)


def check_theorem3(
    divisibility_max_n: int = 20, witness_max_n: int = 10, enum_cap: int | None = None
) -> CheckReport:
    """q(n, k) divides k! * c(n, k); witness products certify the bound.

    For every composition (i_1, ..., i_k) with sum m the product of basis
    polynomials C(X, i_1) * ... * C(X, i_k) is rebuilt by evaluation at
    0..m and forward-difference interpolation; its k-th derivative at 0 must
    equal (-1)**(m-k) * k! / (i_1 * ... * i_k), whose denominator must
    divide k! * c(m, k). Reordering the parts changes neither the product
    nor the expected value, so one sorted composition per multiset of parts
    is interpolated. The witness range obeys the enumeration cap.
    """
    _cap("theorem3 witness compositions", witness_max_n, DEFAULT_WITNESS_CAP, enum_cap)
    name = "theorem3"
    tested = (
        f"divisibility for n <= {divisibility_max_n}; "
        f"witness compositions with sum <= {witness_max_n}"
    )
    hi = max(divisibility_max_n, witness_max_n)
    f = f_table(hi)
    c, q = c_table(d_table(f)), q_table(hi)
    for n in range(divisibility_max_n + 1):
        for k in range(n + 1):
            if (math.factorial(k) * c[n, k]) % q[n, k] != 0:
                return _fail(
                    name, tested, f"n={n}, k={k}", f"k!*c={math.factorial(k) * c[n, k]}",
                    f"q={q[n, k]} not a divisor",
                )
    for k in range(1, witness_max_n + 1):
        column = [row[k] for row in f.rows[k:]]
        for parts in part_multisets(witness_max_n, k):
            m = sum(parts)
            values = [math.prod(math.comb(x, i) for i in parts) for x in range(m + 1)]
            witness = from_values(values).derivative(k, column).eval_int(0)
            want = Fraction((-1) ** (m - k) * math.factorial(k), math.prod(parts))
            if witness != want:
                return _fail(
                    name, tested, f"parts={parts}", f"derivative(0)={witness}", f"expected={want}"
                )
            if (math.factorial(k) * c[m, k]) % witness.denominator != 0:
                return _fail(
                    name, tested, f"parts={parts}",
                    f"den={witness.denominator}",
                    f"k!*c={math.factorial(k) * c[m, k]} not a multiple",
                )
    return CheckReport(name, tested, True)


def check_theorem4(
    routes_max_n: int = 30, oracle_max_n: int = 12, enum_cap: int | None = None
) -> CheckReport:
    """The three lambda routes agree; the oracle lcm reproduces them."""
    cap = _cap("minimal multiplier oracle", oracle_max_n, DEFAULT_ORACLE_CAP, enum_cap)
    name = "theorem4"
    tested = f"three routes for n <= {routes_max_n}; oracle lcm for n <= {oracle_max_n}"
    hi = max(routes_max_n, oracle_max_n)
    c, q = c_table(d_table(f_table(hi))), q_table(hi)
    for n in range(routes_max_n + 1):
        via_c = lcm_list(c.row(n))
        via_q = lcm_list(q.row(n))
        via_primes = lambda_product(n).value()
        if not via_c == via_q == via_primes:
            return _fail(
                name, tested, f"n={n}",
                f"lcm(c row)={via_c}",
                f"lcm(q row)={via_q}, prime product={via_primes}",
            )
    for n in range(oracle_max_n + 1):
        via_oracle = lcm_list(minimal_multiplier_oracle(n, k, cap) for k in range(n + 1))
        via_c = lcm_list(c.row(n))
        if via_oracle != via_c:
            return _fail(name, tested, f"n={n}", f"oracle lcm={via_oracle}", f"lcm(c row)={via_c}")
    return CheckReport(name, tested, True)


def check_lemma1(max_n: int = 16) -> CheckReport:
    """Mean of reciprocal absolute slopes of C(X, n) at 0..n-1 is 2**(n-1).

    The slope of C(X, n) reads F(1, 1), ..., F(n, 1), column 1 of F, so of
    each ``quotient_rows`` row only the pair at k = 1 is reduced and kept."""
    name, tested = "lemma1", f"1 <= n <= {max_n}"
    column = []
    for n, row in enumerate(itertools.islice(quotient_rows(max_n), 1, None), start=1):
        column.append(Fraction(*row[1]))
        slope = basis(n).derivative(1, column)
        # The slope is its integer numerator polynomial over one common
        # denominator, so each point takes one int evaluation and one division.
        scale = math.lcm(*(c.denominator for c in slope.coeffs))
        numerator = BinomialPoly([c.numerator * (scale // c.denominator) for c in slope.coeffs])
        total = 0
        for k in range(n):
            value = numerator.eval_int(k)
            if value == 0:
                return _fail(name, tested, f"n={n}, k={k}", "slope=0", "expected nonzero")
            total += Fraction(scale, abs(value))
        if total / n != 2 ** (n - 1):
            return _fail(name, tested, f"n={n}", f"mean={total / n}", f"expected={2 ** (n - 1)}")
    return CheckReport(name, tested, True)


def check_corollary1(max_n: int = 64) -> CheckReport:
    """lcm(1..n) >= 2**(n-1), folding lcm(1..n) once as n grows."""
    name, tested = "corollary1", f"1 <= n <= {max_n}"
    for n, lcm in enumerate(itertools.accumulate(range(1, max_n + 1), math.lcm), start=1):
        if lcm < 2 ** (n - 1):
            return _fail(name, tested, f"n={n}", f"lcm={lcm}", f"bound={2 ** (n - 1)}")
    return CheckReport(name, tested, True)


def check_lemma2(max_a: int = 10_000) -> CheckReport:
    """vp(a) <= a / p, exhaustively."""
    name, tested = "lemma2", f"1 <= a <= {max_a}, p in {LEMMA2_PRIMES}"
    for p in LEMMA2_PRIMES:
        for a in range(1, max_a + 1):
            if vp_int(a, p) * p > a:
                return _fail(name, tested, f"a={a}, p={p}", f"vp={vp_int(a, p)}", f"a/p={a}/{p}")
    return CheckReport(name, tested, True)


def check_lemma3(max_n: int = 30) -> CheckReport:
    """vp(F(k*p, k)) = -k: as F(n, k) = |s(n, k)| * k!/n! and vp((k*p)!/k!) = k
    (Legendre), that is p not dividing s(k*p, k), read one Stirling row at a time."""
    name, tested = "lemma3", f"k*p <= {max_n}, p in {LEMMA3_PRIMES}"
    for n, row in enumerate(stirling_rows(max_n)):
        for p in LEMMA3_PRIMES:
            k = n // p
            if k and n % p == 0 and row[k] % p == 0:
                valuation = vp_int(abs(row[k]), p) - k if row[k] else math.inf
                return _fail(name, tested, f"k={k}, p={p}", f"vp={valuation}", f"expected={-k}")
    return CheckReport(name, tested, True)


def cross_check_f(max_n: int = 14, enum_cap: int | None = None) -> CheckReport:
    """Five routes to F agree with the table entrywise: direct enumeration,
    the power rule at 0, subsets, partial sums and the two-term recurrence.
    The power rule reads the Stirling rows of ``f_table`` via ``to_monomial``,
    so it checks the change of basis and the power rule, not the recurrence."""
    cap = _cap("direct composition sum", max_n, DEFAULT_ENUM_CAP, enum_cap)
    name, tested = "proposition1", f"0 <= k <= n <= {max_n}"
    f, recurrence = f_table(max_n), f_recurrence(max_n)
    columns = [[row[k] for row in f.rows[k:]] for k in range(max_n + 1)]
    for n in range(max_n + 1):
        mono = basis(n).to_monomial()
        for k in range(n + 1):
            base = f[n, k]
            routes: list[tuple[str, Fraction]] = [
                ("direct", f_direct(n, k, cap=cap)),
                ("power rule at 0", abs(mono.derivative(k).eval(0))),
            ]
            if k >= 2:
                routes.append(("subsets", f_from_subsets(n, k, cap=cap)))
            if k >= 1:
                routes.append(("partial sums", f_from_partial_sums(n, k, columns[k - 1])))
            routes.append(("recurrence", recurrence[n, k]))
            for label, value in routes:
                if value != base:
                    return _fail(
                        name, tested, f"n={n}, k={k}, route={label}", f"{value}", f"table={base}"
                    )
    return CheckReport(name, tested, True)


def check_proposition2(max_n: int = 14, enum_cap: int | None = None) -> CheckReport:
    """The q recurrence matches brute-force enumeration."""
    cap = _cap("composition product lcm", max_n, DEFAULT_Q_ENUM_CAP, enum_cap)
    name, tested = "proposition2", f"0 <= k <= n <= {max_n}"
    q, recurrence = q_table(max_n), q_recurrence(max_n)
    for n in range(max_n + 1):
        for k in range(n + 1):
            want = q_direct(n, k, cap=cap)
            if q[n, k] != want:
                return _fail(name, tested, f"n={n}, k={k}", f"table={q[n, k]}", f"enumeration={want}")
            if q[n, k] != recurrence[n, k]:
                return _fail(
                    name, tested, f"n={n}, k={k}", f"table={q[n, k]}",
                    f"recurrence={recurrence[n, k]}",
                )
    return CheckReport(name, tested, True)


def run_check(name: str, max_n: int | None = None, enum_cap: int | None = None) -> CheckReport:
    """Run one named check at its default ranges, or with every range set to
    max_n. enum_cap, when set, replaces the cap of every brute-force route
    (the multiplier oracle, the theorem3 witnesses, and the F and q
    enumerations) in a check that declares it, as IVPOLY_ENUM_CAP does."""
    if name not in CHECK_NAMES:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    if max_n is not None and (type(max_n) is not int or max_n < 0):
        raise ValueError(f"max_n must be >= 0, got {max_n!r}")
    if enum_cap is not None and (type(enum_cap) is not int or enum_cap < 1):
        raise ValueError(f"enum_cap must be >= 1, got {enum_cap!r}")
    # Looked up by name at call time, so a wrapped module attribute is seen;
    # the parameters are read from the code of the check under any wrappers
    # made with functools.wraps, which record what they wrap in __wrapped__.
    check = globals()["cross_check_f" if name == "proposition1" else f"check_{name}"]
    inner = check
    while hasattr(inner, "__wrapped__"):
        inner = inner.__wrapped__
    params = inner.__code__.co_varnames[: inner.__code__.co_argcount]
    kwargs = {} if max_n is None else {p: max_n for p in params if p != "enum_cap"}
    if "enum_cap" in params:
        kwargs["enum_cap"] = enum_cap
    return check(**kwargs)


def run_all(max_n: int | None = None, enum_cap: int | None = None) -> list[CheckReport]:
    """Every check through run_check, sorted by check name."""
    return [run_check(name, max_n, enum_cap) for name in CHECK_NAMES]
