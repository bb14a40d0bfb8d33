"""Frozen reference values for the published triangles and sequence, and
replaced code kept as a test oracle for its replacement."""

import itertools
import math
from fractions import Fraction

from ivpoly.binomial_poly import BinomialPoly
from ivpoly.exact_arith import primes_up_to, vp_rat
from ivpoly.stirling import compositions, f_table

# Triangle of the minimal k-th-derivative multipliers c(n, k), rows n = 0..10.
GOLDEN_C = [
    [1],
    [1, 1],
    [1, 2, 1],
    [1, 6, 1, 1],
    [1, 12, 12, 2, 1],
    [1, 60, 12, 4, 1, 1],
    [1, 60, 180, 8, 6, 2, 1],
    [1, 420, 180, 120, 6, 6, 1, 1],
    [1, 840, 5040, 240, 240, 6, 4, 2, 1],
    [1, 2520, 5040, 15120, 240, 144, 4, 12, 1, 1],
    [1, 2520, 25200, 30240, 15120, 288, 240, 24, 3, 2, 1],
]

# Triangle of the composition-product lcms q(n, k), rows n = 0..10.
GOLDEN_Q = [
    [1],
    [1, 1],
    [1, 2, 1],
    [1, 6, 2, 1],
    [1, 12, 12, 2, 1],
    [1, 60, 12, 12, 2, 1],
    [1, 60, 360, 24, 12, 2, 1],
    [1, 420, 360, 360, 24, 12, 2, 1],
    [1, 840, 5040, 720, 720, 24, 12, 2, 1],
    [1, 2520, 5040, 15120, 720, 720, 24, 12, 2, 1],
    [1, 2520, 25200, 30240, 30240, 1440, 720, 24, 12, 2, 1],
]

# lambda(n) for n = 0..10.
GOLDEN_LAMBDA = [1, 1, 2, 6, 12, 60, 360, 2520, 5040, 15120, 151200]


def compositions_recursive(total, parts):
    """The recursive composition walk that ``stirling.compositions`` replaced:
    first part ascending, then every composition of the rest."""
    if parts < 0 or total < 0:
        return
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions_recursive(total - first, parts - 1):
            yield (first,) + rest


def f_direct_fractions(n, k):
    """The composition sum that ``stirling.f_direct`` replaced: one Fraction
    per composition of n into k parts."""
    total = Fraction(0)
    for parts in compositions(n, k):
        total += Fraction(1, math.prod(parts))
    return total


def f_from_subsets_fractions(n, k):
    """The subset sum that ``stirling.f_from_subsets`` replaced: one Fraction
    per (k-1)-subset of 1..n-1, times k!/n."""
    total = Fraction(0)
    for subset in itertools.combinations(range(1, n), k - 1):
        total += Fraction(1, math.prod(subset))
    return Fraction(math.factorial(k), n) * total


def part_multisets_filtered(max_total, parts):
    """The walk that ``stirling.part_multisets`` replaced: every ascending
    tuple of parts up to max_total - parts + 1, kept when its sum fits."""
    pool = range(1, max_total - parts + 2)
    for multiset in itertools.combinations_with_replacement(pool, parts):
        if sum(multiset) <= max_total:
            yield multiset


def eval_int_loop(poly, x):
    """C(x, j) times coefficient j for every coefficient, each term added in
    its coefficient's own type."""
    total = 0
    binom = 1  # C(x, 0)
    for j, c in enumerate(poly.coeffs):
        if j > 0:
            binom = binom * (x - j + 1) // j
        if c:
            total += c * binom
    return total


def eval_int_every_term(poly, x):
    """C(x, j) times coefficient j for every coefficient, the terms summed as
    ints over the lcm of all the denominators and divided once, though
    C(x, j) = 0 for 0 <= x < j."""
    scale = math.lcm(*(c.denominator for c in poly.coeffs))
    total = 0
    binom = 1  # C(x, 0)
    for j, c in enumerate(poly.coeffs):
        if j > 0:
            binom = binom * (x - j + 1) // j
        if c:
            total += c.numerator * (scale // c.denominator) * binom
    if all(isinstance(c, int) for c in poly.coeffs if c):
        return total
    return Fraction(total, scale)


def prime_divisors_table(n):
    """The walk that ``exact_arith.prime_divisors`` replaced: the ascending
    primes dividing m = 0..n, read off a table of least prime factors."""
    # least[m] is the least prime factor of a composite m and 0 for a prime.
    # Each prime p <= isqrt(n) marks its multiples from p * p on, the largest
    # first, so the least prime dividing m writes last.
    least = [0] * (n + 1)
    for p in reversed(primes_up_to(math.isqrt(n))):
        least[p * p :: p] = [p] * len(range(p * p, n + 1, p))
    for m, p in enumerate(least):
        primes = []
        while p:
            primes.append(p)
            m //= p
            while m % p == 0:
                m //= p
            p = least[m]
        # What no table entry splits further is 0, 1 or a prime.
        if m > 1:
            primes.append(m)
        yield primes


def lemma3_valuations_from_f(max_n, primes):
    """The route ``verify.check_lemma3`` replaced: vp(F(k*p, k)) of the reduced
    Fraction in each F row, as {(k, p): valuation} for 1 <= k*p <= max_n."""
    out = {}
    for n, row in enumerate(f_table(max_n).rows):
        for p in primes:
            k = n // p
            if k and n % p == 0:
                out[k, p] = vp_rat(row[k], p)
    return out


def f_column(table, k):
    """Column k of an F triangle from row k down, F(k, k), F(k+1, k), ...:
    the coefficients ``BinomialPoly.derivative`` reads for order k, and the
    column ``stirling.f_from_partial_sums`` reads for F(n, k + 1)."""
    return [row[k] for row in table.rows[k:]]


def derivative_every_coefficient(poly, k, column):
    """The loop that ``BinomialPoly.derivative`` replaced: one product per
    coefficient of each difference, zero coefficients included."""
    deg = poly.degree
    if deg is None or k > deg:
        return BinomialPoly()
    acc = [0] * (deg - k + 1)
    for m in range(k, deg + 1):
        factor = column[m - k] if (m - k) % 2 == 0 else -column[m - k]
        if factor == 0:
            continue
        for j in range(deg - m + 1):
            acc[j] += factor * poly.coeffs[j + m]
    return BinomialPoly(acc)


def running_products_every_step(steps):
    """The generator that ``cli._running_products`` replaced: one decimal text
    per step, a step of 1 included."""
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded

    context = Context(prec=MAX_PREC, Emax=MAX_EMAX)
    context.traps[Inexact] = context.traps[Rounded] = True
    term = Decimal(1)
    for step in steps:
        term = context.multiply(term, step)
        yield str(term)
