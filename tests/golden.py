"""Frozen reference values for the published triangles and sequence, and
replaced code kept as a test oracle for its replacement."""

import itertools
import math
from fractions import Fraction

from ivpoly.stirling import compositions

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
    """The loop that ``BinomialPoly.eval_int`` replaced: one term per
    coefficient, added in the coefficient's own type."""
    total = 0
    binom = 1  # C(x, 0)
    for j, c in enumerate(poly.coeffs):
        if j > 0:
            binom = binom * (x - j + 1) // j
        if c:
            total += c * binom
    return total
