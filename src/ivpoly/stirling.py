"""Stirling numbers of the first kind and the rational triangle F built on them.

F(n, k) is the sum of 1/(i_1 * ... * i_k) over all ordered ways of writing n
as k positive parts; equivalently k!/n! times |s(n, k)|. The production route
is that Stirling quotient, read row by row from the integer Stirling rows with
one reduction per entry; four further routes (a partition sum, a subset sum,
a partial sum of column k-1, and the two-term recurrence
F(n+1, k) = k/(n+1) * F(n, k-1) + n/(n+1) * F(n, k)) recompute the entries
so that each can serve as an oracle for the others. The denominators of F
form the d-table that the headline constants are folded from.
The Stirling rows and the n!/k! pairs that F is read from live in ``rows``,
with the other integer rows that `table` prints. The triangle classes are
imported in the functions that build them, so the checks that stream rows
load no triangle. ``compositions`` has no caller here: it is kept as the test
oracle of the partition walk and for the benchmark tracer, which wraps it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .exact_arith import EnumerationCapError
from .rows import quotient_rows, stirling_rows

# The subset route walks all C(n-1, k-1) subsets per entry, about 4x more per
# +2 in n, so both brute-force routes are reserved for oracle duty at small n.
DEFAULT_ENUM_CAP = 22


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of ``parts`` positive integers summing to ``total``, in
    lexicographic order: one per choice of ``parts - 1`` cut points in
    ``1..total - 1``, the parts being the gaps between 0, the cuts and total.

    No route of the package walks it: it is kept as the test oracle of
    ``part_multisets`` and ``f_direct``, and the benchmark tracer wraps it.
    """
    if parts == total == 0:
        yield ()
    if parts < 1 or total < parts:
        return
    for cuts in itertools.combinations(range(1, total), parts - 1):
        # From a list, not a generator: tuple() would resize its guess, and
        # CPython keeps up to 2000 freed tuples of each resized length.
        yield tuple([b - a for a, b in itertools.pairwise((0, *cuts, total))])


def part_multisets(max_total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Each multiset of ``parts`` positive integers with sum <= max_total,
    as one tuple with the parts ascending, in lexicographic order.

    The walk picks the smallest part first and each later part at least as
    large as the one before, so a part never exceeds what the budget left
    can give to it and to every part after it; no candidate is discarded.
    """
    if parts < 0:
        raise ValueError(f"parts must be >= 0, got {parts}")
    if max_total >= 0:
        yield from _ascending_parts((), 1, max_total, parts)


def _ascending_parts(
    prefix: tuple[int, ...], smallest: int, budget: int, left: int
) -> Iterator[tuple[int, ...]]:
    if left == 0:
        yield prefix
        return
    for part in range(smallest, budget // left + 1):
        yield from _ascending_parts((*prefix, part), part, budget - part, left - 1)


def stirling_first(max_n: int) -> StirlingTable:
    """Triangle of Stirling numbers of the first kind up to row max_n.

    Built from s(0, 0) = 1 by s(n+1, k) = s(n, k-1) - n*s(n, k).
    """
    from .triangles import StirlingTable

    return StirlingTable(stirling_rows(max_n))


def f_rows(max_n: int) -> Iterator[list[Fraction]]:
    """Rows 0..max_n of F, each read from the Stirling row of the same n as
    F(n, k) = |s(n, k)| / (n!/k!) (see ``rows.quotient_rows``)."""
    return ([Fraction(a, b) for a, b in row] for row in quotient_rows(max_n))


def f_table(max_n: int) -> RationalTriangle:
    """The F triangle up to row max_n, each entry k!/n! * |s(n, k)| reduced
    once from the integer Stirling row (see ``f_recurrence`` for the oracle).
    """
    from .triangles import RationalTriangle

    return RationalTriangle(f_rows(max_n))


def f_recurrence(max_n: int) -> RationalTriangle:
    """The F triangle up to row max_n by its two-term recurrence (the oracle
    for ``f_table``).

    F(0, 0) = 1 and F(n, 0) = 0 for n >= 1; each later entry is
    F(n+1, k) = k/(n+1) * F(n, k-1) + n/(n+1) * F(n, k).
    """
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    from .triangles import RationalTriangle

    row = [Fraction(1)]
    rows = [row]
    for n in range(max_n):
        prev, row = row, [Fraction(0)]
        for k in range(1, n + 2):
            entry = Fraction(k, n + 1) * prev[k - 1]
            if k <= n:
                entry += Fraction(n, n + 1) * prev[k]
            row.append(entry)
        rows.append(row)
    return RationalTriangle(rows)


def f_direct(n: int, k: int, cap: int = DEFAULT_ENUM_CAP) -> Fraction:
    """F(n, k) by brute force: sum 1/(product of parts) over compositions.

    Each partition of n into k parts stands for its k!/prod(multiplicity!)
    orderings, a counting fact that reads no Stirling number. A product of
    parts with sum n divides n!, so the sum runs in integers over n!.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    if n > cap:
        raise EnumerationCapError("direct composition sum", n, cap)
    scale, orderings = math.factorial(n), math.factorial(k)
    total = 0
    for parts in part_multisets(n, k):
        if sum(parts) == n:
            repeats = math.prod(map(math.factorial, Counter(parts).values()))
            total += orderings // repeats * (scale // math.prod(parts))
    return Fraction(total, scale)


def f_from_subsets(n: int, k: int, cap: int = DEFAULT_ENUM_CAP) -> Fraction:
    """F(n, k) for k >= 2 as k!/n times a sum over (k-1)-subsets of 1..n-1.

    Each subset {i_1 < ... < i_{k-1}} contributes 1/(i_1 * ... * i_{k-1}).
    A product of distinct numbers below n divides (n-1)!, so the sum runs in
    integers over (n-1)!.
    """
    if k < 2:
        raise ValueError(f"the subset formula needs k >= 2, got k = {k}")
    if k > n:
        raise ValueError(f"need k <= n, got ({n}, {k})")
    if n > cap:
        raise EnumerationCapError("subset reciprocal sum", n, cap)
    scale = math.factorial(n - 1)
    subsets = itertools.combinations(range(1, n), k - 1)
    total = sum(scale // math.prod(subset) for subset in subsets)
    return Fraction(math.factorial(k) * total, n * scale)


def f_from_partial_sums(n: int, k: int, column: Sequence[Fraction]) -> Fraction:
    """F(n, k) for 1 <= k <= n as k/n times F(k-1, k-1) + ... + F(n-1, k-1), the
    first n-k+1 entries of ``column``: column k-1 of F from row k-1 down, the
    column ``BinomialPoly.derivative`` reads for order k-1."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got ({n}, {k})")
    if len(column) < n - k + 1:
        raise ValueError(f"coefficient column covers rows up to {k + len(column) - 2}, need {n - 1}")
    return Fraction(k, n) * sum(column[: n - k + 1], Fraction(0))


def d_table(f: RationalTriangle) -> IntegerTriangle:
    """Elementwise denominators of the F triangle (den of 0 and 1 is 1): the
    oracle for ``rows.d_rows``, which `table d` reads."""
    from .triangles import IntegerTriangle

    return IntegerTriangle([entry.denominator for entry in row] for row in f.rows)
