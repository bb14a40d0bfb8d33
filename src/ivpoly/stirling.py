"""Stirling numbers of the first kind and the rational triangle F built on them.

F(n, k) is the sum of 1/(i_1 * ... * i_k) over all ordered ways of writing n
as k positive parts; equivalently k!/n! times |s(n, k)|. The production route
is that Stirling quotient, read row by row from the integer Stirling rows with
one reduction per entry; four further routes (direct enumeration, a subset
sum, a partial-sum recurrence, and the two-term recurrence
F(n+1, k) = k/(n+1) * F(n, k-1) + n/(n+1) * F(n, k)) recompute the entries
so that each can serve as an oracle for the others. The denominators of F
form the d-table that the headline constants are folded from.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from fractions import Fraction

from .exact_arith import EnumerationCapError
from .triangles import IntegerTriangle, RationalTriangle, StirlingTable

# Direct enumeration walks all C(n-1, k-1) compositions per entry, so it is
# reserved for oracle duty at small n.
DEFAULT_ENUM_CAP = 22


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of ``parts`` positive integers summing to ``total``, in
    lexicographic order: one per choice of ``parts - 1`` cut points in
    ``1..total - 1``, the parts being the gaps between 0, the cuts and total."""
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
    as one tuple with the parts ascending."""
    for multiset in itertools.combinations_with_replacement(range(1, max_total - parts + 2), parts):
        if sum(multiset) <= max_total:
            yield multiset


def stirling_rows(max_n: int) -> Iterator[list[int]]:
    """Rows 0..max_n of the Stirling numbers of the first kind, each from the
    row above by s(n+1, k) = s(n, k-1) - n*s(n, k), from s(0, 0) = 1."""
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    row = [1]
    yield row
    for n in range(max_n):
        row = [left - n * right for left, right in zip([0, *row], [*row, 0])]
        yield row


def stirling_first(max_n: int) -> StirlingTable:
    """Triangle of Stirling numbers of the first kind up to row max_n.

    Built from s(0, 0) = 1 by s(n+1, k) = s(n, k-1) - n*s(n, k).
    """
    return StirlingTable(stirling_rows(max_n))


def f_rows(max_n: int) -> Iterator[list[Fraction]]:
    """Rows 0..max_n of F, each read from the Stirling row of the same n as
    F(n, k) = |s(n, k)| / (n!/k!), with n!/k! built as k walks down from n."""
    for n, stirling_row in enumerate(stirling_rows(max_n)):
        row, falling = [], 1
        for k in range(n, -1, -1):
            row.append(Fraction(abs(stirling_row[k]), falling))
            falling *= k
        row.reverse()
        yield row


def f_table(max_n: int) -> RationalTriangle:
    """The F triangle up to row max_n, each entry k!/n! * |s(n, k)| reduced
    once from the integer Stirling row (see ``f_recurrence`` for the oracle).
    """
    return RationalTriangle(f_rows(max_n))


def f_recurrence(max_n: int) -> RationalTriangle:
    """The F triangle up to row max_n by its two-term recurrence (the oracle
    for ``f_table``).

    F(0, 0) = 1 and F(n, 0) = 0 for n >= 1; each later entry is
    F(n+1, k) = k/(n+1) * F(n, k-1) + n/(n+1) * F(n, k).
    """
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
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
    """F(n, k) by brute force: sum 1/(product of parts) over compositions."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    if n > cap:
        raise EnumerationCapError("direct composition sum", n, cap)
    total = Fraction(0)
    for parts in compositions(n, k):
        total += Fraction(1, math.prod(parts))
    return total


def f_from_subsets(n: int, k: int, cap: int = DEFAULT_ENUM_CAP) -> Fraction:
    """F(n, k) for k >= 2 as k!/n times a sum over (k-1)-subsets of 1..n-1.

    Each subset {i_1 < ... < i_{k-1}} contributes 1/(i_1 * ... * i_{k-1}).
    """
    if k < 2:
        raise ValueError(f"the subset formula needs k >= 2, got k = {k}")
    if k > n:
        raise ValueError(f"need k <= n, got ({n}, {k})")
    if n > cap:
        raise EnumerationCapError("subset reciprocal sum", n, cap)
    total = Fraction(0)
    for subset in itertools.combinations(range(1, n), k - 1):
        total += Fraction(1, math.prod(subset))
    return Fraction(math.factorial(k), n) * total


def f_from_partial_sums(n: int, k: int, table: RationalTriangle) -> Fraction:
    """F(n, k) for 1 <= k <= n as k/n times the partial column sum
    of F(m, k-1) over k-1 <= m <= n-1."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got ({n}, {k})")
    if table.max_n < n - 1:
        raise ValueError(f"table covers rows up to {table.max_n}, need {n - 1}")
    return Fraction(k, n) * sum(
        (table[m, k - 1] for m in range(k - 1, n)), Fraction(0)
    )


def d_rows(rows: Iterable[Iterable[Fraction]]) -> Iterator[list[int]]:
    """The denominators of the F rows, row by row."""
    return ([entry.denominator for entry in row] for row in rows)


def d_table(f: RationalTriangle) -> IntegerTriangle:
    """Elementwise denominators of the F triangle (den of 0 and 1 is 1)."""
    return IntegerTriangle(d_rows(f.rows))
