"""The headline constant tables: minimal derivative multipliers and lcm bounds.

c(n, k) is the least positive integer a such that a times the k-th derivative
of every integer-valued polynomial of degree <= n is again integer-valued; it
equals the lcm of the k-th column of the d-table from row k down to row n.
q(n, k) is the lcm of all part products over compositions of length k with
sum <= n, and lambda(n) = lcm of row n of either table, with the closed form
prod over primes p of p**(n // p). ``lambda_product`` computes one lambda(n)
and stays the oracle of the sequences that ``ivpoly seq lambda`` streams.
``q_table`` builds q from a closed form of its p-adic valuations, and
``q_recurrence`` (the lcm recurrence) and ``q_direct`` (enumeration) stay as
its oracles. ``c_table`` folds the d-table by lcm and is what verify reads.
The integer rows that `table c` and `table q` print live in ``rows``.
The triangle class is imported where it is used, so the checks that build no
triangle load none.
"""

from __future__ import annotations

import itertools
import math

from .exact_arith import EnumerationCapError, PrimeFactorization, lcm_list, primes_up_to
from .rows import q_rows
from .stirling import part_multisets

# q_direct walks every multiset of k parts with sum <= n, an oracle-only route;
# the cap stays 18, as the exit-3 boundary and its error message are pinned.
DEFAULT_Q_ENUM_CAP = 18


def c_table(d: IntegerTriangle) -> IntegerTriangle:
    """Column-wise lcm folds of the d-table, row for row: entry (n, k) is
    lcm of d(m, k) for k <= m <= n, and c(n, n) = d(n, n) opens column n.
    The oracle for ``rows.c_rows``, which `table c` reads."""
    from .triangles import IntegerTriangle

    return IntegerTriangle(
        itertools.accumulate(d.rows, lambda row, d_row: [*map(math.lcm, row, d_row), d_row[-1]])
    )


def q_table(max_n: int) -> IntegerTriangle:
    """The q triangle up to row max_n from the p-adic valuations of its entries.

    q(n, k) is the lcm of i_1 * ... * i_k over k positive parts with sum
    <= n, so v_p(q(n, k)) is the largest sum of v_p(i_j) over such parts. A
    part with v_p = a is at least p**a, and the part p**a reaches it, so
    v_p(q(n, k)) is the largest a_1 + ... + a_k with
    p**a_1 + ... + p**a_k <= n. As a -> p**a is convex, for a fixed sum
    E = k*t + r (0 <= r < k) the balanced vector, r exponents t + 1 and k - r
    exponents t, costs least, so

        v_p(q(n, k)) = max{E : cost_k(E) <= n},
        cost_k(E) = (k - r) * p**t + r * p**(t + 1),

    and v_p(q(n, 0)) = 0. Since a * p <= p**a for a >= 1, the sum E is at
    most n // p, which k = n // p parts equal to p reach: the lcm of row n is
    prod over p of p**(n // p), the paper's lambda(n).

    For fixed (k, p) the valuation rises by one exactly at n = cost_k(E),
    E = 1, 2, ...; those E = k*t + r with 1 <= r <= k are
    n = p**t * (k + r*(p - 1)). Read by row: for each prime p <= n and each
    p**t dividing n (t >= 0), with u = n / p**t, the entries
    k = u - r*(p - 1), 1 <= r <= u // p, gain one factor p over row n - 1.
    So row n is row n - 1 times a row of small step factors, one
    big-by-small multiplication per entry that changes, with q(n, n) = 1,
    over one sieve of the primes up to max_n.
    """
    from .triangles import IntegerTriangle

    return IntegerTriangle(q_rows(max_n))


def q_recurrence(max_n: int) -> IntegerTriangle:
    """The q triangle up to row max_n via its lcm recurrence (the oracle for
    q_table).

    q(n, 0) = 1; for 1 <= k <= n,
    q(n, k) = lcm of (n - m + 1) * q(m-1, k-1) over k <= m <= n.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    from .triangles import IntegerTriangle

    rows: list[list[int]] = [[1]]
    for n in range(1, max_n + 1):
        row = [1]
        for k in range(1, n + 1):
            row.append(lcm_list((n - m + 1) * rows[m - 1][k - 1] for m in range(k, n + 1)))
        rows.append(row)
    return IntegerTriangle(rows)


def q_direct(n: int, k: int, cap: int = DEFAULT_Q_ENUM_CAP) -> int:
    """q(n, k) by brute force: lcm of part products over every multiset of
    exactly k positive parts with sum <= n (a product does not depend on the
    order of its parts, so each multiset stands for all its compositions)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    if n > cap:
        raise EnumerationCapError("composition product lcm", n, cap)
    out = 1
    for parts in part_multisets(n, k):
        out = math.lcm(out, math.prod(parts))
    return out


def lambda_product(n: int) -> PrimeFactorization:
    """lambda(n) in closed form: exponent n // p for every prime p <= n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return PrimeFactorization(tuple((p, n // p) for p in primes_up_to(n)))
