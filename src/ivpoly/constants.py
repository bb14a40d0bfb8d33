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
its oracles. `table q` reads ``q_rows`` and `table c` reads ``c_rows``, which
steps each c column down the Stirling rows by one small gcd per entry;
``c_table``, the lcm fold of the d-table, stays its oracle and is what verify
reads. The Stirling rows, the triangle class and the brute-force walker are
imported where they are used, so streaming q loads neither stirling nor
fractions.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .exact_arith import EnumerationCapError, PrimeFactorization, lcm_list, primes_up_to

# q_direct walks every multiset of k parts with sum <= n, an oracle-only route;
# the cap stays 18, as the exit-3 boundary and its error message are pinned.
DEFAULT_Q_ENUM_CAP = 18


def c_rows(max_n: int) -> Iterator[list[int]]:
    """Rows 0..max_n of c, row n from Stirling row n and c row n - 1.

    Every d(m, k) divides m!/k!, so c(n - 1, k) divides N = n!/k!. Prime by
    prime, max(v_p(c(n - 1, k)), v_p(d(n, k))) is then the valuation of

        c(n, k) = c(n - 1, k) * M / g,  g = gcd(s(n, k) mod M, M),

    with M = N / c(n - 1, k). The step leaves c(n, k) = N / g, so column k
    keeps g = (n!/k!) / c(n, k), which opens at 1 as c(k, k) = 1, and the
    next row's M is n + 1 times it. So no step reads N, and each gcd is on
    M, a few hundred bits at n = 240, where d(n, k) takes one on all of N.
    """
    from .stirling import stirling_rows

    row: list[int] = []
    left: list[int] = []  # (n!/k!) / c(n, k) along the row last yielded
    for n, stirling_row in enumerate(stirling_rows(max_n)):
        row = row[:]
        for k in range(n):
            m = n * left[k]
            left[k] = g = math.gcd(stirling_row[k] % m, m)
            if g != m:
                row[k] *= m // g
        row.append(1)
        left.append(1)
        yield row


def c_table(d: IntegerTriangle) -> IntegerTriangle:
    """Column-wise lcm folds of the d-table, row for row: entry (n, k) is
    lcm of d(m, k) for k <= m <= n, and c(n, n) = d(n, n) opens column n.
    The oracle for ``c_rows``, which `table c` reads."""
    from .triangles import IntegerTriangle

    return IntegerTriangle(
        itertools.accumulate(d.rows, lambda row, d_row: [*map(math.lcm, row, d_row), d_row[-1]])
    )


def q_rows(max_n: int) -> Iterator[list[int]]:
    """Rows 0..max_n of q: row n is row n - 1 times the small steps read from
    the valuation thresholds that fall on n (see q_table), and q(n, n) = 1."""
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    primes = primes_up_to(max_n)
    row = [1]
    yield row
    for n in range(1, max_n + 1):
        steps = [1] * (n + 1)
        for p in primes:
            if p > n:
                break
            u = n * p
            while u % p == 0:  # u runs over n / p**t for each p**t dividing n
                u //= p
                # k = u - r*(p - 1) for 1 <= r <= u // p
                for k in range(u - p + 1, u - u // p * (p - 1) - 1, 1 - p):
                    steps[k] *= p
        row = [entry * step if step != 1 else entry for entry, step in zip([*row, 1], steps)]
        yield row


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
    from .stirling import part_multisets

    out = 1
    for parts in part_multisets(n, k):
        out = math.lcm(out, math.prod(parts))
    return out


def lambda_product(n: int) -> PrimeFactorization:
    """lambda(n) in closed form: exponent n // p for every prime p <= n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return PrimeFactorization(tuple((p, n // p) for p in primes_up_to(n)))
