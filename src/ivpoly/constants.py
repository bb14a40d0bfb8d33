"""The headline constant tables: minimal derivative multipliers and lcm bounds.

c(n, k) is the least positive integer a such that a times the k-th derivative
of every integer-valued polynomial of degree <= n is again integer-valued; it
equals the lcm of the k-th column of the d-table from row k down to row n.
q(n, k) is the lcm of all part products over compositions of length k with
sum <= n, and lambda(n) = lcm of row n of either table, with the closed form
prod over primes p of p**(n // p). ``lambda_product`` computes one lambda(n)
and stays the oracle; ``lambda_factorizations`` streams the whole sequence
from one sieve.
"""

from __future__ import annotations

import math
from typing import Iterator

from .exact_arith import EnumerationCapError, PrimeFactorization, lcm_list, primes_up_to
from .stirling import compositions
from .triangles import IntegerTriangle

# q_direct enumerates every composition of every total up to n; 2**(n-1)
# tuples per total keeps this an oracle-only route.
DEFAULT_Q_ENUM_CAP = 18


def c_table(max_n: int, d: IntegerTriangle) -> IntegerTriangle:
    """Column-wise lcm folds of the d-table: entry (n, k) is
    lcm of d(m, k) for k <= m <= n."""
    if d.max_n < max_n:
        raise ValueError(f"d-table covers rows up to {d.max_n}, need {max_n}")
    rows: list[list[int]] = []
    for n in range(max_n + 1):
        row = []
        for k in range(n + 1):
            if k == n:
                row.append(d[n, n])
            else:
                row.append(math.lcm(rows[n - 1][k], d[n, k]))
        rows.append(row)
    return IntegerTriangle(rows, label="c-table")


def q_table(max_n: int) -> IntegerTriangle:
    """The q triangle up to row max_n via its lcm recurrence.

    q(n, 0) = 1; for 1 <= k <= n,
    q(n, k) = lcm of (n - m + 1) * q(m-1, k-1) over k <= m <= n.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    rows: list[list[int]] = [[1]]
    for n in range(1, max_n + 1):
        row = [1]
        for k in range(1, n + 1):
            row.append(lcm_list((n - m + 1) * rows[m - 1][k - 1] for m in range(k, n + 1)))
        rows.append(row)
    return IntegerTriangle(rows, label="q-table")


def q_direct(n: int, k: int, cap: int | None = None) -> int:
    """q(n, k) by brute force: lcm of part products over all compositions
    of every total m <= n into exactly k positive parts."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    limit = DEFAULT_Q_ENUM_CAP if cap is None else cap
    if n > limit:
        raise EnumerationCapError("composition product lcm", n, limit)
    out = 1
    for m in range(n + 1):
        for parts in compositions(m, k):
            out = math.lcm(out, math.prod(parts))
    return out


def lambda_product(n: int) -> PrimeFactorization:
    """lambda(n) in closed form: exponent n // p for every prime p <= n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return PrimeFactorization(tuple((p, n // p) for p in primes_up_to(n)))


def lambda_factorizations(max_n: int) -> Iterator[PrimeFactorization]:
    """lambda(0), ..., lambda(max_n) in closed form, from one sieve up to max_n."""
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    primes = primes_up_to(max_n)
    count = 0
    for n in range(max_n + 1):
        if count < len(primes) and primes[count] == n:
            count += 1
        yield PrimeFactorization(tuple((p, n // p) for p in primes[:count]))
