"""The integer row generators that `table` prints: s, the F pairs, d, c and q.

Each generator yields rows 0..max_n of one triangle, row n made in ints from
the row above or from the Stirling row of the same n. The rule of this module
is integers only: no ``Fraction`` and no triangle class, so a table command
loads neither. The ``Fraction`` routes, the triangle builders and the oracles
that verify reads live in ``stirling`` and ``constants``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .exact_arith import primes_up_to


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


def quotient_rows(max_n: int) -> Iterator[list[tuple[int, int]]]:
    """Rows 0..max_n of the unreduced pairs (a, b) = (|s(n, k)|, n!/k!), with
    n!/k! built as k walks down from n, so F(n, k) = a/b. ``stirling.f_rows``
    reduces each pair as a Fraction; ``d_rows`` and `table F` take one gcd per
    pair in ints and build no Fraction."""
    for n, stirling_row in enumerate(stirling_rows(max_n)):
        row, falling = [], 1
        for k in range(n, -1, -1):
            row.append((abs(stirling_row[k]), falling))
            falling *= k
        row.reverse()
        yield row


def d_rows(max_n: int) -> Iterator[list[int]]:
    """Rows 0..max_n of d in ints: d(n, k) = (n!/k!) // gcd(s(n, k), n!/k!)."""
    return ([b // math.gcd(a, b) for a, b in row] for row in quotient_rows(max_n))


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


def q_rows(max_n: int) -> Iterator[list[int]]:
    """Rows 0..max_n of q: row n is row n - 1 times the small steps read from
    the valuation thresholds that fall on n (see constants.q_table), and
    q(n, n) = 1."""
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
