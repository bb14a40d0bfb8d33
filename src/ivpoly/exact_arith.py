"""Exact integer and rational helpers: p-adic valuations, lcm folds, primes.

Python integers are arbitrary precision and ``fractions.Fraction`` keeps every
rational reduced with a positive denominator, so nothing here ever rounds;
these wrappers add the domain checks and conventions the rest of the package
relies on.

``prime_divisors`` walks 0..n once, holding only the primes up to isqrt(n),
and yields the distinct primes of each m. Both sequences step by what they say:
lcm(1..m) gains p exactly when m is a power of the prime p, and lambda(m)
gains rad(m), the product of the primes dividing m. So lcm(1..n), lambda(n)
and the factored lambda(n) all stream from that one walk.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

# vp_int, PrimeFactorization and cli._factored_terms (seq lambda --factored) read
# primality from a sieve below this bound (16 MB at most), by trial division from it up.
SIEVE_LIMIT = 2**24


class EnumerationCapError(RuntimeError):
    """A brute-force enumeration would exceed its configured cap."""

    def __init__(self, what: str, requested: int, cap: int):
        super().__init__(f"{what}: n = {requested} exceeds the enumeration cap {cap}")
        self.requested = requested
        self.cap = cap


def is_prime(p: int) -> bool:
    """Deterministic trial division, O(sqrt(p)) divisions; _verified_prime
    calls it for p >= SIEVE_LIMIT."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


# The sieve behind _verified_prime, replaced by one twice as long whenever a
# larger p is asked about.
_PRIME_FLAGS = bytearray()


def _verified_prime(p: int) -> bool:
    """Whether p is prime, read from the cached sieve; as each sieve doubles the
    last, verifying the primes up to N sieves O(N) numbers in all.
    p >= SIEVE_LIMIT falls back to is_prime."""
    if p < 2:
        return False
    if p >= SIEVE_LIMIT:
        return is_prime(p)
    if p >= len(_PRIME_FLAGS):
        size = max(len(_PRIME_FLAGS), 1024)
        while size <= p:
            size *= 2
        _PRIME_FLAGS[:] = _sieve(size - 1)
    return bool(_PRIME_FLAGS[p])


def vp_int(a: int, p: int) -> int:
    """Largest e such that p**e divides a, for a >= 1 and p prime."""
    if a <= 0:
        raise ValueError(f"valuation needs a positive integer, got {a}")
    if not _verified_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    e = 0
    while a % p == 0:
        a //= p
        e += 1
    return e


def vp_rat(r: int | Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational: vp(numerator) - vp(denominator).

    Only an int or a Fraction is exact; a float is rejected rather than read
    as its binary expansion.
    """
    from fractions import Fraction

    if not isinstance(r, (int, Fraction)) or isinstance(r, bool):
        raise ValueError(f"valuation needs an int or a Fraction, got {r!r}")
    if r == 0:
        raise ValueError("the valuation of 0 is not representable")
    return vp_int(abs(r.numerator), p) - vp_int(r.denominator, p)


def lcm_list(xs: Iterable[int]) -> int:
    """Least common multiple of positive integers; the empty list gives 1."""
    xs = list(xs)
    for x in xs:
        if x < 1:
            raise ValueError(f"lcm is defined here for positive integers only, got {x}")
    return math.lcm(*xs)


def lcm_range(n: int) -> int:
    """lcm(1, 2, ..., n); n in {0, 1} gives 1."""
    if n < 0:
        raise ValueError(f"lcm_range needs n >= 0, got {n}")
    return math.lcm(*range(2, n + 1))


def _sieve(n: int) -> bytearray:
    """Sieve of Eratosthenes for n >= 1: entry i is 1 exactly when i is prime."""
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : n + 1 : p] = b"\x00" * ((n - start) // p + 1)
    return sieve


def primes_up_to(n: int) -> list[int]:
    """Strictly increasing list of all primes <= n (sieve); n < 2 gives []."""
    if n < 2:
        return []
    return [i for i, flag in enumerate(_sieve(n)) if flag]


def prime_divisors(n: int) -> Iterator[list[int]]:
    """The ascending primes dividing m, for m = 0, 1, ..., n (none for 0 and 1).

    Only the primes up to isqrt(n) are held, each under its next multiple;
    the lists are made one at a time."""
    if n < 0:
        raise ValueError(f"prime_divisors needs n >= 0, got {n}")
    return _divisor_lists(n)


def _divisor_lists(n: int) -> Iterator[list[int]]:
    # An incremental sieve (O'Neill, "The Genuine Sieve of Eratosthenes"):
    # pending[m] holds the primes p <= isqrt(n) whose next multiple is m. A
    # prime joins the walk at p * p, so once those primes are divided out of m
    # what is left is 1 or the one prime above isqrt(m), the largest.
    pending = {p * p: [p] for p in primes_up_to(math.isqrt(n))}
    for m in range(n + 1):
        primes = pending.pop(m, [])
        rest = m
        for p in primes:
            pending.setdefault(m + p, []).append(p)
            while rest % p == 0:
                rest //= p
        primes.sort()
        if rest > 1:
            primes.append(rest)
        yield primes


class _Record:
    """An immutable value whose fields are its ``__slots__``, in order.

    Equality, hash and repr read the fields as a frozen dataclass's do: equal
    only to an instance of the same class, hashed as the tuple of the fields,
    shown as ``Name(field=value, ...)``. Any assignment raises AttributeError;
    a subclass's __init__ validates its arguments and passes them here.
    """

    __slots__ = ()

    def __init__(self, *values):
        for field, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, field, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copies and pickles are rebuilt through __init__, which validates.
        return type(self), self._values()


class PrimeFactorization(_Record):
    """Prime-power factorization as (prime, exponent) pairs, primes increasing.

    The empty factorization represents 1.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[int, int], ...]):
        previous = 1
        for p, e in factors:
            # Exactly int: a float would pass the checks below, and True is no
            # prime or exponent though bool subclasses int.
            if type(p) is not int or type(e) is not int:
                raise ValueError(f"primes and exponents must be ints, got {p!r}^{e!r}")
            if p <= previous:
                raise ValueError(f"primes must be strictly increasing, got {p} after {previous}")
            if not _verified_prime(p):
                raise ValueError(f"expected a prime, got {p}")
            if e < 1:
                raise ValueError(f"exponents must be >= 1, got {p}^{e}")
            previous = p
        super().__init__(factors)

    def value(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)
