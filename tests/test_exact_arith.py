import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ivpoly.exact_arith as exact_arith
from ivpoly import (
    PrimeFactorization,
    lambda_product,
    lcm_list,
    lcm_range,
    primes_up_to,
    vp_int,
    vp_rat,
)
from ivpoly.exact_arith import is_prime, prime_divisors
from golden import prime_divisors_table


@pytest.mark.parametrize(
    "a, p, expected",
    [
        (12, 2, 2),
        (1, 7, 0),
        (151200, 5, 2),  # 151200 = 2^5 * 3^3 * 5^2 * 7, by trial division
        (8, 2, 3),
        (7, 7, 1),
    ],
)
def test_vp_int(a, p, expected):
    assert vp_int(a, p) == expected


# A float is refused rather than read as its binary expansion (1e300 would give
# 946), and True is no positive integer though bool subclasses int.
@pytest.mark.parametrize("a", [0, -3, 8.0, 1e300, True])
def test_vp_int_rejects_nonpositive(a):
    message = f"valuation needs a positive integer, got {a!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        vp_int(a, 2)


@pytest.mark.parametrize("p", [1, 4, 9, -5, 2.0])
def test_vp_int_rejects_composite(p):
    with pytest.raises(ValueError, match=f"^{re.escape(f'expected a prime, got {p}')}$"):
        vp_int(10, p)


def test_vp_int_reads_primality_past_a_million():
    # The sieve gate has no upper limit: 1_000_003 is prime, 1_000_001 = 101 * 9901.
    assert vp_int(5 * 1_000_003**2, 1_000_003) == 2
    with pytest.raises(ValueError):
        vp_int(10, 1_000_001)


@pytest.mark.parametrize(
    "r, p, expected",
    [
        (Fraction(11, 12), 2, -2),
        (Fraction(1), 5, 0),
        (Fraction(1, 3), 3, -1),
        (Fraction(-4, 3), 2, 2),
        (12, 2, 2),
    ],
)
def test_vp_rat(r, p, expected):
    assert vp_rat(r, p) == expected


def test_vp_rat_rejects_zero():
    with pytest.raises(ValueError):
        vp_rat(Fraction(0), 2)


def test_vp_rat_rejects_what_is_no_exact_rational():
    # Fraction(0.1) is the binary expansion of 0.1, whose 2-adic valuation is -55.
    for r in (0.1, 1.0, True, "1/2"):
        with pytest.raises(ValueError):
            vp_rat(r, 2)


def test_lcm_list():
    assert lcm_list([4, 6]) == 12
    assert lcm_list([]) == 1
    assert lcm_list([1, 2, 3, 4, 5, 6]) == 60


@pytest.mark.parametrize("bad", [[0], [3, -2]])
def test_lcm_list_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        lcm_list(bad)


def test_lcm_range():
    assert lcm_range(10) == 2520
    assert lcm_range(1) == 1
    assert lcm_range(0) == 1
    assert lcm_range(6) == 60
    with pytest.raises(ValueError):
        lcm_range(-1)


def _trial_division_primes(m: int) -> list[int]:
    return [p for p in range(2, m + 1) if m % p == 0 and is_prime(p)]


def test_lcm_range_grows_only_at_prime_powers():
    # lcm(1..n) gains p when p is the only prime dividing n, else nothing.
    divisors = list(prime_divisors(100))
    assert divisors[:2] == [[], []]
    for n in range(2, 101):
        primes = divisors[n]
        step = primes[0] if len(primes) == 1 else 1
        assert lcm_range(n) == lcm_range(n - 1) * step, n


def test_lambda_grows_by_the_radical():
    # lambda(n) gains the product of the primes dividing n.
    divisors = list(prime_divisors(100))
    for n in range(2, 101):
        rad = math.prod(p for p in primes_up_to(n) if n % p == 0)
        assert math.prod(divisors[n]) == rad, n
        assert lambda_product(n).value() == lambda_product(n - 1).value() * rad, n


def test_prime_divisors_match_trial_division():
    divisors = list(prime_divisors(1000))
    assert divisors[:2] == [[], []]
    for m in range(2, 1001):
        assert divisors[m] == _trial_division_primes(m), m


def test_prime_divisors_at_the_table_edges():
    # Where the walk can be off by one: around p * p for each prime p <= 47,
    # where p joins the walk (so isqrt(n) is or is not p), at primes and at
    # powers of 2.
    edges = [*range(5), *primes_up_to(60), *(2**k for k in range(12))]
    for p in primes_up_to(47):
        edges += [p * p - 1, p * p, p * p + 1]
    expected = [_trial_division_primes(m) for m in range(max(edges) + 1)]
    for n in edges:
        assert list(prime_divisors(n)) == expected[: n + 1], n


def test_prime_divisors_match_the_least_factor_table():
    # The walk against the table it replaced: for every n <= 3000 (the primes
    # it holds depend on isqrt(n)), then in full at n = 100000.
    expected = list(prime_divisors_table(3000))
    for n in range(3001):
        assert list(prime_divisors(n)) == expected[: n + 1], n
    assert list(prime_divisors(100000)) == list(prime_divisors_table(100000))


def test_prime_divisors_edges():
    assert list(prime_divisors(0)) == [[]]
    # Refused at the call, before the first list is asked for.
    with pytest.raises(ValueError, match="n >= 0"):
        prime_divisors(-1)


def test_primes_up_to():
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_matches_sieve():
    flags = set(primes_up_to(500))
    for n in range(502):
        assert is_prime(n) == (n in flags)


def test_valuation_bound_exhaustive():
    # vp(a) <= a / p for every positive a; integer form avoids any division
    for p in (2, 3, 5, 7):
        for a in range(1, 10_001):
            assert vp_int(a, p) * p <= a


class TestPrimeFactorization:
    def test_value_and_str(self):
        pf = PrimeFactorization(((2, 5), (3, 3), (5, 2), (7, 1)))
        assert pf.value() == 151200
        assert str(pf) == "2^5 * 3^3 * 5^2 * 7"

    def test_empty_is_one(self):
        pf = PrimeFactorization(())
        assert pf.value() == 1
        assert str(pf) == "1"

    def test_single_prime(self):
        assert str(PrimeFactorization(((7, 1),))) == "7"

    @pytest.mark.parametrize(
        "factors",
        [
            ((3, 1), (2, 1)),
            ((2, 0),),
            ((4, 1),),
            ((2, 1), (2, 2)),
            # Not ints: value() would return a float for 2^2.0.
            ((2, 2.0),),
            ((3, 1.5),),
            ((2, True),),
            ((2.0, 1),),
            ((True, 1),),
        ],
    )
    def test_invalid_factors_rejected(self, factors):
        with pytest.raises(ValueError):
            PrimeFactorization(factors)

    def test_accepts_exactly_the_primes(self, monkeypatch):
        # From an empty cache, so the sieve doubles from 1024 to 8192 on the way.
        monkeypatch.setattr(exact_arith, "_PRIME_FLAGS", bytearray())
        for p in range(2, 5000):
            try:
                PrimeFactorization(((p, 1),))
            except ValueError:
                assert not is_prime(p), p
            else:
                assert is_prime(p), p

    def test_gate_returns_the_prime_or_raises(self, monkeypatch):
        # From an empty cache: 1031 grows the sieve past its first 1024 entries,
        # and 16777259, the least prime above SIEVE_LIMIT, is trial divided.
        monkeypatch.setattr(exact_arith, "_PRIME_FLAGS", bytearray())
        for p in (2, 1021, 1031, 16777259):
            assert exact_arith._verified_prime(p) == p
        assert len(exact_arith._PRIME_FLAGS) == 2048
        for p in (0, 1, -3, 4, 2.0, 2**24, 2**24 + 1):
            with pytest.raises(ValueError, match=f"^{re.escape(f'expected a prime, got {p}')}$"):
                exact_arith._verified_prime(p)

    def test_primes_from_the_sieve_limit_up_are_trial_divided(self, monkeypatch):
        # From an empty cache: a sieve past 2**24 would take 16 MB or more.
        monkeypatch.setattr(exact_arith, "_PRIME_FLAGS", bytearray())
        p = 16777259  # the least prime above SIEVE_LIMIT = 2**24
        assert vp_int(3 * p**2, p) == 2
        PrimeFactorization(((p, 1),))
        for composite in (2**24, 2**24 + 1):  # 2**24 + 1 = 97 * 257 * 673
            with pytest.raises(ValueError, match=f"expected a prime, got {composite}"):
                vp_int(5, composite)
        assert len(exact_arith._PRIME_FLAGS) < exact_arith.SIEVE_LIMIT


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_lcm_gcd_identity(a, b):
    assert lcm_list([a, b]) * math.gcd(a, b) == a * b


@given(
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=64),
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=64),
    st.sampled_from([2, 3, 5, 7]),
)
def test_vp_rat_is_additive(r, s, p):
    if r == 0 or s == 0:
        return
    assert vp_rat(r * s, p) == vp_rat(r, p) + vp_rat(s, p)
