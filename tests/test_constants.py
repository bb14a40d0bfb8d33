import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivpoly import (
    EnumerationCapError,
    PrimeFactorization,
    c_table,
    d_table,
    f_table,
    lambda_product,
    lcm_list,
    lcm_range,
    primes_up_to,
    q_direct,
    q_recurrence,
    q_table,
    vp_int,
)
from ivpoly.rows import c_rows
from golden import GOLDEN_C, GOLDEN_LAMBDA, GOLDEN_Q, compositions_recursive


def test_c_table_matches_golden(c20):
    for n, row in enumerate(GOLDEN_C):
        assert list(c20.row(n)) == row, f"row {n}"


def test_q_table_matches_golden(q20):
    for n, row in enumerate(GOLDEN_Q):
        assert list(q20.row(n)) == row, f"row {n}"


def test_c_is_the_column_lcm_of_d():
    # c(n, k) = lcm of d(m, k) over k <= m <= n, each entry from its definition.
    d = d_table(f_table(80))
    c = c_table(d)
    for n in range(81):
        for k in range(n + 1):
            assert c[n, k] == lcm_list(d[m, k] for m in range(k, n + 1)), (n, k)


def test_c_rows_at_400_run_in_well_under_a_second():
    # The column lcm of the reduced F denominators took about 0.83 s at 400;
    # the column step by small gcds takes about 0.15 s.
    start = time.perf_counter()
    rows = list(c_rows(400))
    assert time.perf_counter() - start < 0.6
    assert rows[-1][1] == lcm_range(400)


def test_c_table_fixed_entries(c20):
    assert c20[4, 2] == 12
    assert c20[9, 3] == 15120
    assert all(c20[n, 0] == 1 for n in range(21))
    assert all(c20[n, n] == 1 for n in range(21))


def test_c_first():
    assert lcm_range(7) == 420
    assert lcm_range(0) == 1
    assert lcm_range(9) == 2520


def test_c_first_column_agreement(c20):
    for n in range(1, 21):
        assert c20[n, 1] == lcm_range(n)


def test_q_table_fixed_entries(q20):
    assert q20[6, 2] == 360
    assert q20[10, 4] == 30240
    assert q20[4, 3] == 2
    assert all(q20[n, 0] == 1 for n in range(21))
    assert all(q20[n, n] == 1 for n in range(21))


def test_q_direct():
    assert q_direct(4, 2) == 12
    assert q_direct(3, 3) == 1
    assert q_direct(7, 0) == 1
    for n in range(1, 11):
        assert q_direct(n, 1) == lcm_range(n)


def test_q_direct_cap():
    with pytest.raises(EnumerationCapError):
        q_direct(19, 2)
    with pytest.raises(EnumerationCapError):
        q_direct(4, 2, cap=3)
    assert q_direct(4, 2, cap=4) == 12


def test_q_direct_matches_the_composition_walk():
    # The lcm over the ordered compositions of every total m <= n, as q_direct
    # computed it before it walked multisets of parts.
    for n in range(17):
        assert q_direct(n, 0) == 1
        for k in range(n + 1):
            want = lcm_list(
                math.prod(parts) for m in range(n + 1) for parts in compositions_recursive(m, k)
            )
            assert q_direct(n, k) == want, (n, k)


def test_q_direct_matches_table(q20):
    for n in range(11):
        for k in range(n + 1):
            assert q_direct(n, k) == q20[n, k]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=150))
def test_q_table_matches_the_recurrence(max_n):
    assert q_table(max_n) == q_recurrence(max_n)


def _best_exponent_sum(n, k, p):
    """Brute force: the largest a_1 + ... + a_k with p**a_1 + ... + p**a_k <= n."""
    top = 0
    while p ** (top + 1) <= n:
        top += 1
    return max(
        sum(exponents)
        for exponents in itertools.combinations_with_replacement(range(top + 1), k)
        if sum(p**a for a in exponents) <= n
    )


def test_q_valuations_match_the_balanced_closed_form():
    # v_p(q(n, k)) = max{E : (k - r) * p**t + r * p**(t + 1) <= n}, E = k*t + r.
    q = q_table(12)
    for p in (2, 3, 5, 7):
        for n in range(13):
            for k in range(n + 1):
                closed = 0
                if k:
                    closed = max(
                        e for e in range(n + 1)
                        if (k - e % k) * p ** (e // k) + (e % k) * p ** (e // k + 1) <= n
                    )
                assert _best_exponent_sum(n, k, p) == closed == vp_int(q[n, k], p), (n, k, p)


def test_row_valuations_peak_at_n_over_p():
    q = q_table(60)
    for n in range(61):
        for p in primes_up_to(60):
            assert max(vp_int(entry, p) for entry in q.row(n)) == n // p


def test_q_total(q20):
    assert lcm_list(q20.row(6)) == 360
    assert lcm_list(q20.row(0)) == 1
    assert lcm_list(q20.row(10)) == 151200


def test_lambda_lcm_c(c20):
    assert lcm_list(c20.row(10)) == 151200
    assert lcm_list(c20.row(7)) == 2520
    assert lcm_list(c20.row(0)) == 1


def test_lambda_product():
    ten = lambda_product(10)
    assert ten.factors == ((2, 5), (3, 3), (5, 2), (7, 1))
    assert ten.value() == 151200
    assert lambda_product(1).factors == ()
    assert lambda_product(1).value() == 1
    assert lambda_product(5).factors == ((2, 2), (3, 1), (5, 1))
    assert lambda_product(5).value() == 60


def test_lambda_product_past_a_million():
    # Primes above 10**6 are accepted, each read from one cached sieve.
    start = time.perf_counter()
    assert lambda_product(1_000_003).factors[-1] == (1000003, 1)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError):
        PrimeFactorization(((1_000_001, 1),))  # 101 * 9901


def test_lambda_sequence_matches_golden(c20, q20):
    for n, expected in enumerate(GOLDEN_LAMBDA):
        assert lcm_list(c20.row(n)) == expected
        assert lcm_list(q20.row(n)) == expected
        assert lambda_product(n).value() == expected


def test_three_lambda_routes_agree_up_to_30():
    f = f_table(30)
    c = c_table(d_table(f))
    q = q_table(30)
    for n in range(31):
        assert lcm_list(c.row(n)) == lcm_list(q.row(n)) == lambda_product(n).value()
    for n in range(1, 31):
        assert c[n, 1] == lcm_range(n)


def test_c_divides_q(c20, q20):
    for n in range(21):
        for k in range(n + 1):
            assert q20[n, k] % c20[n, k] == 0


def test_q_divides_k_factorial_times_c(c20, q20):
    for n in range(21):
        for k in range(n + 1):
            assert (math.factorial(k) * c20[n, k]) % q20[n, k] == 0


def test_columns_grow_under_divisibility(c20, q20):
    for table in (c20, q20):
        for n in range(20):
            for k in range(n + 1):
                assert table[n + 1, k] % table[n, k] == 0
