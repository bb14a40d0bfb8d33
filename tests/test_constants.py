import math
import time

import pytest

from ivpoly import (
    EnumerationCapError,
    c_table,
    d_table,
    f_table,
    lambda_product,
    lcm_list,
    lcm_range,
    q_direct,
    q_table,
)
from golden import GOLDEN_C, GOLDEN_LAMBDA, GOLDEN_Q


def test_c_table_matches_golden(c20):
    for n, row in enumerate(GOLDEN_C):
        assert list(c20.row(n)) == row, f"row {n}"
    assert c20.label == "c-table"


def test_q_table_matches_golden(q20):
    for n, row in enumerate(GOLDEN_Q):
        assert list(q20.row(n)) == row, f"row {n}"
    assert q20.label == "q-table"


def test_c_table_fixed_entries(c20):
    assert c20[4, 2] == 12
    assert c20[9, 3] == 15120
    assert all(c20[n, 0] == 1 for n in range(21))
    assert all(c20[n, n] == 1 for n in range(21))


def test_c_table_needs_covering_d():
    with pytest.raises(ValueError):
        c_table(5, d_table(f_table(3)))


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


def test_q_direct_matches_table(q20):
    for n in range(11):
        for k in range(n + 1):
            assert q_direct(n, k) == q20[n, k]


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
    # Primes above 10**6 are accepted; each is checked by trial division once.
    start = time.perf_counter()
    assert lambda_product(1_000_003).factors[-1] == (1000003, 1)
    assert time.perf_counter() - start < 15.0


def test_lambda_sequence_matches_golden(c20, q20):
    for n, expected in enumerate(GOLDEN_LAMBDA):
        assert lcm_list(c20.row(n)) == expected
        assert lcm_list(q20.row(n)) == expected
        assert lambda_product(n).value() == expected


def test_three_lambda_routes_agree_up_to_30():
    f = f_table(30)
    c = c_table(30, d_table(f))
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
