import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivpoly import (
    EnumerationCapError,
    basis,
    c_table,
    compositions,
    d_table,
    f_direct,
    f_from_partial_sums,
    f_from_subsets,
    f_recurrence,
    f_table,
    vp_rat,
)
from ivpoly.stirling import part_multisets
from golden import (
    compositions_recursive,
    f_direct_fractions,
    f_column,
    f_from_subsets_fractions,
    part_multisets_filtered,
)


def _abs_stirling_by_subsets(n: int, k: int) -> int:
    """|s(n, k)| as the elementary symmetric polynomial e_{n-k}(1, ..., n-1)."""
    return sum(math.prod(c) for c in combinations(range(1, n), n - k))


def test_compositions():
    assert sorted(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(3, 0)) == []
    assert list(compositions(2, 3)) == []
    assert len(list(compositions(10, 4))) == math.comb(9, 3)


def test_compositions_match_the_recursive_walk():
    # Same tuples in the same (lexicographic) order, edge cases included.
    for total in range(-1, 17):
        for parts in range(-1, 17):
            assert list(compositions(total, parts)) == list(
                compositions_recursive(total, parts)
            ), (total, parts)


def test_part_multisets():
    assert list(part_multisets(4, 2)) == [(1, 1), (1, 2), (1, 3), (2, 2)]
    for n in range(6):
        assert list(part_multisets(n, 0)) == [()]
    assert list(part_multisets(3, 4)) == []


def test_part_multisets_match_the_filtered_walk():
    # Same tuples in the same (lexicographic) order as the walk that kept
    # the ascending tuples whose sum fits, edge cases included.
    for max_total in range(-1, 15):
        for parts in range(max_total + 3):
            assert list(part_multisets(max_total, parts)) == list(
                part_multisets_filtered(max_total, parts)
            ), (max_total, parts)
    for walk in (part_multisets, part_multisets_filtered):
        with pytest.raises(ValueError):
            list(walk(5, -1))


class TestStirlingFirst:
    def test_fixed_entries(self, s14):
        assert s14[4, 2] == 11  # X(X-1)(X-2)(X-3) = X^4 - 6X^3 + 11X^2 - 6X
        assert s14[3, 1] == 2
        assert s14[5, 1] == 24
        assert s14[4, 1] == -6

    def test_boundary_rows(self, s14):
        assert all(s14[n, n] == 1 for n in range(15))
        assert s14[0, 0] == 1
        assert all(s14[n, 0] == 0 for n in range(1, 15))

    def test_sign_pattern(self, s14):
        for n in range(15):
            for k in range(n + 1):
                assert (-1) ** (n + k) * s14[n, k] >= 0

    def test_matches_subset_oracle(self, s14):
        for n in range(9):
            for k in range(n + 1):
                assert abs(s14[n, k]) == _abs_stirling_by_subsets(n, k)


class TestFTable:
    def test_fixed_entries(self, f20):
        assert f20[4, 2] == Fraction(11, 12)  # 1/3 + 1/3 + 1/4
        assert f20[0, 0] == 1
        assert f20[3, 2] == 1

    def test_boundaries(self, f20):
        assert all(f20[n, 0] == 0 for n in range(1, 21))
        assert all(f20[n, n] == 1 for n in range(21))
        assert all(f20[n, 1] == Fraction(1, n) for n in range(1, 21))

    def test_interior_entries_positive(self, f20):
        for n in range(1, 21):
            for k in range(1, n + 1):
                assert f20[n, k] > 0

    def test_key_valuations(self, f20):
        assert vp_rat(f20[4, 2], 2) == -2
        assert vp_rat(f20[3, 1], 3) == -1
        assert vp_rat(f20[15, 3], 5) == -3


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=200))
def test_f_table_matches_the_recurrence(max_n):
    table, recurrence = f_table(max_n), f_recurrence(max_n)
    assert table == recurrence
    assert d_table(table) == d_table(recurrence)
    assert c_table(d_table(table)) == c_table(d_table(recurrence))


@pytest.mark.parametrize("build", [f_table, f_recurrence])
def test_f_routes_reject_a_negative_size(build):
    with pytest.raises(ValueError):
        build(-1)


def test_f_direct():
    assert f_direct(4, 2) == Fraction(11, 12)
    assert f_direct(3, 2) == 1  # 1/2 + 1/2
    assert f_direct(0, 0) == 1
    assert f_direct(5, 0) == 0
    with pytest.raises(ValueError):
        f_direct(3, 4)


def test_f_direct_cap():
    with pytest.raises(EnumerationCapError):
        f_direct(23, 3)
    assert f_direct(23, 1, cap=23) == Fraction(1, 23)


def test_f_from_subsets():
    assert f_from_subsets(4, 2) == Fraction(11, 12)  # (2/4)(1 + 1/2 + 1/3)
    assert f_from_subsets(2, 2) == 1
    assert f_from_subsets(3, 2) == 1
    with pytest.raises(ValueError):
        f_from_subsets(4, 1)
    with pytest.raises(EnumerationCapError):
        f_from_subsets(30, 3)


def test_f_routes_match_the_fraction_sums():
    # The integer sums against the replaced one-Fraction-per-term sums.
    for n in range(15):
        for k in range(n + 1):
            assert f_direct(n, k) == f_direct_fractions(n, k), (n, k)
            if k >= 2:
                assert f_from_subsets(n, k) == f_from_subsets_fractions(n, k), (n, k)


def test_f_from_partial_sums(f20):
    assert f_from_partial_sums(4, 2, f20) == Fraction(11, 12)
    assert all(f_from_partial_sums(n, 1, f20) == Fraction(1, n) for n in range(1, 21))
    assert f_from_partial_sums(1, 1, f20) == 1
    with pytest.raises(ValueError):
        f_from_partial_sums(3, 0, f20)
    with pytest.raises(ValueError):
        f_from_partial_sums(25, 2, f20)


def test_all_routes_agree(f20):
    for n in range(11):
        for k in range(n + 1):
            expected = f20[n, k]
            assert f_direct(n, k) == expected
            if k >= 2:
                assert f_from_subsets(n, k) == expected
            if k >= 1:
                assert f_from_partial_sums(n, k, f20) == expected


def test_f_matches_basis_derivative_at_zero(f20):
    # both derivative routes of C(X, n), taken at 0, land on |F(n, k)|
    for n in range(13):
        mono = basis(n).to_monomial()
        for k in range(n + 1):
            assert abs(basis(n).derivative(k, f_column(f20, k)).eval_int(0)) == f20[n, k]
            assert abs(mono.derivative(k).eval(0)) == f20[n, k]


def test_d_table(f20, d20):
    assert d20[4, 2] == 12
    assert d20[2, 1] == 2
    assert all(d20[n, n] == 1 for n in range(21))
    assert all(d20[n, 0] == 1 for n in range(21))
